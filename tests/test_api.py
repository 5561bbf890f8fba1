import bandorbump
from bandorbump import distribution

SUPPORTED = [
    "CellCheck",
    "ComparisonReport",
    "ConsistencyError",
    "EmpiricalDistribution",
    "Finding",
    "GameParams",
    "JointDistribution",
    "LogConcavityResult",
    "MomentsReport",
    "Outcome",
    "OutcomeMoments",
    "PayoffSpec",
    "ScanReport",
    "band_logconcavity_scan",
    "bump_logconcavity_scan",
    "compare",
    "exhaustive_distribution",
    "joint_distribution",
    "log_concavity",
    "moments",
    "nonvacuity_scan",
    "payoff_ev",
    "simulate",
    "sqrt_decimal",
    "to_decimal",
]


def test_top_level_api_is_pinned():
    # The law is read through JointDistribution; reference and helper
    # routines are imported from their own modules.
    assert sorted(bandorbump.__all__) == SUPPORTED
    for name in SUPPORTED:
        assert getattr(bandorbump, name) is not None, name
    for gone in ("band_joint", "bump_joint", "bump_index_range", "BumpIndexRange", "KppBounds"):
        assert not hasattr(distribution, gone), gone
