"""Exact stopping-time and outcome laws for band-or-bump card deals."""

from .analysis import (
    Finding,
    MomentsReport,
    OutcomeMoments,
    ScanReport,
    bump_logconcavity_scan,
    log_concavity,
    moments,
    nonvacuity_scan,
    payoff_ev,
)
from .distribution import (
    ConsistencyError,
    GameParams,
    JointDistribution,
    joint_distribution,
)
from .exactnum import sqrt_decimal, to_decimal
from .oracle import (
    ComparisonReport,
    EmpiricalDistribution,
    compare,
    exhaustive_distribution,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConsistencyError",
    "EmpiricalDistribution",
    "Finding",
    "GameParams",
    "JointDistribution",
    "MomentsReport",
    "OutcomeMoments",
    "ScanReport",
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
