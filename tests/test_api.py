import dataclasses
import inspect
import re
from pathlib import Path

import bandorbump
from bandorbump import analysis, cli, distribution, exactnum, hypergeom, oracle

SUPPORTED = [
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


def test_top_level_api_is_pinned():
    # The law is read through JointDistribution; reference and helper
    # routines are imported from their own modules.
    assert sorted(bandorbump.__all__) == SUPPORTED
    for name in SUPPORTED:
        assert getattr(bandorbump, name) is not None, name
    for gone in (
        "band_joint",
        "bump_joint",
        "bump_index_range",
        "BumpIndexRange",
        "KppBounds",
        "bump_k_range",
        "bump_kpp_range",
        "_require_general",
    ):
        assert not hasattr(distribution, gone), gone
    # One form per law, so the dataclass == compares values.
    assert not hasattr(distribution.JointDistribution, "matches")
    # The scans run what `bandorbump scan` runs; the band theorem is a test
    # (tests/reference.py), and only analysis knows the general case.
    for gone in ("band_logconcavity_scan", "_logconcavity_scan"):
        assert not hasattr(analysis, gone), gone
    assert not hasattr(distribution.GameParams, "is_general")


def test_reference_forms_live_in_the_tests():
    # The paper's rectangle forms serve tests only and are kept in
    # tests/reference.py; the package counts deals one way, by
    # generating-function products.
    for gone in ("bump_summand", "coupon_band", "equal_quota", "multinomial"):
        assert not hasattr(distribution, gone), gone
    for gone in (
        "HypergeomSpec", "Rectangle", "_rect_poly", "rect_count", "rect_prob", "point_prob", "binomial",
    ):
        assert not hasattr(hypergeom, gone), gone
        assert not hasattr(distribution, gone), gone
    # The package calls math.comb; the binomial that is 0 outside its row,
    # which the reference forms sum over, is test-side too.
    for gone in ("binomial", "multinomial"):
        assert not hasattr(exactnum, gone), gone


def test_exactnum_rounds_with_the_decimal_module():
    # The decimal module's half-even rounding, applied once to a short
    # integer with a sticky digit, replaces the hand-rolled exponent
    # estimate, scaling, rounding and point placement.  It is the only
    # rounding mode: no other mode is imported and no helper takes one.
    for gone in ("_LOG10_2_NUM", "_LOG10_2_DEN", "_floor_log10", "_scale", "_round_half_even", "_place_point"):
        assert not hasattr(exactnum, gone), gone
    assert not hasattr(exactnum, "ROUND_FLOOR")
    assert list(inspect.signature(exactnum._context).parameters) == ["prec"]


def test_hypergeom_keeps_the_polynomial_helpers():
    # The benchmark's span recorder imports this module by name.
    assert hypergeom.window_poly(3, 1, 2) == [0, 3, 3]
    assert hypergeom.truncated_product([1, 1], [1, 1], 1) == [1, 2]


def test_one_recurrence_raises_every_power():
    # The engine alone raises polynomials, whole: the non-vacuity scan reads
    # each summand's sign from its support, and a chain of truncated products
    # survives only in the tests.
    assert not hasattr(distribution, "_power")
    for gone in ("_powers", "power", "window_poly", "_product_coef", "truncated_product"):
        assert gone not in vars(analysis), gone
    assert list(inspect.signature(distribution.power).parameters) == ["poly", "e"]


def test_only_the_law_types_are_dataclasses():
    # A type is a dataclass only where it validates; every other result is a
    # named tuple of what its producer computed.
    types = [getattr(bandorbump, name) for name in bandorbump.__all__]
    types = [t for t in types if isinstance(t, type)]
    assert {t.__name__ for t in types if dataclasses.is_dataclass(t)} == {"GameParams", "JointDistribution"}
    records = {t.__name__ for t in types if issubclass(t, tuple)}
    assert records == {
        "ComparisonReport", "EmpiricalDistribution", "Finding",
        "MomentsReport", "OutcomeMoments", "ScanReport",
    }
    # A record compares equal to the plain tuple of its values and unpacks.
    marginal, mean, variance = analysis.OutcomeMoments(1, None, None)
    assert analysis.OutcomeMoments(marginal, mean, variance) == (1, None, None)
    # log_concavity returns its violations; ok was their emptiness.
    assert not hasattr(analysis, "LogConcavityResult")
    # compare's own arguments are not echoed back, and passed was a verdict:
    # verify judges the scores against its own bound.
    # The scores come in the law's own layout, a band and a bump column.
    assert oracle.ComparisonReport._fields == ("band_z", "bump_z", "scored", "max_abs_z", "impossible")
    # Monte Carlo tallies are per-draw integer columns, as the exact law is.
    # A record holds what was computed: the trial count is read off the columns.
    assert oracle.EmpiricalDistribution._fields == ("params", "band", "bump")
    assert isinstance(oracle.EmpiricalDistribution.trials, property)
    tallies = oracle.EmpiricalDistribution(distribution.GameParams(2, 2, 1, 1), [0, 0, 20], [0, 3, 7])
    assert tallies.trials == 30
    assert "Counter" not in vars(oracle)
    # A scan's report holds what it counted; kind and ranges are the caller's
    # own arguments, and ok was the emptiness of findings.
    assert analysis.ScanReport._fields == ("cells", "checks", "findings")
    for gone in ("ok", "to_json_dict"):
        assert not hasattr(analysis.ScanReport, gone), gone


def test_no_knob_or_guard_that_says_nothing():
    # verify was compare's one caller and always passed the same floor, which
    # is now compare's own constant.
    assert "min_prob" not in inspect.signature(oracle.compare).parameters
    assert not hasattr(cli, "_MIN_SCORED_PROB")
    # The generating-function rows have fixed lengths, so every read is in range.
    assert not hasattr(distribution, "_coef")
    # The Monte Carlo bound never moves, so it is verify's constant, not an
    # option or an argument.
    assert "z_threshold" not in inspect.signature(oracle.compare).parameters
    assert not hasattr(cli, "_positive_finite")
    assert cli._Z_BOUND == 4.0
    # Every verify option is an input or a path; a new one is a visible decision.
    assert {p.name for p in cli.cmd_verify.params} == {"m", "s", "l", "u", "mc_trials", "seed", "oracle_cap"}


def test_verify_alone_sizes_the_dp():
    # verify --oracle-cap is the DP's one size rule: the oracle solves the
    # deck it is given, as joint_distribution and simulate do.
    assert list(inspect.signature(oracle.exhaustive_distribution).parameters) == ["params"]


def test_one_guard_for_every_write():
    # A failed write is caught where it is written, never around a whole
    # command, so no other OSError reads as one.
    assert "invoke" not in vars(cli._Command)
    # dist streams its table through that guard, row by row; no builder of
    # the whole document is left.
    assert not hasattr(cli, "dist_json")
    # --out is a plain path; open() reports a directory or a missing parent
    # as it reports any other output that cannot be written.
    out = next(p for p in cli.cmd_scan.params if p.name == "out")
    assert getattr(out.type, "dir_okay", True) and not getattr(out.type, "writable", False)


def test_one_rule_refuses_a_bad_input():
    # One helper turns a rejected deck or stake into a usage error (exit 2).
    assert not hasattr(cli, "_parse_params")
    assert inspect.getsource(cli).count("click.UsageError(str(exc))") == 1
    # --digits is declared once, so dist and payoff cannot drift apart.
    dist, payoff = (next(p for p in c.params if p.name == "digits") for c in (cli.cmd_dist, cli.cmd_payoff))
    for option in (dist, payoff):
        assert (option.type.min, option.type.max, option.default, option.help) == (
            1, cli._MAX_DIGITS, 6, "Significant figures.",
        )


def test_each_decision_lives_in_one_module():
    # The law's denominator comes from its deck alone.
    fields = dataclasses.fields(distribution.JointDistribution)
    assert tuple(f.name for f in fields) == ("params", "band", "bump")
    # moments returns exact values; only the CLI makes decimal text.
    assert "sig_figs" not in inspect.signature(analysis.moments).parameters
    for report in (analysis.MomentsReport, analysis.OutcomeMoments):
        assert "sd" not in report._fields, report
        assert not hasattr(report, "sd"), report
    for gone in ("sqrt_decimal", "ConsistencyError"):
        assert not hasattr(analysis, gone), gone
    assert not hasattr(cli, "_ratio")
    # Only the engine and the oracles raise ConsistencyError, and no code in
    # the package catches it.
    for path in Path(bandorbump.__file__).parent.glob("*.py"):
        assert not re.search(r"except\b[^:]*ConsistencyError", path.read_text()), path.name


def test_stakes_are_read_where_they_are_typed():
    # payoff_ev takes two exact stakes; the CLI parses their text and bounds
    # their exponents, as it bounds every other output cost.
    for module in (bandorbump, analysis, cli, distribution, exactnum, hypergeom, oracle):
        assert "PayoffSpec" not in vars(module), module.__name__
    assert "re" not in vars(analysis)
    assert list(inspect.signature(analysis.payoff_ev).parameters) == ["dist", "band", "bump"]
    assert cli._MAX_STAKE_EXPONENT == 10_000


def test_exact_and_simulated_laws_share_one_layout():
    # Both laws, and the scores compare gives them, are a band and a bump
    # column over draws 0..n_max; the row span and its lookups are gone, and
    # no cell is named by an outcome.
    law = distribution.joint_distribution(distribution.GameParams(2, 3, 1, 2))
    for gone in ("numerators", "numerator", "mass", "last_n"):
        assert not hasattr(law, gone), gone
    for module in (analysis, cli, distribution, exactnum, hypergeom, oracle):
        for gone in ("Outcome", "CellCheck"):
            assert gone not in vars(module), (module.__name__, gone)
    for path in Path(bandorbump.__file__).parent.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+enum\b", path.read_text(), re.M), path.name
    # l = 0, u = s, l = u and a general deck
    for p in (
        distribution.GameParams(3, 4, 0, 2),
        distribution.GameParams(3, 2, 1, 2),
        distribution.GameParams(2, 3, 2, 2),
        distribution.GameParams(4, 4, 1, 3),
    ):
        exact, simulated = distribution.joint_distribution(p), oracle.simulate(p, 50)
        assert len(exact.band) == len(exact.bump) == len(simulated.band) == p.n_max + 1, p


def test_a_law_gives_out_its_integer_columns():
    # Callers read the band and bump columns over the denominator: verify's
    # mismatch lines and payoff_ev build their Fractions from them, and
    # moments gives the marginals.  rows is the one Fraction view left.
    law = distribution.joint_distribution(distribution.GameParams(2, 3, 1, 2))
    for gone in ("band_mass", "bump_mass", "band_marginal", "bump_marginal"):
        assert not hasattr(distribution.JointDistribution, gone), gone
    public = {name for name in dir(law) if not name.startswith("_")}
    assert public == {"params", "band", "bump", "denominator", "first_n", "rows"}
