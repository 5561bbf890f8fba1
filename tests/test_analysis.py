import gc
import json
import time
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from bandorbump import analysis, cli
from bandorbump.analysis import (
    Finding,
    bump_logconcavity_scan,
    log_concavity,
    moments,
    nonvacuity_scan,
    payoff_ev,
)
from bandorbump.distribution import ConsistencyError, GameParams, joint_distribution
from bandorbump.exactnum import sqrt_decimal, to_decimal
from bandorbump.hypergeom import truncated_product, window_poly
from reference import band_logconcavity_violations

SUIT_GAME = GameParams(4, 13, 5, 8)
RANK_GAME = GameParams(13, 4, 1, 3)


class TestMoments:
    def test_suit_game_published_statistics(self):
        report = moments(joint_distribution(SUIT_GAME))
        assert to_decimal(report.mean, 6) == "23.9151"
        assert sqrt_decimal(report.variance, 6) == "2.33806"
        assert to_decimal(report.band.mean, 6) == "23.8664"
        assert sqrt_decimal(report.band.variance, 6) == "2.00364"
        assert to_decimal(report.bump.mean, 6) == "23.9899"
        assert sqrt_decimal(report.bump.variance, 6) == "2.77314"
        assert to_decimal(report.band.marginal, 6) == "0.605984"
        assert to_decimal(report.bump.marginal, 6) == "0.394016"

    def test_single_atom(self):
        report = moments(joint_distribution(GameParams(2, 3, 0, 0)))
        assert report.mean == 1
        assert report.variance == 0
        assert report.bump.mean == 1
        assert report.band.mean is None  # no band mass at all

    def test_zero_marginal_flagged_with_none(self):
        # coupon corner: bumps are impossible
        report = moments(joint_distribution(GameParams(3, 2, 1, 2)))
        assert report.bump.marginal == 0
        assert report.bump.mean is None
        assert report.bump.variance is None
        assert report.band.marginal == 1

    def test_law_of_total_expectation(self):
        for shape in [(2, 3, 1, 2), (4, 13, 5, 8), (3, 4, 1, 3), (2, 2, 1, 1)]:
            dist = joint_distribution(GameParams(*shape))
            report = moments(dist)
            total = Fraction(0)
            for oc in (report.band, report.bump):
                if oc.mean is not None:
                    total += oc.marginal * oc.mean
            assert total == report.mean, shape

    def test_variance_matches_direct_sum(self):
        dist = joint_distribution(GameParams(3, 4, 1, 3))
        report = moments(dist)
        direct = sum(
            ((n - report.mean) ** 2 * (band + bump) for n, band, bump in dist.rows),
            Fraction(0),
        )
        assert report.variance == direct


class TestPayoff:
    # payoff_ev takes exact stakes; the command line reads them with cli._stake.
    def test_parse_is_exact_decimal(self):
        assert cli._stake("0.10") == Fraction(1, 10)
        assert cli._stake("-3") == Fraction(-3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="^unparseable payoff: "):
            cli._stake("two dollars")
        with pytest.raises(ValueError, match=r"^unparseable payoff: Invalid literal for Fraction: 'x'$"):
            cli._stake("x")

    def test_parse_rejects_a_zero_denominator(self):
        with pytest.raises(ValueError, match=r"^unparseable payoff: Fraction\(1, 0\)$"):
            cli._stake("1/0")

    @pytest.mark.parametrize(
        "text",
        # int() reads a run of 4 300 digits, so only the bound judges the 4300-digit
        # exponent, 3; Fraction reads the integer part, the fraction part and the
        # denominator each with int()
        ["1e-10000", "1E+10_000", "-2.5e0000000000000003", "1e٣",
         pytest.param("1e-" + "0" * 4299 + "3", id="4300-digit exponent"),
         pytest.param("1" + "0" * 4299, id="4300-digit integer"),
         pytest.param("0." + "3" * 4300, id="4300-digit fraction"),
         pytest.param("1/" + "3" * 4300, id="4300-digit denominator"),
         pytest.param("1_" + "0" * 4299, id="4300 digits underscored"),
         pytest.param("7" * 4300 + "." + "7" * 4300, id="two 4300-digit parts")],
    )
    def test_parse_accepts_exponents_up_to_the_bound(self, text):
        assert cli._stake(text) == Fraction(text)

    @pytest.mark.parametrize(
        ("text", "reason"),
        [
            ("1e-10001", "an exponent beyond 10000"),
            ("1E+10_001", "an exponent beyond 10000"),
            ("3e1000000", "an exponent beyond 10000"),
            ("1e-٠٠٣٠٠٠٠", "an exponent beyond 10000"),
            ("1e-" + "9" * 4301, "a number of more than 4300 digits"),
            ("1e-" + "9" * 5000, "a number of more than 4300 digits"),
            # worth 10**-3, but int() cannot read its 4 301 digits
            ("1e-" + "0" * 4300 + "3", "a number of more than 4300 digits"),
            # a run of digits anywhere else is read by int() too
            ("1" + "0" * 4300, "a number of more than 4300 digits"),
            ("0." + "3" * 4301, "a number of more than 4300 digits"),
            ("1/" + "3" * 4301, "a number of more than 4300 digits"),
            ("1_" + "0" * 4300, "a number of more than 4300 digits"),
            ("-" + "9" * 5000 + ".5", "a number of more than 4300 digits"),
        ],
        ids=[
            "1e-10001", "1E+10_001", "3e1000000", "Arabic-Indic 30000",
            "4301-digit exponent", "5000-digit exponent", "4301 digits worth 3",
            "4301-digit integer", "4301-digit fraction", "4301-digit denominator",
            "4301 digits underscored", "5000-digit integer",
        ],
    )
    def test_parse_refuses_exponents_past_the_bound(self, monkeypatch, text, reason):
        # the refusal comes before any Fraction is built, and its message is true of the text
        def unreachable(text):
            raise AssertionError(f"built Fraction({text[:20]!r})")

        monkeypatch.setattr(cli, "Fraction", unreachable)
        with pytest.raises(ValueError, match=f"has {reason}$"):
            cli._stake(text)

    def test_digit_guard_is_linear_in_the_text(self):
        # 30 runs of 4 300 digits, 129 030 characters, near the longest single
        # argument Linux passes: 7 ms when the guard tries a match only where
        # a run starts, 1.8 s when it retries from every digit (2 shared vCPUs)
        text = ("1" * 4300 + ".") * 30
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^unparseable payoff: "):
            cli._stake(text)
        assert time.perf_counter() - start < 0.25

    def test_rank_game_headline_value(self):
        # +2 on a bump, -3 on a band: small positive edge
        dist = joint_distribution(RANK_GAME)
        ev = payoff_ev(dist, Fraction(-3), Fraction(2))
        assert Fraction(4, 100) < ev < Fraction(5, 100)

    def test_suit_game_headline_value(self):
        # +2 on a band, -3 on a bump: smaller positive edge
        dist = joint_distribution(SUIT_GAME)
        ev = payoff_ev(dist, Fraction(2), Fraction(-3))
        assert Fraction(25, 1000) < ev < Fraction(35, 1000)

    def test_zero_spec(self):
        dist = joint_distribution(GameParams(2, 3, 1, 2))
        assert payoff_ev(dist, Fraction(0), Fraction(0)) == 0

    def test_linearity(self):
        dist = joint_distribution(GameParams(2, 3, 1, 2))
        band, bump = Fraction(7, 3), Fraction(-11, 5)
        assert payoff_ev(dist, band * 6, bump * 6) == 6 * payoff_ev(dist, band, bump)
        other_band, other_bump = Fraction(1, 2), Fraction(9)
        combined = payoff_ev(dist, band + other_band, bump + other_bump)
        assert combined == payoff_ev(dist, band, bump) + payoff_ev(dist, other_band, other_bump)

    def test_marginal_recovery(self):
        # indicator payoffs read the marginals straight off
        dist = joint_distribution(SUIT_GAME)
        assert payoff_ev(dist, Fraction(1), Fraction(0)) == moments(dist).band.marginal


class TestLogConcavity:
    def test_smooth_hump(self):
        assert log_concavity([1, 2, 3, 2, 1]) == ()

    def test_support_gap(self):
        assert log_concavity([1, 0, 1]) == (1,)

    def test_wide_gap_reports_every_hole(self):
        assert log_concavity([1, 0, 0, 1]) == (1, 2)

    def test_inequality_violation(self):
        # 1*4 > 1**2 at index 1
        assert log_concavity([1, 1, 4]) == (1,)

    def test_leading_trailing_zeros_are_fine(self):
        assert log_concavity([0, 0, 1, 2, 1, 0]) == ()

    def test_short_sequences(self):
        assert log_concavity([]) == ()
        assert log_concavity([5]) == ()
        assert log_concavity([Fraction(1, 3), Fraction(1, 7)]) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_concavity([1, -1, 1])

    def test_geometric_is_log_concave(self):
        seq = [Fraction(1, 2) ** i for i in range(10)]
        assert log_concavity(seq) == ()

    @given(
        data=st.data(),
        length=st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=80)
    def test_product_of_log_concave_is_log_concave(self, data, length):
        # a positive sequence is log-concave iff successive ratios are
        # non-increasing, so build two from sorted ratio lists and check the
        # elementwise product
        def build():
            ratios = [
                Fraction(
                    data.draw(st.integers(min_value=1, max_value=20)),
                    data.draw(st.integers(min_value=1, max_value=20)),
                )
                for _ in range(length - 1)
            ]
            ratios.sort(reverse=True)
            seq = [Fraction(1)]
            for r in ratios:
                seq.append(seq[-1] * r)
            return seq

        a = build()
        b = build()
        assert log_concavity(a) == ()
        assert log_concavity(b) == ()
        assert log_concavity([x * y for x, y in zip(a, b)]) == ()

    def test_band_sequence_of_suit_game(self):
        dist = joint_distribution(SUIT_GAME)
        seq = [Fraction(p, dist.denominator) for p in dist.band[20:30]]
        assert log_concavity(seq) == ()

    def test_bump_sequence_of_suit_game(self):
        dist = joint_distribution(SUIT_GAME)
        seq = [Fraction(p, dist.denominator) for p in dist.bump[9:30]]
        assert log_concavity(seq) == ()


class TestScans:
    def test_nonvacuity_small_grid(self):
        report = nonvacuity_scan((2, 4), (2, 6))
        assert report.findings == ()
        # number of general-case cells: sum over s of C(s-1, 2) pairs per m
        expected_cells = 3 * sum((s - 1) * (s - 2) // 2 for s in range(2, 7))
        assert report.cells == expected_cells
        assert report.checks > report.cells

    def test_nonvacuity_default_grid(self):
        report = nonvacuity_scan((2, 8), (2, 8))
        assert report.cells == 392
        assert report.checks == 42728
        assert report.findings == ()

    def test_nonvacuity_grid_to_twelve(self):
        report = nonvacuity_scan((2, 12), (2, 12))
        assert report.cells == 2420
        assert report.checks == 1225730
        assert report.findings == ()

    def test_nonvacuity_rank_game_cell(self):
        report = nonvacuity_scan((13, 13), (4, 4))
        assert report.findings == ()
        assert report.cells == 3  # (l,u) in {(1,2), (1,3), (2,3)}

    def test_band_logconcavity_small_grid(self):
        cells, violations = band_logconcavity_violations((2, 4), (2, 6))
        assert violations == []
        assert cells == 3 * sum((s - 1) * (s - 2) // 2 for s in range(2, 7))

    def test_bump_logconcavity_small_grid(self):
        report = bump_logconcavity_scan((2, 4), (2, 6))
        assert report.findings == ()

    def test_scan_keeps_no_law(self, monkeypatch):
        laws = []

        def recording(params):
            dist = joint_distribution(params)
            laws.append(weakref.ref(dist))
            return dist

        monkeypatch.setattr(analysis, "joint_distribution", recording)
        report = bump_logconcavity_scan((2, 6), (2, 6))
        gc.collect()
        assert len(laws) == report.cells
        assert all(law() is None for law in laws)

    def test_empty_grid(self):
        report = nonvacuity_scan((3, 2), (2, 2))
        assert report.findings == ()
        assert report.cells == 0
        assert report.checks == 0


def _chain_powers(poly: list[int], top: int) -> list[list[int]]:
    """poly**0 .. poly**top, each by one more truncated product, never truncated."""
    powers = [[1]]
    for e in range(1, top + 1):
        powers.append(truncated_product(powers[-1], poly, e * (len(poly) - 1)))
    return powers


def test_summand_support_is_one_interval():
    # The lemma the non-vacuity scan reads its signs from: with A, B one
    # rank's polynomials over [0, l - 1] and [l, u - 1], [z**j] A**a * B**b
    # is positive exactly for b*l <= j <= a*(l-1) + b*(u-1).  Its counts come
    # from chains of truncated products, not from the engine's power.  The
    # grid takes every exponent pair a, b <= 7, so every summand of the
    # default m, s <= 8 scan (a + b = m - k <= 7): 56 windows by 64 pairs in
    # about 0.05 s (CPython 3.11, one Xeon vCPU).
    windows = 0
    for s in range(3, 9):
        for l in range(1, s):
            for u in range(l + 1, s):
                windows += 1
                below = _chain_powers(window_poly(s, 0, l - 1), 7)
                interior = _chain_powers(window_poly(s, l, u - 1), 7)
                for a in range(8):
                    for b in range(8):
                        count = truncated_product(below[a], interior[b], a * (l - 1) + b * (u - 1))
                        for j in range(-1, len(count) + 2):
                            positive = 0 <= j < len(count) and count[j] > 0
                            assert positive == (b * l <= j <= a * (l - 1) + b * (u - 1)), (s, l, u, a, b, j)
    assert windows == 56


def widen_kpp_window(monkeypatch):
    """Make analysis._kpp_window start one k'' below every window that starts above 0."""
    real = analysis._kpp_window

    def widened(params, n, k):
        lo, hi = real(params, n, k)
        return (lo - 1, hi) if lo > 0 else (lo, hi)

    monkeypatch.setattr(analysis, "_kpp_window", widened)
    return real


class TestNonvacuityMutants:
    """Index ranges that claim too much must surface as scan findings."""

    def test_widened_kpp_window_reports_every_extra_summand(self, monkeypatch):
        real = widen_kpp_window(monkeypatch)
        report = nonvacuity_scan((2, 4), (2, 6))
        assert report.findings != ()
        assert len(report.findings) == 140
        for f in report.findings:
            assert f.note == "non-positive summand"
            p = GameParams(f.m, f.s, f.l, f.u)
            assert f.kpp == real(p, f.n, f.k)[0] - 1, f

    def test_raised_kpp_ceiling_reports_every_extra_summand(self, monkeypatch):
        # the top of the k'' window: one more interior rank, wherever the
        # window does not already reach m - k
        real = analysis._kpp_window

        def raised(params, n, k):
            lo, hi = real(params, n, k)
            return (lo, hi + 1) if hi < params.m - k else (lo, hi)

        monkeypatch.setattr(analysis, "_kpp_window", raised)
        report = nonvacuity_scan((2, 4), (2, 6))
        assert (report.cells, report.checks, len(report.findings)) == (60, 1320, 350)
        for f in report.findings:
            assert f.note == "non-positive summand"
            assert f.kpp == real(GameParams(f.m, f.s, f.l, f.u), f.n, f.k)[1] + 1, f

    def test_kpp_outside_the_binomial_is_a_finding(self, monkeypatch):
        # C(m - k, k'') = 0 outside 0 <= k'' <= m - k, whatever the supports
        # of A and B admit: k'' = -1 and k'' = m - k + 1 are findings at every
        # (cell, n, k), each of which the scan checks m - k + 4 times
        monkeypatch.setattr(analysis, "_kpp_window", lambda params, n, k: (-1, params.m - k + 1))
        report = nonvacuity_scan((2, 4), (2, 6))
        outside = Counter((f.m, f.s, f.l, f.u, f.n, f.k) for f in report.findings if not 0 <= f.kpp <= f.m - f.k)
        assert set(outside.values()) == {2}
        assert report.checks == sum(m - k + 4 for m, _, _, _, _, k in outside)

    def test_empty_kpp_window_is_a_finding(self, monkeypatch):
        real = analysis._kpp_window
        broken = (GameParams(3, 5, 1, 3), 5, 1)

        def emptied(params, n, k):
            return (1, 0) if (params, n, k) == broken else real(params, n, k)

        monkeypatch.setattr(analysis, "_kpp_window", emptied)
        report = nonvacuity_scan((2, 4), (2, 6))
        assert report.findings == (Finding(3, 5, 1, 3, 5, 1, None, "empty interior-rank window"),)

    def test_consistency_error_is_never_swallowed(self, monkeypatch):
        # ConsistencyError means the engine is wrong; the scan must not turn
        # it into a finding.
        real = analysis._kpp_window

        def raising(params, n, k):
            if (params, n, k) == (GameParams(3, 5, 1, 3), 5, 1):
                raise ConsistencyError("forced")
            return real(params, n, k)

        monkeypatch.setattr(analysis, "_kpp_window", raising)
        with pytest.raises(ConsistencyError, match="forced"):
            nonvacuity_scan((2, 4), (2, 6))

    def test_empty_k_range_is_a_finding(self, monkeypatch):
        monkeypatch.setattr(analysis, "bump_k_range", lambda params, n: (1, 0))
        report = nonvacuity_scan((2, 2), (3, 3))
        # the one cell (2, 3, 1, 2) has bump support n = 3 only
        assert report.findings == (Finding(2, 3, 1, 2, 3, None, None, "empty capped-rank range"),)

    def test_cli_scan_exits_one_on_findings(self, monkeypatch):
        widen_kpp_window(monkeypatch)
        result = CliRunner().invoke(cli.main, ["scan", "nonvacuity", "--m-max", "4", "--s-max", "6"])
        assert result.exit_code == 1
        summary, _, rest = result.output.partition("\n")
        assert summary == "nonvacuity: 60 parameter cells, 1050 checks, 140 counterexamples"
        assert json.loads(rest)["ok"] is False
