import builtins
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bandorbump import distribution
from bandorbump.analysis import bump_k_range, bump_kpp_range
from bandorbump.distribution import (
    ConsistencyError,
    GameParams,
    JointDistribution,
    Outcome,
    _gf_rows,
    joint_distribution,
)
from bandorbump.exactnum import to_decimal
from bandorbump.hypergeom import truncated_product, window_poly
from bandorbump.oracle import exhaustive_distribution
from reference import (
    HypergeomSpec,
    Rectangle,
    binomial,
    bump_by_capped_ranks,
    bump_summand,
    coupon_band,
    equal_quota,
    point_prob,
    rect_prob,
)

SUIT_GAME = GameParams(m=4, s=13, l=5, u=8)
RANK_GAME = GameParams(m=13, s=4, l=1, u=3)
TINY = GameParams(m=2, s=3, l=1, u=2)


class TestGameParams:
    def test_derived_quantities(self):
        assert SUIT_GAME.t == 52
        assert SUIT_GAME.n_max == 29
        assert TINY.t == 6
        assert TINY.n_max == 3
        # lcm(1, ..., t), the one denominator of every law of the deck
        assert SUIT_GAME.denominator == math.lcm(*range(1, 53)) == 3099044504245996706400
        assert TINY.denominator == 60

    @pytest.mark.parametrize("m, s, l, u", [(3, 3, 0, 2), (2, 2, 0, 0), (1, 2, 0, 0)])
    def test_zero_quota_stops_at_the_first_draw(self, m, s, l, u):
        # l = 0 meets every quota before the first card, which then stops play
        p = GameParams(m, s, l, u)
        assert p.n_max == 1
        assert joint_distribution(p).last_n == p.n_max

    @pytest.mark.parametrize(
        "m, s, l, u",
        [(0, 3, 1, 2), (2, 0, 0, 0), (2, 3, -1, 2), (2, 3, 2, 1), (2, 3, 1, 4)],
    )
    def test_rejects_bad_shapes(self, m, s, l, u):
        with pytest.raises(ValueError):
            GameParams(m, s, l, u)

    @pytest.mark.parametrize(
        "fields",
        [(True, 3, 1, 2), (2, 3.0, 1, 2), (2, 3, "1", 2), (2, 3, 1, False), (2, 3, 1, None)],
    )
    def test_rejects_non_int_fields(self, fields):
        with pytest.raises(TypeError):
            GameParams(*fields)

    @pytest.mark.parametrize(
        "params, general",
        [
            (GameParams(2, 3, 1, 2), True),
            (GameParams(2, 3, 0, 2), False),
            (GameParams(2, 3, 1, 3), False),
            (GameParams(2, 3, 2, 2), False),
            (GameParams(2, 3, 0, 0), False),
        ],
    )
    def test_is_general(self, params, general):
        # The bump sum's index ranges exist only in the paper's general case,
        # 0 < l < u < s; analysis refuses every other cell before any other check.
        if general:
            assert bump_k_range(params, params.u + 1) == (1, 1)
            with pytest.raises(ValueError, match="^n=2 outside bump support"):
                bump_kpp_range(params, params.u, 1)
            return
        with pytest.raises(ValueError, match="are a boundary configuration"):
            bump_k_range(params, params.u + 1)
        with pytest.raises(ValueError, match="are a boundary configuration"):
            bump_kpp_range(params, params.u, 1)


class TestJointDistributionContainer:
    # Every law of TINY (t = 6) is over lcm(1, ..., 6) = 60.

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="gap before n=3"):
            JointDistribution(TINY, ((1, 30, 0), (3, 30, 0)))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative mass at n=1"):
            JointDistribution(TINY, ((1, 61, -1),))

    def test_total_off_one_rejected(self):
        with pytest.raises(ConsistencyError, match="total mass is 1/2, not 1"):
            JointDistribution(TINY, ((1, 30, 0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(TINY, ())

    def test_every_law_is_over_the_lcm(self):
        # the denominator is derived from params, never stored: the l = 0,
        # generating-function and DP laws all report lcm(1, ..., t)
        params = GameParams(2, 3, 0, 2)
        assert joint_distribution(params) == JointDistribution(params, ((1, 60, 0),))
        for law in (joint_distribution(params), joint_distribution(TINY), exhaustive_distribution(TINY)):
            assert law.denominator == math.lcm(*range(1, law.params.t + 1)) == 60
        law = joint_distribution(SUIT_GAME)
        assert law.denominator == SUIT_GAME.denominator == math.lcm(*range(1, 53))

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_end_row_without_mass_rejected(self, end):
        dist = joint_distribution(TINY)
        rows = dist.numerators
        if end == "first":
            rows = ((dist.first_n - 1, 0, 0),) + rows
        else:
            rows = rows + ((dist.last_n + 1, 0, 0),)
        with pytest.raises(ValueError, match="the first and last rows must carry mass"):
            JointDistribution(TINY, rows)

    def test_mass_lookup_zero_fills(self):
        dist = joint_distribution(TINY)
        assert dist.band_mass(0) == 0
        assert dist.bump_mass(99) == 0
        assert dist.mass(2, Outcome.BAND) == dist.band_mass(2)
        assert dist.mass(3, Outcome.BUMP) == dist.bump_mass(3)

    @pytest.mark.parametrize("params", [RANK_GAME, SUIT_GAME])
    def test_rows_view_equals_the_masses(self, params):
        dist = joint_distribution(params)
        assert dist.rows == tuple(
            (n, dist.band_mass(n), dist.bump_mass(n)) for n in range(dist.first_n, dist.last_n + 1)
        )
        assert all(isinstance(x, Fraction) for _, *cells in dist.rows for x in cells)
        with pytest.raises(AttributeError):
            dist.rows = ()

    def test_other_params_are_unequal(self):
        a = joint_distribution(GameParams(2, 2, 1, 1))
        b = joint_distribution(GameParams(2, 2, 1, 2))
        assert a != b


class TestBandGeneral:
    def test_tiny_game_band_values(self):
        dist = joint_distribution(TINY)
        assert dist.band_mass(2) == Fraction(3, 5)
        assert dist.band_mass(3) == Fraction(3, 10)
        assert dist.band_mass(1) == 0
        assert dist.band_mass(4) == 0

    def test_tiny_game_band_marginal(self):
        assert joint_distribution(TINY).band_marginal == Fraction(9, 10)

    def test_band_factorization(self):
        # the closed form is the pinned-last-card chance times the rectangle
        # probability for the other tallies
        p = SUIT_GAME
        dist = joint_distribution(p)
        for n in range(p.m * p.l, p.n_max + 1):
            lead = point_prob(n, p.s, p.t, p.l)
            others = rect_prob(
                HypergeomSpec(p.m - 1, n - p.l, p.s),
                Rectangle.cube(p.m - 1, p.l, p.u),
            )
            assert dist.band_mass(n) == lead * others

    def test_lead_factor_identity(self):
        # the pinned-last-card chance rearranges into the product of a
        # falling-fraction factor and a binomial ratio; both must agree for
        # every admissible draw
        for m in range(1, 6):
            for s in range(2, 8):
                t = m * s
                for l in range(1, s + 1):
                    for n in range(l, t + 1):
                        direct = point_prob(n, s, t, l)
                        rearranged = Fraction(
                            m * (s + 1 - l) * binomial(s, l - 1) * binomial(t - s, n - l),
                            (t + 1 - n),
                        ) / binomial(t, n - 1)
                        assert direct == rearranged, (m, s, l, n)


class TestBumpIndexRanges:
    def test_suit_game_example(self):
        assert bump_kpp_range(SUIT_GAME, 29, 3) == (0, 0)

    def test_k_range_edges(self):
        # at the last possible draw every non-capped rank is pinned hard
        p = SUIT_GAME
        k_lo, k_hi = bump_k_range(p, p.u + 1)
        assert k_lo == 1
        assert k_hi == 1
        k_lo, k_hi = bump_k_range(p, p.n_max)
        assert k_lo == p.n_max - (p.l + (p.m - 1) * (p.u - 1))
        assert k_hi == (p.n_max - 1) // p.u

    def test_kpp_range_rejects_bad_n(self):
        with pytest.raises(ValueError):
            bump_kpp_range(SUIT_GAME, SUIT_GAME.u, 1)  # below bump support
        with pytest.raises(ValueError):
            bump_kpp_range(SUIT_GAME, SUIT_GAME.n_max + 1, 1)

    def test_kpp_range_rejects_bad_k(self):
        with pytest.raises(ValueError):
            bump_kpp_range(SUIT_GAME, 29, 0)
        with pytest.raises(ValueError):
            bump_kpp_range(SUIT_GAME, 9, 2)

    def test_windows_never_empty_on_support(self):
        for p in (TINY, RANK_GAME, SUIT_GAME, GameParams(3, 7, 2, 5)):
            for n in range(p.u + 1, p.n_max + 1):
                k_lo, k_hi = bump_k_range(p, n)
                assert k_lo == max(1, n - (p.l + (p.m - 1) * (p.u - 1))), (p, n)
                assert k_lo <= k_hi, (p, n)
                for k in range(k_lo, k_hi + 1):
                    kpp_lo, kpp_hi = bump_kpp_range(p, n, k)
                    n_k = n - 1 - k * p.u
                    raw = Fraction(n_k - (p.m - k) * (p.l - 1), p.u - p.l)
                    assert kpp_lo == max(0, math.ceil(raw)), (p, n, k)
                    assert 0 <= kpp_lo <= kpp_hi <= p.m - k - 1, (p, n, k)


class TestBumpGeneral:
    def test_tiny_game_bump_values(self):
        dist = joint_distribution(TINY)
        assert dist.bump_mass(3) == Fraction(1, 10)
        assert dist.bump_mass(2) == 0
        assert dist.bump_mass(4) == 0
        assert dist.bump_marginal == Fraction(1, 10)

    def test_summand_weight_consistency_check_runs(self):
        # one concrete term, recomputed here from scratch
        term = bump_summand(TINY, 3, 1, 0)
        assert term == Fraction(1, 10)

    def test_binomial_absorption_identity(self):
        # the reduced weight's denominator swap relies on
        # (t - n + 1) * C(t, n - 1) == n * C(t, n)
        for t in range(1, 60):
            for n in range(1, t + 1):
                assert (t - n + 1) * binomial(t, n - 1) == n * binomial(t, n)

    @pytest.mark.parametrize(
        "params", [GameParams(52, 4, 1, 3), GameParams(8, 50, 20, 30), GameParams(400, 4, 1, 3)]
    )
    def test_bump_rows_match_the_sum_over_capped_ranks(self, params):
        # The paper's k-sum, its powers by a chain of truncated products, up
        # to a deck no oracle reaches.  On (400, 4, 1, 3) the k-sum takes 0.42 s
        # and the engine 0.013 s (CPython 3.11, one Xeon vCPU).
        dist = joint_distribution(params)
        sums = bump_by_capped_ranks(params)
        assert len(sums) == dist.last_n + 1 and not any(sums[: dist.first_n])
        for n in range(dist.first_n, dist.last_n + 1):
            scale, rem = divmod(params.denominator, n * math.comb(params.t, n))
            assert rem == 0
            assert dist.numerator(n, Outcome.BUMP) == sums[n] * scale, (params, n)


class TestPublishedAnchors:
    """Frozen decimal anchors for the two featured parameter choices."""

    def test_suit_game_marginals(self):
        dist = joint_distribution(SUIT_GAME)
        assert to_decimal(dist.band_marginal, 6) == "0.605984"
        assert to_decimal(dist.bump_marginal, 6) == "0.394016"

    def test_rank_game_band_marginal(self):
        dist = joint_distribution(RANK_GAME)
        assert to_decimal(dist.band_marginal, 6) == "0.390753"

    def test_suit_game_spot_rows(self):
        dist = joint_distribution(SUIT_GAME)
        assert to_decimal(dist.bump_mass(9), 6) == "0.000000777369"
        assert to_decimal(dist.band_mass(20), 6) == "0.0217752"
        assert to_decimal(dist.bump_mass(24), 6) == "0.0564823"
        assert to_decimal(dist.band_mass(29), 6) == "0.00536205"
        assert to_decimal(dist.bump_mass(29), 6) == "0.00893675"
        assert dist.band_mass(19) == 0

    def test_suit_game_support(self):
        dist = joint_distribution(SUIT_GAME)
        assert dist.first_n == 9
        assert dist.last_n == 29


class TestCouponCase:
    def test_requires_u_equal_s(self):
        with pytest.raises(ValueError):
            coupon_band(TINY, 2)
        with pytest.raises(ValueError):
            coupon_band(GameParams(2, 3, 0, 3), 2)
        with pytest.raises(ValueError):
            coupon_band(GameParams(2, 3, 1, 3), 0)

    def test_increment_structure(self):
        p = GameParams(3, 2, 1, 2)
        box = Rectangle.cube(3, 1, 2)
        for n in range(p.m * p.l, p.n_max + 1):
            here = rect_prob(HypergeomSpec(3, n, 2), box)
            prev = rect_prob(HypergeomSpec(3, n - 1, 2), box)
            assert coupon_band(p, n) == here - prev

    def test_masses_sum_to_one(self):
        p = GameParams(3, 2, 1, 2)
        total = sum(
            (coupon_band(p, n) for n in range(1, p.n_max + 1)), Fraction(0)
        )
        assert total == 1


class TestEqualQuotaCase:
    def test_requires_interior_equal_window(self):
        with pytest.raises(ValueError):
            equal_quota(TINY, 2)
        with pytest.raises(ValueError):
            equal_quota(GameParams(2, 3, 0, 0), 1)
        with pytest.raises(ValueError):
            equal_quota(GameParams(2, 3, 2, 2), 0)

    def test_band_only_at_full_quota_draw(self):
        p = GameParams(2, 3, 2, 2)
        for n in range(1, p.n_max + 1):
            band, bump = equal_quota(p, n)
            if n < p.m * p.u:
                assert band == 0
            assert bump >= 0
        band, bump = equal_quota(p, p.m * p.u)
        assert band > 0

    def test_beyond_support_is_zero(self):
        assert equal_quota(GameParams(2, 3, 2, 2), 5) == (Fraction(0), Fraction(0))


class TestJointDispatch:
    def test_zero_window(self):
        dist = joint_distribution(GameParams(3, 4, 0, 0))
        assert dist.rows == ((1, Fraction(0), Fraction(1)),)

    def test_zero_quota_positive_cap(self):
        dist = joint_distribution(GameParams(3, 4, 0, 2))
        assert dist.rows == ((1, Fraction(1), Fraction(0)),)

    def test_coupon_span(self):
        dist = joint_distribution(GameParams(3, 2, 1, 2))
        assert dist.first_n == 3
        assert dist.last_n == 5
        assert dist.bump_marginal == 0

    def test_equal_quota_span(self):
        dist = joint_distribution(GameParams(2, 3, 2, 2))
        assert dist.first_n == 3
        assert dist.last_n == 4
        assert dist.band_mass(4) > 0
        assert dist.bump_mass(3) > 0

    def test_general_span_shows_both_columns(self):
        dist = joint_distribution(SUIT_GAME)
        assert dist.first_n == min(SUIT_GAME.m * SUIT_GAME.l, SUIT_GAME.u + 1)
        assert dist.last_n == SUIT_GAME.n_max

    def test_single_rank_deck(self):
        # m = 1: the lone tally walks straight up; first hit decides
        dist = joint_distribution(GameParams(1, 5, 2, 3))
        assert dist.band_mass(2) == 1
        assert dist.bump_marginal == 0


def _general_cells(m_max: int, s_max: int):
    for m in range(1, m_max + 1):
        for s in range(3, s_max + 1):
            for l in range(1, s):
                for u in range(l + 1, s):
                    yield GameParams(m, s, l, u)


def _band_by_rectangle(p: GameParams, n: int) -> Fraction:
    """Band mass as the pinned-last-card chance times a rectangle probability."""
    if n < p.m * p.l:
        return Fraction(0)
    others = rect_prob(
        HypergeomSpec(p.m - 1, n - p.l, p.s), Rectangle.cube(p.m - 1, p.l, p.u)
    )
    return point_prob(n, p.s, p.t, p.l) * others


def _bump_by_summands(p: GameParams, n: int) -> Fraction:
    """Bump mass as the sum of every admissible (k, k'') rectangle summand."""
    total = Fraction(0)
    if n < p.u + 1:
        return total
    k_lo, k_hi = bump_k_range(p, n)
    for k in range(k_lo, k_hi + 1):
        kpp_lo, kpp_hi = bump_kpp_range(p, n, k)
        for kpp in range(kpp_lo, kpp_hi + 1):
            total += bump_summand(p, n, k, kpp)
    return total


def _assert_rows_match_rectangle_forms(p: GameParams) -> None:
    """Every row of a deck, including the zeros, equals its rectangle forms."""
    dist = joint_distribution(p)
    assert (dist.first_n, dist.last_n) == (min(p.m * p.l, p.u + 1), p.n_max)
    for n, band, bump in dist.rows:
        assert band == _band_by_rectangle(p, n), (p, n)
        assert bump == _bump_by_summands(p, n), (p, n)


class TestGeneratingFunctionRows:
    """The polynomial-power rows against the per-configuration reference forms."""

    def test_general_cells_match_rectangle_forms(self):
        cells = 0
        for p in _general_cells(8, 8):
            _assert_rows_match_rectangle_forms(p)
            cells += 1
        assert cells == 448

    def test_boundary_cells_match_reference_routines(self):
        for m in range(1, 9):
            for s in range(1, 9):
                for l in range(1, s + 1):
                    p = GameParams(m, s, l, s)
                    dist = joint_distribution(p)
                    assert (dist.first_n, dist.last_n) == (m * l, p.n_max)
                    for n, band, bump in dist.rows:
                        assert (band, bump) == (coupon_band(p, n), 0), (p, n)
                for u in range(1, s):
                    p = GameParams(m, s, u, u)
                    dist = joint_distribution(p)
                    assert (dist.first_n, dist.last_n) == (min(u + 1, p.n_max), p.n_max)
                    for n, band, bump in dist.rows:
                        assert (band, bump) == equal_quota(p, n), (p, n)

    @pytest.mark.parametrize("params", [RANK_GAME, SUIT_GAME])
    def test_published_decks_match_dynamic_programming(self, params):
        reference = exhaustive_distribution(params, cap=52)
        assert joint_distribution(params) == reference

    def test_fifty_two_rank_deck_matches_dynamic_programming(self):
        p = GameParams(52, 4, 1, 3)
        assert joint_distribution(p) == exhaustive_distribution(p, cap=208)

    def test_fifty_two_rank_deck_solves_cold(self):
        _assert_rows_match_rectangle_forms(GameParams(52, 4, 1, 3))

    def test_fifty_card_rank_deck_matches_rectangle_forms(self):
        _assert_rows_match_rectangle_forms(GameParams(8, 50, 20, 30))

    @pytest.mark.parametrize(
        "params, digest",
        [
            (GameParams(400, 4, 1, 3), "c7f53c3f44ff45f59143d6a186081e3436da478f0afda76a3a5a428da3d04107"),
            (GameParams(100, 50, 20, 30), "ef5ea8c2a7cc660000364c2fd3eff190940d2447048643c5a6504d6853f86a33"),
            (GameParams(1000, 4, 1, 3), "ca4d67f2d8a64051f4d5af80205a096812067a080e5887c9da26d03048809101"),
        ],
    )
    def test_large_deck_numerators_are_pinned(self, params, digest):
        # No oracle reaches these decks.  The digests were computed once with
        # the engine of commit 751f3d7, which built every power as a chain of
        # truncated products and every row scale from math.comb, taking
        # seconds per deck; the recurrence must give the same integers.
        numerators = joint_distribution(params).numerators
        assert hashlib.sha256(repr(numerators).encode()).hexdigest() == digest


def _product_chain(poly: list[int], e: int, degree: int) -> list[int]:
    """poly**e truncated at degree as e truncated products."""
    out = [1]
    for _ in range(e):
        out = truncated_product(out, poly, degree)
    return out


class TestMillerPower:
    """``power`` by the recurrence against repeated convolution."""

    def test_every_small_window_matches_the_product_chain(self):
        seen = {"shifted": 0, "zeroth": 0, "below_full": 0, "all_truncated": 0}
        for s in range(0, 9):
            for lo in range(0, s + 1):
                for hi in range(lo, s + 1):
                    poly = window_poly(s, lo, hi)
                    for e in range(0, 8):
                        full = e * hi
                        for degree in range(0, full + 1):
                            assert distribution.power(poly, e, degree) == _product_chain(
                                poly, e, degree
                            ), (s, lo, hi, e, degree)
                            # lo >= 1: the recurrence starts from d[0] = C(s, lo), not 1
                            seen["shifted"] += lo >= 1 and math.comb(s, lo) != 1
                            seen["zeroth"] += e == 0  # the m = 1 decks
                            seen["below_full"] += degree < full
                            seen["all_truncated"] += degree < lo * e
        assert all(seen.values()), seen

    def test_a_slip_in_the_recurrence_leaves_a_remainder(self, monkeypatch):
        # every division is exact, so an off-by-one sum must raise, never round
        monkeypatch.setattr(distribution, "sum", lambda terms: builtins.sum(terms) + 1, raising=False)
        with pytest.raises(ConsistencyError, match="Miller's recurrence leaves a remainder"):
            distribution.power(window_poly(4, 0, 3), 3, 9)
        with pytest.raises(ConsistencyError, match="Miller's recurrence leaves a remainder"):
            joint_distribution(TINY)

    @pytest.mark.parametrize("poly", [[], [0, 0]])
    def test_zero_polynomial_is_refused(self, poly):
        # it has no lowest nonzero coefficient to start the recurrence from
        with pytest.raises(ValueError, match=rf"^power of the zero polynomial \{poly}$"):
            distribution.power(poly, 2, 5)


def _corrupt_window(monkeypatch, lo: int, hi: int, degree: int) -> None:
    """Add 1 to one coefficient of the engine's window polynomial over [lo, hi]."""
    real = distribution.window_poly

    def corrupted(rank_size, a, b):
        poly = real(rank_size, a, b)
        if (a, b) == (lo, hi):
            poly[degree] += 1
        return poly

    monkeypatch.setattr(distribution, "window_poly", corrupted)


def _corrupt_power(monkeypatch, base: list[int], degree: int, delta: int) -> None:
    """Add delta to one coefficient of the engine's power of the polynomial base."""
    real = distribution.power

    def corrupted(poly, e, top):
        out = real(poly, e, top)
        if poly == base:
            out[degree] += delta
        return out

    monkeypatch.setattr(distribution, "power", corrupted)


class TestSurvivalCheck:
    """Mutants of the engine's polynomials must trip the survival checks."""

    def test_unmutated_engine_passes(self):
        assert _gf_rows(SUIT_GAME) == joint_distribution(SUIT_GAME).numerators

    @pytest.mark.parametrize("params", [TINY, RANK_GAME, SUIT_GAME])
    def test_corrupt_bump_coefficient_is_caught(self, monkeypatch, params):
        # D**(m-1), over the window [0, u], feeds the bump rows; its
        # coefficient n_max - 1 - u is read by the last row's bump.  On TINY
        # every such corruption already moves the survival counts at n_max.
        p = params
        message = "survival counts" if p == TINY else "survival identity fails"
        _corrupt_power(monkeypatch, window_poly(p.s, 0, p.u), p.n_max - 1 - p.u, 1)
        with pytest.raises(ConsistencyError, match=message):
            _gf_rows(p)

    def test_corrupt_survival_counts_are_caught(self, monkeypatch):
        # a slip in the window [0, u] itself reaches D**(m-1) and D**m alike
        _corrupt_window(monkeypatch, 0, SUIT_GAME.u, SUIT_GAME.u)
        with pytest.raises(ConsistencyError, match="survival counts"):
            _gf_rows(SUIT_GAME)

    @pytest.mark.parametrize(
        "params", [TINY, RANK_GAME, SUIT_GAME, GameParams(3, 5, 2, 3), GameParams(5, 4, 2, 2)]
    )
    def test_every_unit_corruption_of_a_row_power_is_caught(self, monkeypatch, params):
        # C**(m-1) and D**(m-1) feed the band and bump rows and, one product
        # further, the survival counts; a +-1 slip in any coefficient must
        # raise or leave the rows as they are.
        p = params
        expected = _gf_rows(p)
        caught = 0
        for base in (window_poly(p.s, p.l, p.u), window_poly(p.s, 0, p.u)):
            for degree in range(len(distribution.power(base, p.m - 1, p.n_max))):
                for delta in (1, -1):
                    with monkeypatch.context() as mp:
                        _corrupt_power(mp, base, degree, delta)
                        try:
                            rows = _gf_rows(p)
                        except ConsistencyError:
                            caught += 1
                            continue
                    assert rows == expected, (p, base, degree, delta)
        assert caught > 0


@st.composite
def small_params(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    s = draw(st.integers(min_value=1, max_value=10 // m))
    # allow every corner: 0 <= l <= u <= s
    u = draw(st.integers(min_value=0, max_value=s))
    l = draw(st.integers(min_value=0, max_value=u))
    return GameParams(m, s, l, u)


class TestAgainstExhaustiveOracle:
    @given(params=small_params())
    @settings(max_examples=120, deadline=None)
    def test_matches_dynamic_programming(self, params):
        formula = joint_distribution(params)
        reference = exhaustive_distribution(params, cap=10)
        assert formula == reference, params

    def test_suit_game_partial_mass_is_consistent(self):
        # internal invariants; the exact DP proof of this deck is in
        # TestGeneratingFunctionRows
        dist = joint_distribution(SUIT_GAME)
        assert dist.band_marginal + dist.bump_marginal == 1
        assert all(band >= 0 and bump >= 0 for _, band, bump in dist.rows)
