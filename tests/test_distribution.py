import builtins
import hashlib
import math
from fractions import Fraction

import pytest

from bandorbump import distribution
from bandorbump.analysis import bump_k_range, bump_kpp_range, moments
from bandorbump.distribution import (
    ConsistencyError,
    GameParams,
    JointDistribution,
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
        assert joint_distribution(p).first_n == p.n_max

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
    # Every law of TINY (t = 6, n_max = 3) is over lcm(1, ..., 6) = 60, in
    # columns of n_max + 1 = 4 draws.

    @pytest.mark.parametrize(
        "band, bump",
        [((0, 0, 30), (0, 0, 30)), ((0, 0, 30, 0, 0), (0, 0, 30, 0, 0)), ((0, 0, 30, 30), (0, 0, 0))],
    )
    def test_columns_must_hold_every_draw(self, band, bump):
        with pytest.raises(ValueError, match=r"must hold n_max \+ 1 = 4 entries"):
            JointDistribution(TINY, band, bump)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError, match="negative mass at n=1"):
            JointDistribution(TINY, (0, 61, 0, 0), (0, -1, 0, 0))

    def test_total_off_one_rejected(self):
        with pytest.raises(ConsistencyError, match="total mass is 1/2, not 1"):
            JointDistribution(TINY, (0, 0, 0, 30), (0, 0, 0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            JointDistribution(TINY, (), ())

    def test_every_law_is_over_the_lcm(self):
        # the denominator is derived from params, never stored: the l = 0,
        # generating-function and DP laws all report lcm(1, ..., t)
        params = GameParams(2, 3, 0, 2)
        assert joint_distribution(params) == JointDistribution(params, (0, 60), (0, 0))
        for law in (joint_distribution(params), joint_distribution(TINY), exhaustive_distribution(TINY)):
            assert law.denominator == math.lcm(*range(1, law.params.t + 1)) == 60
        law = joint_distribution(SUIT_GAME)
        assert law.denominator == SUIT_GAME.denominator == math.lcm(*range(1, 53))

    @pytest.mark.parametrize("end", ["zero", "last"])
    def test_end_row_without_mass_rejected(self, end):
        # TINY's law is band (0, 0, 36, 18) and bump (0, 0, 0, 6) over 60;
        # moving draw 2's band to draw 0, or draw 3's mass to draw 2, keeps
        # the total at 60.
        law = joint_distribution(TINY)
        band, bump = law.band, law.bump
        if end == "zero":
            band = (band[2], 0, 0, band[3])
        else:
            band, bump = (0, 0, band[2] + band[3], 0), (0, 0, bump[3], 0)
        with pytest.raises(ValueError, match="draw 0 must carry no mass and draw n_max some"):
            JointDistribution(TINY, band, bump)

    def test_mass_lookup_zero_fills(self):
        # The columns hold draws 0..n_max, draw 0 with no mass.
        dist = joint_distribution(TINY)
        assert (dist.band, dist.bump) == ((0, 0, 36, 18), (0, 0, 0, 6))
        assert dist.band[0] == 0

    @pytest.mark.parametrize("params", [RANK_GAME, SUIT_GAME])
    def test_rows_view_equals_the_masses(self, params):
        dist = joint_distribution(params)
        assert not any(dist.band[: dist.first_n] + dist.bump[: dist.first_n])
        d = dist.denominator
        assert dist.rows == tuple(
            (n, Fraction(dist.band[n], d), Fraction(dist.bump[n], d)) for n in range(dist.first_n, params.n_max + 1)
        )
        assert all(isinstance(x, Fraction) for _, *cells in dist.rows for x in cells)
        with pytest.raises(AttributeError):
            dist.rows = ()

    def test_columns_given_as_lists_are_stored_as_tuples(self):
        law = joint_distribution(GameParams(2, 3, 1, 2))
        from_lists = JointDistribution(law.params, list(law.band), list(law.bump))
        assert from_lists == law
        assert hash(from_lists) == hash(law)
        assert (type(from_lists.band), type(from_lists.bump)) == (tuple, tuple)

    def test_other_params_are_unequal(self):
        a = joint_distribution(GameParams(2, 2, 1, 1))
        b = joint_distribution(GameParams(2, 2, 1, 2))
        assert a != b


class TestBandGeneral:
    def test_tiny_game_band_values(self):
        dist = joint_distribution(TINY)
        assert dist.band[2] == Fraction(3, 5) * dist.denominator
        assert dist.band[3] == Fraction(3, 10) * dist.denominator
        assert dist.band[1] == 0
        assert len(dist.band) == 4  # no draw 4

    def test_tiny_game_band_marginal(self):
        assert moments(joint_distribution(TINY)).band.marginal == Fraction(9, 10)

    def test_band_factorization(self):
        # The paper's band form: the pinned-last-card chance times the
        # rectangle probability of the other m - 1 ranks in [l, u].  That
        # rectangle's count comes from a chain of truncated products, never
        # from the engine's power, and the form must give every band row,
        # the zeros before the first band included, and the band marginal.
        # (400, 4, 1, 3) takes about 0.4 s.
        for p in (SUIT_GAME, GameParams(52, 4, 1, 3), GameParams(8, 50, 20, 30), GameParams(400, 4, 1, 3)):
            dist = joint_distribution(p)
            others = Rectangle.cube(p.m - 1, p.l, p.u)
            marginal = Fraction(0)
            for n in range(p.l, p.n_max + 1):
                band = point_prob(n, p.s, p.t, p.l) * rect_prob(HypergeomSpec(p.m - 1, n - p.l, p.s), others)
                assert dist.band[n] == band * p.denominator, (p, n)
                marginal += band
            assert Fraction(sum(dist.band), p.denominator) == marginal, p

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
        assert dist.bump[3] == Fraction(1, 10) * dist.denominator
        assert dist.bump[2] == 0
        assert len(dist.bump) == 4  # no draw 4
        assert moments(dist).bump.marginal == Fraction(1, 10)

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
        assert len(sums) == len(dist.bump) and sums[0] == dist.bump[0] == 0
        for n in range(1, params.n_max + 1):
            scale, rem = divmod(params.denominator, n * math.comb(params.t, n))
            assert rem == 0
            assert dist.bump[n] == sums[n] * scale, (params, n)


class TestPublishedAnchors:
    """Frozen decimal anchors for the two featured parameter choices."""

    def test_suit_game_marginals(self):
        report = moments(joint_distribution(SUIT_GAME))
        assert to_decimal(report.band.marginal, 6) == "0.605984"
        assert to_decimal(report.bump.marginal, 6) == "0.394016"

    def test_rank_game_band_marginal(self):
        dist = joint_distribution(RANK_GAME)
        assert to_decimal((sum(dist.band), dist.denominator), 6) == "0.390753"

    def test_suit_game_spot_rows(self):
        dist = joint_distribution(SUIT_GAME)
        d = dist.denominator
        assert to_decimal((dist.bump[9], d), 6) == "0.000000777369"
        assert to_decimal((dist.band[20], d), 6) == "0.0217752"
        assert to_decimal((dist.bump[24], d), 6) == "0.0564823"
        assert to_decimal((dist.band[29], d), 6) == "0.00536205"
        assert to_decimal((dist.bump[29], d), 6) == "0.00893675"
        assert dist.band[19] == 0

    def test_suit_game_support(self):
        dist = joint_distribution(SUIT_GAME)
        assert dist.first_n == 9
        assert len(dist.band) == len(dist.bump) == 30
        assert dist.band[29] and dist.bump[29]


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
        assert len(dist.band) == 6 and dist.band[5]
        assert sum(dist.bump) == 0

    def test_equal_quota_span(self):
        dist = joint_distribution(GameParams(2, 3, 2, 2))
        assert dist.first_n == 3
        assert len(dist.band) == 5
        assert dist.band[4] > 0
        assert dist.bump[3] > 0

    def test_general_span_shows_both_columns(self):
        dist = joint_distribution(SUIT_GAME)
        assert dist.first_n == min(SUIT_GAME.m * SUIT_GAME.l, SUIT_GAME.u + 1)
        assert len(dist.band) == len(dist.bump) == SUIT_GAME.n_max + 1

    def test_single_rank_deck(self):
        # m = 1: the lone tally walks straight up; first hit decides
        dist = joint_distribution(GameParams(1, 5, 2, 3))
        assert dist.band[2] == dist.denominator
        assert sum(dist.bump) == 0


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
    """Every draw of a deck, including the zeros, equals its rectangle forms."""
    dist = joint_distribution(p)
    assert dist.first_n == min(p.m * p.l, p.u + 1)
    for n in range(p.n_max + 1):
        assert dist.band[n] == _band_by_rectangle(p, n) * p.denominator, (p, n)
        assert dist.bump[n] == _bump_by_summands(p, n) * p.denominator, (p, n)


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
                    assert dist.first_n == m * l
                    for n, band, bump in dist.rows:
                        assert (band, bump) == (coupon_band(p, n), 0), (p, n)
                for u in range(1, s):
                    p = GameParams(m, s, u, u)
                    dist = joint_distribution(p)
                    assert dist.first_n == min(u + 1, p.n_max)
                    for n, band, bump in dist.rows:
                        assert (band, bump) == equal_quota(p, n), (p, n)

    # The published decks, and the two benchmark ladder rungs of 104 cards.
    @pytest.mark.parametrize(
        "params", [RANK_GAME, SUIT_GAME, GameParams(26, 4, 1, 3), GameParams(8, 13, 5, 8)]
    )
    def test_published_decks_match_dynamic_programming(self, params):
        reference = exhaustive_distribution(params)
        assert joint_distribution(params) == reference

    def test_fifty_two_rank_deck_matches_dynamic_programming(self):
        p = GameParams(52, 4, 1, 3)
        assert joint_distribution(p) == exhaustive_distribution(p)

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
        # seconds per deck; the recurrence must give the same integers.  They
        # were hashed as (n, band, bump) triples from the first draw with mass.
        d = joint_distribution(params)
        triples = tuple((n, d.band[n], d.bump[n]) for n in range(d.first_n, params.n_max + 1))
        assert hashlib.sha256(repr(triples).encode()).hexdigest() == digest


def _product_chain(poly: list[int], e: int, degree: int) -> list[int]:
    """poly**e truncated at degree as e truncated products."""
    out = [1]
    for _ in range(e):
        out = truncated_product(out, poly, degree)
    return out


K = distribution._PACK_MAX  # the largest exponent raised by one packed integer power


class TestMillerPower:
    """``power``, packed up to K and by the recurrence above it, against repeated convolution."""

    def test_every_small_window_matches_the_product_chain(self):
        seen = {"shifted": 0, "zeroth": 0, "recurrence": 0}
        for s in range(0, 9):
            for lo in range(0, s + 1):
                for hi in range(lo, s + 1):
                    poly = window_poly(s, lo, hi)
                    for e in range(0, K + 3):  # both routes and the switch between them
                        assert distribution.power(poly, e) == _product_chain(poly, e, e * hi), (s, lo, hi, e)
                        # lo >= 1: both routes start from d[0] = C(s, lo), not 1
                        seen["shifted"] += lo >= 1 and math.comb(s, lo) != 1
                        seen["zeroth"] += e == 0  # the m = 1 decks
                        seen["recurrence"] += e > K
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "poly",
        [
            window_poly(20, 0, 20),
            window_poly(60, 10, 50),
            window_poly(150, 60, 90),
            window_poly(300, 120, 180),
            window_poly(300, 0, 3),
            [0, 0, 5],
            [2**64 - 1, 1, 2**64 - 1],
        ],
        ids=["20,0,20", "60,10,50", "150,60,90", "300,120,180", "300,0,3", "z^2*5", "wide-slots"],
    )
    def test_wide_windows_match_the_product_chain(self, poly):
        # coefficients of hundreds of digits fill slots of many bytes; [0, 0, 5]
        # starts at z**2, and the last puts a 1 between two coefficients that
        # fill eight bytes each
        for e in range(0, K + 2):
            assert distribution.power(poly, e) == _product_chain(poly, e, e * (len(poly) - 1)), e

    def test_zeroth_power_of_coefficients_past_one_byte(self):
        # d**0 = 1 needs one byte, but packing d itself needs slots that hold d
        for poly in ([300, 1], [0, 256, 2**70], [0, 0, 5]):
            assert distribution.power(poly, 0) == [1], poly

    @pytest.mark.parametrize("e", [2, K, K + 1])
    def test_degree_below_the_shift_gives_zeros(self, e):
        # poly**e starts at z**(low * e), so every coefficient below it is 0
        poly = [0, 0, 5, 1]
        out = distribution.power(poly, e)
        assert out[: 2 * e] == [0] * (2 * e)
        assert out[2 * e :] == _product_chain([5, 1], e, e)

    @pytest.mark.parametrize("e", [0, 1, 2, K, K + 1])
    def test_negative_coefficient_is_refused(self, e):
        # packing relies on every coefficient being at least 0; neither route takes one
        for poly in ([1, -1], [0, 3, 0, -2], [-4]):
            with pytest.raises(ValueError, match=r"has a negative coefficient$"):
                distribution.power(poly, e)

    def test_packs_up_to_k_and_recurs_above(self, monkeypatch):
        # K was measured (CHANGES.md); moving it must move this test too
        assert K == 8
        calls = []
        for name in ("_packed_power", "_miller_power"):
            real = getattr(distribution, name)
            monkeypatch.setattr(
                distribution, name, lambda d, e, name=name, real=real: calls.append(name) or real(d, e)
            )
        poly = window_poly(6, 1, 4)
        for e in range(0, K + 4):
            calls.clear()
            assert distribution.power(poly, e) == _product_chain(poly, e, 4 * e)
            expected = [] if e == 1 else ["_packed_power"] if e <= K else ["_miller_power"]
            assert calls == expected, e

    def test_a_slip_in_the_recurrence_leaves_a_remainder(self, monkeypatch):
        # every division is exact, so an off-by-one sum must raise, never round;
        # only exponents above K reach the recurrence
        monkeypatch.setattr(distribution, "sum", lambda terms: builtins.sum(terms) + 1, raising=False)
        with pytest.raises(ConsistencyError, match="Miller's recurrence leaves a remainder"):
            distribution.power(window_poly(4, 0, 3), K + 1)
        # (K + 2, 3, 1, 2) raises its powers to e = K + 1
        with pytest.raises(ConsistencyError, match="Miller's recurrence leaves a remainder"):
            joint_distribution(GameParams(K + 2, 3, 1, 2))

    def test_first_power_is_the_polynomial_itself(self, monkeypatch):
        # e = 1 runs neither route: with every sum refused (the recurrence's dot
        # products and the packed route's slot size), power still returns the
        # window
        def refuse(terms):
            raise AssertionError("power ran a route at e = 1")

        monkeypatch.setattr(distribution, "sum", refuse, raising=False)
        poly = window_poly(6, 1, 4)
        assert distribution.power(poly, 1) == poly
        assert distribution.power([0, 0, 3, 5], 1) == [0, 0, 3, 5]

    @pytest.mark.parametrize("e", [0, 1, 2, K, K + 1])
    def test_the_power_is_a_new_list(self, e):
        # callers may change the result in place (_corrupt_power does, and on
        # an m = 2 deck e = 1 would otherwise corrupt the window itself)
        poly = window_poly(6, 1, 4)
        out = distribution.power(poly, e)
        out[0] += 1
        out.append(7)
        assert poly == window_poly(6, 1, 4)

    @pytest.mark.parametrize("poly", [[], [0, 0]])
    def test_zero_polynomial_is_refused(self, poly):
        # it has no lowest nonzero coefficient to start the recurrence from,
        # and at e = 1 no polynomial to return
        for e in (2, 1):
            with pytest.raises(ValueError, match=rf"^power of the zero polynomial \{poly}$"):
                distribution.power(poly, e)


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

    def corrupted(poly, e):
        out = real(poly, e)
        if poly == base:
            out[degree] += delta
        return out

    monkeypatch.setattr(distribution, "power", corrupted)


class TestSurvivalCheck:
    """Mutants of the engine's polynomials must trip the survival checks."""

    def test_unmutated_engine_passes(self):
        dist = joint_distribution(SUIT_GAME)
        assert _gf_rows(SUIT_GAME) == (dist.band, dist.bump)

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

    @pytest.mark.parametrize("params", [TINY, RANK_GAME, SUIT_GAME])
    def test_corrupt_constant_term_is_caught(self, monkeypatch, params):
        # D's constant term C(s, 0) = 1 starts every survival count; a slip
        # there moves the count at draw 0 off 1, while the count after n_max
        # stays 0.
        _corrupt_window(monkeypatch, 0, params.u, 0)
        with pytest.raises(ConsistencyError, match=r"^survival counts \d+ before draw 1 and 0 after"):
            _gf_rows(params)

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
            for degree in range(len(distribution.power(base, p.m - 1))):
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


class TestAgainstExhaustiveOracle:
    def test_suit_game_partial_mass_is_consistent(self):
        # internal invariants; the exact DP proof of this deck is in
        # TestGeneratingFunctionRows
        dist = joint_distribution(SUIT_GAME)
        assert sum(dist.band) + sum(dist.bump) == dist.denominator
        assert all(band >= 0 and bump >= 0 for _, band, bump in dist.rows)
