import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reference import HypergeomSpec, Rectangle, binomial, point_prob, rect_count, rect_prob


def subset_tallies(dim: int, draws: int, rank_size: int) -> Counter:
    """Brute-force oracle: walk every draws-subset of a labeled deck and count
    the subsets per tally vector."""
    deck = [r for r in range(dim) for _ in range(rank_size)]
    tallies: Counter = Counter()
    for combo in itertools.combinations(range(len(deck)), draws):
        tally = [0] * dim
        for pos in combo:
            tally[deck[pos]] += 1
        tallies[tuple(tally)] += 1
    return tallies


def enumerate_count(tallies: Counter, rect: Rectangle) -> int:
    """Subsets whose tally vector lands inside rect."""
    return sum(
        count
        for tally, count in tallies.items()
        if all(lo <= x <= hi for lo, x, hi in zip(rect.lo, tally, rect.hi))
    )


class TestRectangle:
    def test_cube(self):
        r = Rectangle.cube(3, 1, 2)
        assert r.lo == (1, 1, 1)
        assert r.hi == (2, 2, 2)
        assert r.dim == 3

    def test_zero_dim(self):
        assert Rectangle((), ()).dim == 0
        assert Rectangle.cube(0, 5, 7).dim == 0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Rectangle((2,), (1,))
        with pytest.raises(ValueError):
            Rectangle((-1,), (1,))
        with pytest.raises(ValueError):
            Rectangle((0, 0), (1,))


class TestSpecValidation:
    def test_fields(self):
        spec = HypergeomSpec(4, 7, 3)
        assert spec.total == 12

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            HypergeomSpec(-1, 0, 2)
        with pytest.raises(ValueError):
            HypergeomSpec(2, -1, 2)
        with pytest.raises(ValueError):
            HypergeomSpec(2, 0, 0)

    def test_draws_beyond_deck_allowed_but_empty(self):
        spec = HypergeomSpec(2, 5, 2)
        assert rect_count(spec, Rectangle.cube(2, 0, 2)) == 0
        assert rect_prob(spec, Rectangle.cube(2, 0, 2)) == 0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rect_count(HypergeomSpec(2, 1, 2), Rectangle.cube(3, 0, 2))
        with pytest.raises(ValueError):
            rect_prob(HypergeomSpec(2, 1, 2), Rectangle.cube(3, 0, 2))
        with pytest.raises(ValueError):
            rect_prob(HypergeomSpec(2, 9, 2), Rectangle.cube(3, 0, 2))  # draws beyond the deck


class TestRectCount:
    def test_pinned_examples(self):
        assert rect_count(HypergeomSpec(2, 2, 2), Rectangle.cube(2, 1, 1)) == 4
        assert rect_count(HypergeomSpec(3, 0, 2), Rectangle.cube(3, 0, 2)) == 1

    def test_zero_dim_convention(self):
        assert rect_count(HypergeomSpec(0, 0, 3), Rectangle.cube(0, 0, 0)) == 1
        assert rect_count(HypergeomSpec(0, 1, 3), Rectangle.cube(0, 0, 0)) == 0

    def test_unreachable_draw_counts(self):
        # draws under the rectangle floor or over its ceiling
        assert rect_count(HypergeomSpec(2, 1, 3), Rectangle.cube(2, 1, 2)) == 0
        assert rect_count(HypergeomSpec(2, 5, 3), Rectangle.cube(2, 0, 1)) == 0

    def test_bounds_above_rank_size_are_harmless(self):
        spec = HypergeomSpec(2, 3, 2)
        wide = Rectangle.cube(2, 0, 99)
        tight = Rectangle.cube(2, 0, 2)
        assert rect_count(spec, wide) == rect_count(spec, tight) == binomial(4, 3)

    def test_full_rectangle_counts_all_deals(self):
        for dim in range(0, 4):
            for rank_size in range(1, 5):
                spec_total = dim * rank_size
                for draws in range(0, spec_total + 1):
                    spec = HypergeomSpec(dim, draws, rank_size)
                    full = Rectangle.cube(dim, 0, rank_size)
                    assert rect_count(spec, full) == binomial(spec_total, draws)

    def test_matches_enumeration(self):
        # independent subset-walk oracle on every rectangle of a small grid;
        # the subsets are walked once per (dim, rank_size, draws)
        checks = 0
        for dim in range(1, 4):
            for rank_size in range(1, 5):
                bounds = [
                    (lo, hi)
                    for lo in range(0, rank_size + 1)
                    for hi in range(lo, rank_size + 1)
                ]
                for draws in range(0, dim * rank_size + 1):
                    spec = HypergeomSpec(dim, draws, rank_size)
                    tallies = subset_tallies(dim, draws, rank_size)
                    for rect_bounds in itertools.product(bounds, repeat=dim):
                        rect = Rectangle(
                            tuple(b[0] for b in rect_bounds), tuple(b[1] for b in rect_bounds)
                        )
                        assert rect_count(spec, rect) == enumerate_count(tallies, rect), (
                            dim, rank_size, rect, draws,
                        )
                        checks += 1
        assert checks == 58566

    @given(
        dim=st.integers(min_value=1, max_value=4),
        rank_size=st.integers(min_value=1, max_value=5),
        draws=st.integers(min_value=0, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_coordinate_permutation_symmetry(self, dim, rank_size, draws, data):
        bounds = [
            (
                data.draw(st.integers(min_value=0, max_value=rank_size)),
                data.draw(st.integers(min_value=0, max_value=rank_size)),
            )
            for _ in range(dim)
        ]
        bounds = [(min(a, b), max(a, b)) for a, b in bounds]
        spec = HypergeomSpec(dim, draws, rank_size)
        rect = Rectangle(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))
        base = rect_count(spec, rect)
        perm = data.draw(st.permutations(range(dim)))
        shuffled = Rectangle(
            tuple(bounds[j][0] for j in perm), tuple(bounds[j][1] for j in perm)
        )
        assert rect_count(spec, shuffled) == base


class TestRectProb:
    def test_pinned_examples(self):
        assert rect_prob(HypergeomSpec(2, 2, 2), Rectangle.cube(2, 1, 1)) == Fraction(2, 3)
        assert rect_prob(HypergeomSpec(1, 1, 3), Rectangle((1,), (2,))) == 1

    def test_zero_dim_convention(self):
        assert rect_prob(HypergeomSpec(0, 0, 3), Rectangle((), ())) == 1
        assert rect_prob(HypergeomSpec(0, 2, 3), Rectangle((), ())) == 0

    def test_normalization(self):
        # single-point rectangles partition the deal space
        for dim in range(1, 5):
            for rank_size in range(1, 7):
                for draws in range(0, dim * rank_size + 1):
                    spec = HypergeomSpec(dim, draws, rank_size)
                    total = Fraction(0)
                    for point in itertools.product(range(rank_size + 1), repeat=dim):
                        if sum(point) != draws:
                            continue
                        total += rect_prob(spec, Rectangle(point, point))
                    assert total == 1, (dim, rank_size, draws)

    def test_monotone_in_rectangle(self):
        spec = HypergeomSpec(3, 6, 4)
        inner = Rectangle.cube(3, 1, 2)
        outer = Rectangle.cube(3, 0, 3)
        assert rect_prob(spec, inner) <= rect_prob(spec, outer)

    def test_log_concavity_in_draws(self):
        # For fixed cube bounds the map draws -> probability of the cube has
        # no interior support holes and satisfies p[n]^2 >= p[n-1] * p[n+1].
        for dim in range(1, 6):
            for rank_size in range(1, 7):
                for lo in (0, 1, 2):
                    if lo > rank_size:
                        continue
                    for hi in range(lo, rank_size + 1):
                        box = Rectangle.cube(dim, lo, hi)
                        seq = [
                            rect_prob(HypergeomSpec(dim, draws, rank_size), box)
                            for draws in range(0, dim * rank_size + 1)
                        ]
                        support = [i for i, v in enumerate(seq) if v > 0]
                        assert support, (dim, rank_size, lo, hi)
                        assert support == list(range(support[0], support[-1] + 1))
                        for i in range(1, len(seq) - 1):
                            assert seq[i] ** 2 >= seq[i - 1] * seq[i + 1], (
                                dim,
                                rank_size,
                                lo,
                                hi,
                                i,
                            )


class TestPointProb:
    def test_pinned_examples(self):
        assert point_prob(2, 3, 6, 1) == Fraction(3, 5)
        assert point_prob(3, 3, 6, 1) == Fraction(3, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            point_prob(1, 0, 0, 1)
        with pytest.raises(ValueError):
            point_prob(1, 3, 7, 1)  # t not a multiple of s
        with pytest.raises(ValueError):
            point_prob(1, 3, 6, 0)
        with pytest.raises(ValueError):
            point_prob(0, 3, 6, 1)
        with pytest.raises(ValueError):
            point_prob(7, 3, 6, 1)

    def test_alternative_form_agrees(self):
        # C(s-1, l-1) C(t-s, n-l) / C(t-1, n-1) == C(n-1, l-1) C(t-n, s-l) / C(t-1, s-1)
        for m in range(1, 7):
            for s in range(1, 9):
                t = m * s
                for l in range(1, s + 1):
                    for n in range(l, t + 1):
                        lhs = point_prob(n, s, t, l)
                        rhs = Fraction(
                            binomial(n - 1, l - 1) * binomial(t - n, s - l),
                            binomial(t - 1, s - 1),
                        )
                        assert lhs == rhs, (m, s, l, n)

    def test_sums_to_one_over_n(self):
        # Over n, these are the chances the l-th card of a designated rank
        # lands at position n, a complete set of disjoint events.
        for m in range(1, 6):
            for s in range(1, 7):
                t = m * s
                for l in range(1, s + 1):
                    total = sum(
                        (point_prob(n, s, t, l) * Fraction(s, t) for n in range(1, t + 1)),
                        Fraction(0),
                    )
                    assert total == 1, (m, s, l)

    def test_explicit_small_case(self):
        # m=3, s=4, l=2: the designated rank holds exactly 1 of the first
        # n-1 cards drawn from the other 11 (3 of that rank remain).
        for n in range(1, 13):
            want = Fraction(binomial(3, 1) * binomial(8, n - 2), binomial(11, n - 1))
            assert point_prob(n, 4, 12, 2) == want
