"""Multivariate hypergeometric rectangle events, counted exactly.

Deal ``draws`` cards from a deck of ``dim * rank_size`` cards holding
``rank_size`` cards of each of ``dim`` ranks.  The per-rank tally vector is
multivariate hypergeometric, and the events of interest here are axis-aligned
rectangles: every coordinate j lands inside [lo_j, hi_j].

The number of deals landing in a rectangle is the coefficient of z**draws in
the product over coordinates of sum_{x=lo_j}^{hi_j} C(rank_size, x) * z**x.
That product is expanded once per rectangle shape with exact integer
convolution and cached, so every draw count reads its coefficient from the
same polynomial and no probability below ever touches floating point.  The same
two polynomial helpers, ``window_poly`` and ``truncated_product``, build the
generating-function powers of the stopping-law engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import binomial


@dataclass(frozen=True)
class HypergeomSpec:
    """Equal-group multivariate hypergeometric: dim ranks, rank_size cards each."""

    dim: int
    draws: int
    rank_size: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dim must be >= 0, got {self.dim}")
        if self.rank_size < 1:
            raise ValueError(f"rank_size must be >= 1, got {self.rank_size}")
        if self.draws < 0:
            raise ValueError(f"draws must be >= 0, got {self.draws}")

    @property
    def total(self) -> int:
        return self.dim * self.rank_size


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box of per-coordinate tally bounds, inclusive on both ends."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(f"bound lengths differ: {len(self.lo)} vs {len(self.hi)}")
        for j, (a, b) in enumerate(zip(self.lo, self.hi)):
            if a < 0 or a > b:
                raise ValueError(f"coordinate {j} has invalid bounds [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @classmethod
    def cube(cls, dim: int, lo: int, hi: int) -> Rectangle:
        """The same [lo, hi] bound on every one of dim coordinates."""
        return cls((lo,) * dim, (hi,) * dim)


def window_poly(rank_size: int, lo: int, hi: int) -> list[int]:
    """Counting polynomial of one rank's tally in [lo, hi]: sum C(rank_size, x) z**x.

    Coefficient lists are indexed by degree; the empty list is the zero
    polynomial, which is what a window emptied by the rank size becomes.
    """
    hi = min(hi, rank_size)
    if lo > hi:
        return []
    return [0] * lo + [binomial(rank_size, x) for x in range(lo, hi + 1)]


def truncated_product(p: list[int], q: list[int], degree: int) -> list[int]:
    """Coefficients of p * q up to and including z**degree."""
    if len(p) < len(q):
        p, q = q, p
    out = [0] * min(len(p) + len(q) - 1, degree + 1)
    for x, w in enumerate(q):
        if w:
            for d in range(min(len(p), len(out) - x)):
                out[x + d] += w * p[d]
    return out


@lru_cache(maxsize=None)
def _rect_poly(rank_size: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> tuple[int, ...]:
    poly = [1]
    for lo_j, hi_j in zip(lo, hi):
        poly = truncated_product(poly, window_poly(rank_size, lo_j, hi_j), rank_size * len(lo))
    return tuple(poly)


def rect_count(spec: HypergeomSpec, rect: Rectangle) -> int:
    """Number of deals whose tally vector lands inside rect.

    Returns 0 whenever draws is infeasible for the rectangle (including
    draws beyond the deck).  A zero-dimensional spec counts the single empty
    deal, so it contributes 1 when draws == 0 and 0 otherwise.
    """
    if rect.dim != spec.dim:
        raise ValueError(f"rectangle dim {rect.dim} != spec dim {spec.dim}")
    poly = _rect_poly(spec.rank_size, rect.lo, rect.hi)
    return poly[spec.draws] if spec.draws < len(poly) else 0


def rect_prob(spec: HypergeomSpec, rect: Rectangle) -> Fraction:
    """Exact probability of the rectangle event under the spec's deal."""
    count = rect_count(spec, rect)
    denom = binomial(spec.total, spec.draws)
    if denom == 0:
        return Fraction(0)
    return Fraction(count, denom)


def point_prob(n: int, s: int, t: int, l: int) -> Fraction:
    """Chance a designated rank supplies exactly l - 1 of the first n - 1 cards.

    The deck has t = m * s cards, s per rank, and one card of the designated
    rank is pinned as the nth deal; the remaining s - 1 cards of that rank are
    hypergeometric among the other n - 1 positions.  Equals
    C(s-1, l-1) * C(t-s, n-l) / C(t-1, n-1).
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if t < s or t % s != 0:
        raise ValueError(f"t must be a positive multiple of s, got t={t}, s={s}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if n < 1 or n > t:
        raise ValueError(f"n must be in [1, {t}], got {n}")
    return Fraction(binomial(s - 1, l - 1) * binomial(t - s, n - l), binomial(t - 1, n - 1))
