"""The stopping law in the paper's own terms, for tests to compare against.

The paper states the law through rectangle events of central multivariate
hypergeometric tallies: deal ``draws`` cards from a deck of
``dim * rank_size`` cards holding ``rank_size`` cards of each of ``dim``
ranks, and ask that every coordinate j of the tally vector land inside
[lo_j, hi_j].  The number of such deals is the coefficient of z**draws in the
product over coordinates of sum_{x=lo_j}^{hi_j} C(rank_size, x) * z**x,
expanded once per rectangle shape with exact integer convolution and cached.

On top of those counts sit the per-configuration bump summand, its l = 1
form over compositions, the pinned last-card chance, and the two boundary
cases u = s (no bump) and l = u (a band only at the last possible draw).
The paper's sum over the number k of capped ranks gives every bump row of a
deck at once, from powers built as chains of truncated products, so it
reaches decks far beyond the rectangle forms.  The engine in ``bandorbump``
builds every row from generating-function powers by a recurrence instead;
the tests hold its rows equal to these forms.

For the DP oracle, ``prefix_walk`` finds the whole law of a small deck by
following every ordered deal until it stops.

Then comes the paper's band theorem: on every general cell the band mass
sequence is log-concave.

Last comes the ``dist`` table built whole, as one JSON document and as one
CSV string, for the streamed output to be held to byte for byte.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from bandorbump.analysis import MomentsReport, _general_grid, log_concavity
from bandorbump.cli import _cell, _dist_rows, _json_value, _rat
from bandorbump.distribution import GameParams, JointDistribution, joint_distribution
from bandorbump.exactnum import sqrt_decimal
from bandorbump.hypergeom import truncated_product, window_poly


def binomial(a: int, b: int) -> int:
    """C(a, b) as an exact integer; 0 when b < 0 or b > a; a < 0 is an error.

    The forms below sum over index ranges that may reach past either end of
    a row of Pascal's triangle, and rely on those terms being 0.
    """
    if a < 0:
        raise ValueError(f"binomial requires a >= 0, got a={a}")
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def multinomial(n: int, parts: list[int] | tuple[int, ...]) -> int:
    """n! / (parts[0]! * parts[1]! * ...) for non-negative parts summing to n."""
    if n < 0:
        raise ValueError(f"multinomial requires n >= 0, got {n}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {list(parts)}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {list(parts)} do not sum to {n}")
    out = 1
    remaining = n
    for p in parts:
        out *= binomial(remaining, p)
        remaining -= p
    return out


# ==================== rectangle events ====================


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


# ==================== the law, term by term ====================


def bump_summand(params: GameParams, n: int, k: int, kpp: int) -> Fraction:
    """One (k, k'') term of the bump mass at draw n.

    k ranks sit at the cap u after n - 1 deals, k'' sit strictly inside
    [l, u - 1], the remaining k' = m - k - kpp sit below l, and the nth card
    pushes one capped rank over.  The weight is the multinomial arrangement
    of the three groups over (t - n + 1) * C(t, n - 1).
    """
    m, s, l, u, t = params.m, params.s, params.l, params.u, params.t
    kp = m - k - kpp
    n_k = n - 1 - k * u
    rect = Rectangle((0,) * kp + (l,) * kpp, (l - 1,) * kp + (u - 1,) * kpp)
    count = rect_count(HypergeomSpec(m - k, n_k, s), rect)
    weight = Fraction(multinomial(m, (k, kp, kpp)) * k * (s - u), t - n + 1) / binomial(t, n - 1)
    return weight * binomial(s, u) ** k * count


def _compositions(total: int, parts: int, lo: int, hi: int):
    """All (x_1..x_parts) with lo <= x_i <= hi summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for x in range(lo, min(hi, total) + 1):
        for rest in _compositions(total - x, parts - 1, lo, hi):
            yield (x,) + rest


def quota_one_bump(params: GameParams, n: int) -> Fraction:
    """Bump mass at draw n for 1 = l < u < s, summed over compositions.

    With a quota of one card a rank below quota holds none, so the rectangle
    of ``bump_summand`` splits: k ranks at the cap u, k'' ranks holding 1 to
    u - 1 cards each, and the rest empty.  The k'' ranks' count is a sum over
    the compositions of the n - 1 - k*u cards left into k'' such parts.  The
    index bounds are derived here, not taken from ``bump_k_range`` or
    ``bump_kpp_range``: the k'' ranks hold at most u - 1 cards each and at
    least one rank stays empty, or play would have stopped on a band.
    """
    m, s, l, u, t = params.m, params.s, params.l, params.u, params.t
    if not (1 == l < u < s):
        raise ValueError(f"quota_one_bump needs 1 = l < u < s, got {params}")
    total = Fraction(0)
    for k in range(max(1, n - 1 - (m - 1) * (u - 1)), (n - 1) // u + 1):
        n_k = n - 1 - k * u
        for kpp in range(-(-n_k // (u - 1)), min(n_k, m - 1 - k) + 1):
            count = binomial(s, u) ** k * sum(
                math.prod(binomial(s, x) for x in comp) for comp in _compositions(n_k, kpp, 1, u - 1)
            )
            weight = Fraction(binomial(m, k) * binomial(m - k, kpp) * k * (s - u), n) / binomial(t, n)
            total += weight * count
    return total


def bump_by_capped_ranks(params: GameParams) -> list[int]:
    """Bump numerators over n * C(t, n) at every draw n <= n_max, as the paper's sum over k.

    k ranks sit at the cap u after n - 1 cards, and the other m - k are all
    below u but not all inside [l, u - 1]:

        (s-u) * sum_k C(m, k) * k * C(s, u)**k
                * [z**(n-1-k*u)] ((A + B)**(m-k) - B**(m-k))

    with A and B one rank's polynomials over [0, l - 1] and [l, u - 1], so
    A + B is the one over [0, u - 1].  The powers are a chain of truncated
    products, so this sum shares neither the engine's recurrence nor its
    collapse to D**(m-1) - C**(m-1).  Needs l >= 1.
    """
    m, s, l, u = params.m, params.s, params.l, params.u
    top = params.n_max
    degree = top - 1 - u  # largest [z**j] read, at n = n_max and k = 1
    below_cap, interior = window_poly(s, 0, u - 1), window_poly(s, l, u - 1)  # A + B, B
    out = [0] * (top + 1)
    below_cap_power, interior_power = [1], [1]  # (A + B)**e and B**e for e = m - k
    for k in range(m, 0, -1):
        weight = (s - u) * math.comb(m, k) * k * math.comb(s, u) ** k
        for poly, sign in ((below_cap_power, 1), (interior_power, -1)):
            for j, c in enumerate(poly[: max(top - k * u, 0)]):
                out[j + 1 + k * u] += sign * weight * c
        below_cap_power = truncated_product(below_cap_power, below_cap, degree)
        interior_power = truncated_product(interior_power, interior, degree)
    return out


def coupon_band(params: GameParams, n: int) -> Fraction:
    """P[stop at draw n], u = s case: a bump is impossible.

    With the cap at s every tally stays inside [0, s], so the deal is a pure
    collection race ending when the last rank reaches l.  The stopping mass
    is the increment of P[every tally >= l after n cards].
    """
    if params.u != params.s or params.l < 1:
        raise ValueError(f"coupon_band needs 0 < l <= u = s, got {params}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    box = Rectangle.cube(params.m, params.l, params.s)
    here = rect_prob(HypergeomSpec(params.m, n, params.s), box)
    prev = rect_prob(HypergeomSpec(params.m, n - 1, params.s), box)
    return here - prev


def equal_quota(params: GameParams, n: int) -> tuple[Fraction, Fraction]:
    """(band mass, bump mass) at draw n for the 0 < l = u < s case.

    A band needs every tally to equal u simultaneously, which can only
    happen when the deck is dealt out to exactly n = m * u cards with no rank
    ever passing u; any earlier stop is a bump.  The bump mass at n is the
    decrement of P[no tally has passed u after n cards].
    """
    if not (0 < params.l == params.u < params.s):
        raise ValueError(f"equal_quota needs 0 < l = u < s, got {params}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    last = params.m * params.u
    if n > last:
        return Fraction(0), Fraction(0)
    box = Rectangle.cube(params.m, 0, params.u)
    here = rect_prob(HypergeomSpec(params.m, n, params.s), box)
    prev = rect_prob(HypergeomSpec(params.m, n - 1, params.s), box)
    band = here if n == last else Fraction(0)
    return band, prev - here


# ==================== the law, deal by deal ====================


def prefix_walk(params: GameParams) -> tuple[list[Fraction], list[Fraction]]:
    """The band and bump columns, P[N = n, band] and P[N = n, bump] for n = 0..n_max, by walking every ordered deal.

    Each sequence of ranks is followed card by card until it stops: a card
    that lifts its rank's tally past u is a bump, and one after which every
    tally is at least l is a band.  The sequence weighs the exact product of
    its draw probabilities, (cards of that rank left) / (cards left) at each
    draw.  The walk keeps one tally per rank, so it shares neither the
    histogram state of ``oracle.exhaustive_distribution`` nor the engine's
    generating functions.  Its cost is the number of stopping sequences, so
    it suits small decks only.
    """
    m, s, l, u, t = params.m, params.s, params.l, params.u, params.t
    tallies = [0] * m
    # entry n: the sum of the products of cards left over the sequences that
    # stop at draw n, each of which weighs that product / (t (t - 1) ... (t - n + 1))
    band, bump = [0] * (params.n_max + 1), [0] * (params.n_max + 1)

    def walk(dealt: int, weight: int) -> None:
        for rank in range(m):
            left = s - tallies[rank]
            if not left:
                continue
            tallies[rank] += 1
            column = bump if tallies[rank] > u else band if min(tallies) >= l else None
            if column is None:
                walk(dealt + 1, weight * left)
            else:
                column[dealt + 1] += weight * left
            tallies[rank] -= 1

    walk(0, 1)
    return [Fraction(c, math.perm(t, n)) for n, c in enumerate(band)], [
        Fraction(c, math.perm(t, n)) for n, c in enumerate(bump)
    ]


# ==================== the band theorem ====================


def band_logconcavity_violations(
    m_range: tuple[int, int], s_range: tuple[int, int]
) -> tuple[int, list[tuple[GameParams, int]]]:
    """(cells, violations) of band log-concavity over the general cells of a grid.

    Each cell's sequence is its band numerators from draw m * l, the first
    possible band, to n_max; a violation is a (params, n) pair, and any one
    is an engine bug.
    """
    cells = 0
    violations = []
    for p in _general_grid(m_range, s_range):
        cells += 1
        dist = joint_distribution(p)
        first = p.m * p.l
        seq = dist.band[first:]
        violations += [(p, first + i) for i in log_concavity(seq)]
    return cells, violations


# ==================== the dist table, built whole ====================


def dist_json(dist: JointDistribution, report: MomentsReport, digits: int) -> dict:
    """The whole document of ``dist --format json``; json.dumps(doc, indent=2) is its stdout."""
    p = dist.params
    rows = [
        {
            "n": n,
            "band": _json_value(band, digits),
            "bump": _json_value(bump, digits),
            "total": _json_value(total, digits),
            "band_conditional": _json_value(cond_band, digits),
            "bump_conditional": _json_value(cond_bump, digits),
        }
        for n, band, bump, total, cond_band, cond_bump in _dist_rows(dist)
    ]

    def outcome_block(oc):
        if oc.mean is None:
            return None
        return {
            "mean": _json_value(oc.mean, digits),
            "variance": _rat(oc.variance),
            "sd": sqrt_decimal(oc.variance, digits),
        }

    return {
        "params": {"m": p.m, "s": p.s, "l": p.l, "u": p.u, "t": p.t, "n_max": p.n_max},
        "digits": digits,
        "rows": rows,
        "band_marginal": _json_value(report.band.marginal, digits),
        "bump_marginal": _json_value(report.bump.marginal, digits),
        "mean_duration": {
            "overall": _json_value(report.mean, digits),
            "variance": _rat(report.variance),
            "sd": sqrt_decimal(report.variance, digits),
            "band": outcome_block(report.band),
            "bump": outcome_block(report.bump),
        },
    }


def dist_csv(dist: JointDistribution, report: MomentsReport, digits: int) -> str:
    """The whole stdout of ``dist`` (CSV), built in one string."""
    band, bump = report.band, report.bump
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(("n", "P[N=n, band]", "P[N=n, bump]", "P[N=n]", "P[N=n | band]", "P[N=n | bump]"))
    writer.writerows((n, *(_cell(x, digits) for x in row)) for n, *row in _dist_rows(dist))
    writer.writerows(
        (
            ("Outcome probabilities", *(_cell(x.marginal, digits) for x in (band, bump)), "", "", ""),
            ("Mean duration", "", "", *(_cell(x, digits) for x in (report.mean, band.mean, bump.mean))),
            (
                "Standard deviation", "", "",
                *("" if x.variance is None else sqrt_decimal(x.variance, digits) for x in (report, band, bump)),
            ),
        )
    )
    return table.getvalue()
