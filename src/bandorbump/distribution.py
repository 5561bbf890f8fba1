"""Exact joint law of the stopping time and outcome of a band-or-bump deal.

The game: a deck of t = m * s cards (m ranks, s cards per rank) is dealt one
card at a time while a tally is kept per rank.  Play stops the first time
either

* every rank's tally lies inside the window [l, u]  -- a *band*, or
* some rank's tally reaches u + 1                   -- a *bump*.

``joint_distribution`` returns the exact probability of each (stopping draw,
outcome) pair from products of counting generating functions.  One rank
holding x of the cards dealt so far is counted by C(s, x) z**x, so with

    C = sum_{l <= x <= u} C(s, x) z**x  (inside the window)
    D = sum_{x <= u} C(s, x) z**x       (at most the cap)

the number of deals of j cards whose tallies satisfy a per-rank condition is
the coefficient [z**j] of the product of the ranks' polynomials.  Play is
still running after j cards exactly when every tally is at most u and some
tally is below l (tallies only grow, so no earlier stop is possible).
Conditioning on the rank of the last card dealt gives, for every l >= 1 and
over n * C(t, n) = t * C(t-1, n-1),

    band(n) = t * C(s-1, l-1) * [z**(n-l)] C**(m-1)

(the last card lifts one rank from l - 1 to l while the other m - 1 already
sit inside the window) and

    bump(n) = m * C(s, u) * (s-u) * [z**(n-1-u)] (D**(m-1) - C**(m-1))

(the last card's rank held u of its s cards and the last card is one of the
s - u left; the other m - 1 ranks are all at most u and not all inside the
window, or play would already have stopped on a band).  Each power comes
from J.C.P. Miller's recurrence, which finds every coefficient of a power
from the ones before it (see ``power``): O(n_max * u) coefficient
operations per power whatever m is, where a chain of m - 1 products costs
O(m * n_max * u).  The row scale from n * C(t, n) to L is one running
integer, carried from row to row by one multiplication and one exact
division.  The u = s corner (no bump, as s - u = 0) and the l = u corner
run through the same routine.  Only l = 0, where the deal stops at the
first card, is special.

The law is carried as integers.  t * C(t-1, k) divides L = lcm(1, ..., t)
for every k (Farhi, Amer. Math. Monthly 116, 2009), so each cell is an
integer numerator over the one denominator L, the l = 0 law included, and
``==`` compares laws by value.  Fractions are formed only where asked for.

Every row is checked against a second count.  With F = D**m - C**m,

    P[N > n] = [z**n] F / C(t, n),

and band(n) + bump(n) = P[N > n-1] - P[N > n] at every draw, which over
n * C(t, n) reads

    band(n) + bump(n) = (t-n+1) * [z**(n-1)] F - n * [z**n] F.

D**m and C**m are each one truncated product past the (m-1)-th powers the
rows read, so this check sets the recurrence against a convolution.
[z**n] F must also equal C(t, n) at the draw before the first row and 0 at
n_max.  A failure raises ConsistencyError, as does a failed mass check.
Such an error means the engine itself is wrong and must never be swallowed.

The paper writes the bump mass as a sum over the number k of ranks at the
cap; with A and B one rank's polynomials over [0, l-1] and [l, u-1],

    bump(n) = (s-u) * sum_k C(m, k) * k * C(s, u)**k
                      * [z**(n-1-k*u)] ((A + B)**(m-k) - B**(m-k)),

which sum_k C(m, k) * k * x**k * y**(m-k) = m * x * (x + y)**(m-1) collapses
to the last-card form.  Splitting further by the number k'' of ranks inside
[l, u - 1] makes each term a rectangle probability of the hypergeometric
tallies; ``analysis.bump_k_range`` and ``analysis.bump_kpp_range`` are the
paper's claims on which (k, k'') can occur, and the non-vacuity scan tests
them.  The rectangle forms themselves, with the u = s and l = u boundary
cases, serve tests only: they live in ``tests/reference.py``, and the tests
hold every row equal to them.  The rows are also validated against
independent recomputation (exhaustive dynamic programming and Monte Carlo
in ``oracle``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .hypergeom import truncated_product, window_poly


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the engine's own math is inconsistent."""


class Outcome(Enum):
    BAND = "band"
    BUMP = "bump"


@dataclass(frozen=True)
class GameParams:
    """Deck shape and stopping window: m ranks of s cards, window [l, u]."""

    m: int
    s: int
    l: int
    u: int

    def __post_init__(self) -> None:
        for name in ("m", "s", "l", "u"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if not (0 <= self.l <= self.u <= self.s):
            raise ValueError(
                f"window must satisfy 0 <= l <= u <= s, got l={self.l}, u={self.u}, s={self.s}"
            )

    @property
    def t(self) -> int:
        """Deck size."""
        return self.m * self.s

    @property
    def n_max(self) -> int:
        """Last draw at which play can stop: l + (m - 1) * u, or 1 when l = 0 stops every deal at once."""
        return self.l + (self.m - 1) * self.u if self.l else 1

    @functools.cached_property
    def denominator(self) -> int:
        """L = lcm(1, ..., t), the one denominator of every law of this deck, computed on first read."""
        return math.lcm(*range(1, self.t + 1))


@dataclass(frozen=True)
class JointDistribution:
    """Joint law over (stopping draw n, outcome), stored as integer numerators.

    numerators holds (n, band, bump) for every n from the first draw with
    mass to the last, explicit zeros in between; P[N = n, band] is band /
    denominator, and likewise for bump.  The denominator is not stored: it
    is ``params.denominator`` = lcm(1, ..., t), so each law has exactly one
    representation and ``==`` compares values.  The numerators are
    non-negative and total exactly the denominator.
    """

    params: GameParams
    numerators: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if not self.numerators:
            raise ValueError("a distribution needs at least one row")
        first = self.numerators[0][0]
        total = 0
        for i, (n, band, bump) in enumerate(self.numerators):
            if n != first + i:
                raise ValueError(f"rows must cover consecutive n; gap before n={n}")
            if band < 0 or bump < 0:
                raise ValueError(f"negative mass at n={n}")
            total += band + bump
        if not any(self.numerators[0][1:]) or not any(self.numerators[-1][1:]):
            raise ValueError("the first and last rows must carry mass")
        d = self.denominator
        if total != d:
            raise ConsistencyError(f"total mass is {Fraction(total, d)}, not 1, for {self.params}")

    @property
    def denominator(self) -> int:
        """lcm(1, ..., t), read from params, which computes it once."""
        return self.params.denominator

    @property
    def first_n(self) -> int:
        return self.numerators[0][0]

    @property
    def last_n(self) -> int:
        return self.numerators[-1][0]

    @property
    def rows(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """(n, band mass, bump mass) as Fractions, built anew on every read."""
        d = self.denominator
        return tuple((n, Fraction(band, d), Fraction(bump, d)) for n, band, bump in self.numerators)

    def numerator(self, n: int, outcome: Outcome) -> int:
        """P[N = n, outcome] times the denominator; 0 outside the stored span."""
        if self.first_n <= n <= self.last_n:
            return self.numerators[n - self.first_n][1 if outcome is Outcome.BAND else 2]
        return 0

    def mass(self, n: int, outcome: Outcome) -> Fraction:
        return Fraction(self.numerator(n, outcome), self.denominator)

    def band_mass(self, n: int) -> Fraction:
        return self.mass(n, Outcome.BAND)

    def bump_mass(self, n: int) -> Fraction:
        return self.mass(n, Outcome.BUMP)

    @property
    def band_marginal(self) -> Fraction:
        return Fraction(sum(r[1] for r in self.numerators), self.denominator)

    @property
    def bump_marginal(self) -> Fraction:
        return Fraction(sum(r[2] for r in self.numerators), self.denominator)


# ==================== assembly ====================


def power(poly: list[int], e: int, degree: int) -> list[int]:
    """poly**e truncated at degree, by J.C.P. Miller's recurrence.

    Write poly = z**low * d with d = d[0] + d[1] z + ... + d[r] z**r and
    d[0] != 0.  P = d**e satisfies d * P' = e * d' * P, which reads
    coefficient by coefficient

        d[0] * k * p[k] = sum_{i=1..min(k,r)} ((e+1) * i - k) * d[i] * p[k-i]

    from p[0] = d[0]**e (Knuth, The Art of Computer Programming, vol. 2,
    section 4.7); poly**e is P shifted by low * e.  Each coefficient costs
    two dot products of length at most r and one exact division, so a power
    costs O(degree * r) coefficient operations whatever e is.  A remainder
    means the arithmetic itself is wrong and raises ConsistencyError; the
    zero polynomial, which has no d[0], raises ValueError.
    """
    low = next((i for i, c in enumerate(poly) if c), None)
    if low is None:
        raise ValueError(f"power of the zero polynomial {poly}")
    d0, rest = poly[low], poly[low + 1 :]  # d[0] and d[1..r]
    lift = [(e + 1) * i * c for i, c in enumerate(rest, 1)]  # (e+1) * i * d[i]
    p = [d0**e]
    for k in range(1, min(e * len(rest), degree - low * e) + 1):
        # p holds p[0..k-1], so reversed(p) pairs p[k-i] with d[i] for i = 1..min(k, r).
        q, rem = divmod(
            sum(map(operator.mul, lift, reversed(p))) - k * sum(map(operator.mul, rest, reversed(p))),
            k * d0,
        )
        if rem:
            raise ConsistencyError(
                f"Miller's recurrence leaves a remainder at z**{low * e + k} of poly**{e}"
            )
        p.append(q)
    return ([0] * (low * e) + p)[: degree + 1]


def _gf_rows(params: GameParams) -> tuple[tuple[int, int, int], ...]:
    """Band and bump numerators over L for l >= 1 from truncated generating-function powers.

    Row span: n from min(m*l, u+1) through n_max with explicit zeros, so both
    outcome columns are visible from their earliest possible draw; when u = s
    no bump exists and the span starts at the first possible band, m*l.  Both
    ends carry mass (a bump at u + 1 < m*l, bands at m*l and n_max).
    """
    m, s, l, u, t = params.m, params.s, params.l, params.u, params.t
    top = params.n_max
    window, under_cap = window_poly(s, l, u), window_poly(s, 0, u)  # C, D
    inside = power(window, m - 1, top)
    capped = power(under_cap, m - 1, top)
    # [z**n] alive counts the n-card hands after which play is still running:
    # every tally at most u, less those with every tally inside [l, u].
    all_capped = truncated_product(capped, under_cap, top)
    in_window = truncated_product(inside, window, top)
    alive = [a - b for a, b in zip(all_capped, in_window, strict=True)]
    # [z**(n-1-u)] (D**(m-1) - C**(m-1)) at index n; the u + 1 zeros are the negative powers.
    outside = [0] * (u + 1) + [a - b for a, b in zip(capped, inside, strict=True)]

    start = m * l if u == s else min(m * l, u + 1)
    if alive[top] != 0 or alive[start - 1] != math.comb(t, start - 1):
        raise ConsistencyError(
            f"survival counts {alive[start - 1]} before draw {start} and {alive[top]} "
            f"after draw {top} are not C(t, {start - 1}) and 0 for {params}"
        )
    band_lead = t * math.comb(s - 1, l - 1)
    bump_lead = m * math.comb(s, u) * (s - u)
    # L / (t * C(t-1, n-1)), an integer at every n, carried from row to row.
    scale = params.denominator // (t * math.comb(t - 1, start - 1))
    rows = []
    for n in range(start, top + 1):
        # Numerators over n * C(t, n) = t * C(t - 1, n - 1).
        band = band_lead * inside[n - l]
        bump = bump_lead * outside[n]
        # P[N = n] = P[N > n - 1] - P[N > n], with P[N > n] = alive[n] / C(t, n).
        if band + bump != (t - n + 1) * alive[n - 1] - n * alive[n]:
            raise ConsistencyError(f"survival identity fails at {params}, n={n}")
        rows.append((n, band * scale, bump * scale))
        if n < t:
            scale = scale * n // (t - n)  # C(t-1, n) = C(t-1, n-1) * (t-n) / n
    return tuple(rows)


def joint_distribution(params: GameParams) -> JointDistribution:
    """The full joint law over (stopping draw, outcome), solved afresh on every call.

    l = 0 stops at the first card: a bump when u = 0 (any card overshoots a
    zero cap), a band otherwise (quotas are met before any draw and one card
    cannot leave [0, u]); its one row is over L like every other law.  Every
    l >= 1 runs through the generating-function rows; see ``_gf_rows``.
    """
    if params.l == 0:
        d = params.denominator
        return JointDistribution(params, ((1, 0, d) if params.u == 0 else (1, d, 0),))
    return JointDistribution(params, _gf_rows(params))
