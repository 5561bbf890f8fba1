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
window, or play would already have stopped on a band).  ``power`` raises
each, for m - 1 <= 8 by Kronecker substitution (the polynomial packed into
one integer and raised by one integer power), and above that by J.C.P.
Miller's recurrence, which finds every coefficient of a power from the ones
before it: O(n_max * u) coefficient operations whatever m is, where a chain
of m - 1 products costs O(m * n_max * u).  The scale from n * C(t, n) to L
is one running integer, carried from draw to draw by one multiplication
and one exact division.  The u = s corner (no bump, as s - u = 0) and the
l = u corner run through the same routine.  Only l = 0, where the deal
stops at the first card, is special.

The law is carried as integers.  t * C(t-1, k) divides L = lcm(1, ..., t)
for every k (Farhi, Amer. Math. Monthly 116, 2009), so each cell is an
integer numerator over the one denominator L, the l = 0 law included, and
``==`` compares laws by value.  A law holds a band and a bump column with
one numerator per draw n = 0..n_max, as the Monte Carlo tallies do.
Fractions are formed only where asked for.

Every draw is checked against a second count.  With F = D**m - C**m,

    P[N > n] = [z**n] F / C(t, n),

and band(n) + bump(n) = P[N > n-1] - P[N > n] at every draw, which over
n * C(t, n) reads

    band(n) + bump(n) = (t-n+1) * [z**(n-1)] F - n * [z**n] F.

D**m and C**m are each one truncated product past the (m-1)-th powers the
columns read, so this check sets either route of ``power`` against a
convolution that shares no code with it.
[z**n] F must also be 1 at n = 0 and 0 at n_max.  A failure raises
ConsistencyError, as does a failed mass check.  Such an error means the
engine itself is wrong and must never be swallowed.

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
hold every draw equal to them.  The columns are also validated against
independent recomputation (exhaustive dynamic programming and Monte Carlo
in ``oracle``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .hypergeom import truncated_product, window_poly


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; the engine's own math is inconsistent."""


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
    """Joint law over (stopping draw n, outcome) as two per-draw integer columns.

    band[n] and bump[n] are P[N = n, band] and P[N = n, bump] times the
    denominator, one entry per draw n = 0..n_max, the layout of the Monte
    Carlo tallies (``oracle.EmpiricalDistribution``).  The denominator is not
    stored: it is ``params.denominator`` = lcm(1, ..., t), so each law has
    exactly one representation and ``==`` compares values.  No entry is
    negative, draw 0 carries no mass and draw n_max some, and the entries
    total exactly the denominator.
    """

    params: GameParams
    band: tuple[int, ...]
    bump: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in ("band", "bump"):  # a list would compare unequal to the tuple and not hash
            object.__setattr__(self, name, tuple(getattr(self, name)))
        draws = self.params.n_max + 1
        if not len(self.band) == len(self.bump) == draws:
            raise ValueError(f"band and bump columns must hold n_max + 1 = {draws} entries")
        for n in range(draws):
            if self.band[n] < 0 or self.bump[n] < 0:
                raise ValueError(f"negative mass at n={n}")
        if self.band[0] or self.bump[0] or not (self.band[-1] or self.bump[-1]):
            raise ValueError("draw 0 must carry no mass and draw n_max some")
        total, d = sum(self.band) + sum(self.bump), self.denominator
        if total != d:
            raise ConsistencyError(f"total mass is {Fraction(total, d)}, not 1, for {self.params}")

    @property
    def denominator(self) -> int:
        """lcm(1, ..., t), read from params, which computes it once."""
        return self.params.denominator

    @property
    def first_n(self) -> int:
        """The first draw with mass."""
        return next(n for n, (band, bump) in enumerate(zip(self.band, self.bump)) if band or bump)

    @property
    def rows(self) -> tuple[tuple[int, Fraction, Fraction], ...]:
        """(n, band mass, bump mass) as Fractions from first_n to n_max, built anew on every read.

        The package reads the columns; the benchmark's span recorder reads this view."""
        d = self.denominator
        return tuple(
            (n, Fraction(self.band[n], d), Fraction(self.bump[n], d)) for n in range(self.first_n, len(self.band))
        )


# ==================== assembly ====================


# The largest exponent raised by one packed integer power; above it, Miller's
# recurrence is the faster route.  See ``power`` and CHANGES.md for the timings.
_PACK_MAX = 8


def power(poly: list[int], e: int) -> list[int]:
    """poly**e, every coefficient of it, for a polynomial with no negative coefficient.

    Write poly = z**low * d with d = d[0] + d[1] z + ... + d[r] z**r and
    d[0] != 0; poly**e is d**e shifted by low * e.  Up to e = _PACK_MAX,
    d**e comes from one integer power (``_packed_power``); above it, from
    J.C.P. Miller's recurrence (``_miller_power``), whose cost does not grow
    with e.  e = 1 returns a copy of poly.  The result is always a new list,
    so a caller may change it without touching poly.  A polynomial with a
    negative coefficient, whose packed slots could borrow from one another,
    raises ValueError on every route, as does the zero polynomial, which has
    no d[0].
    """
    low = next((i for i, c in enumerate(poly) if c), None)
    if low is None:
        raise ValueError(f"power of the zero polynomial {poly}")
    if min(poly) < 0:
        raise ValueError(f"power of {poly}, which has a negative coefficient")
    if e == 1:
        return list(poly)
    return [0] * (low * e) + (_packed_power if e <= _PACK_MAX else _miller_power)(poly[low:], e)


def _packed_power(d: list[int], e: int) -> list[int]:
    """The e * r + 1 coefficients of d**e by Kronecker substitution.

    d is packed into one integer, one little-endian slot of nb bytes per
    coefficient, and raised by one ``pow``; the slots of the result are the
    coefficients of d**e.  With no negative coefficient, every coefficient
    of d**e, and of d itself, is at most sum(d)**max(e, 1), so nb bytes hold
    each and no slot carries into the next.
    """
    nb = ((sum(d) ** max(e, 1)).bit_length() + 7) // 8
    x = int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in d), "little")
    slots = pow(x, e).to_bytes(nb * (e * (len(d) - 1) + 1), "little")
    return [int.from_bytes(slots[i : i + nb], "little") for i in range(0, len(slots), nb)]


def _miller_power(d: list[int], e: int) -> list[int]:
    """The e * r + 1 coefficients of d**e by J.C.P. Miller's recurrence.

    P = d**e satisfies d * P' = e * d' * P, which reads coefficient by
    coefficient

        d[0] * k * p[k] = sum_{i=1..min(k,r)} ((e+1) * i - k) * d[i] * p[k-i]

    from p[0] = d[0]**e (Knuth, The Art of Computer Programming, vol. 2,
    section 4.7).  Each coefficient costs two dot products of length at most
    r and one exact division, whatever e is.  A remainder means the
    arithmetic is wrong and raises ConsistencyError.
    """
    d0, rest = d[0], d[1:]  # d[0] and d[1..r]
    lift = [(e + 1) * i * c for i, c in enumerate(rest, 1)]  # (e+1) * i * d[i]
    p = [d0**e]
    for k in range(1, e * len(rest) + 1):
        # p holds p[0..k-1], so reversed(p) pairs p[k-i] with d[i] for i = 1..min(k, r).
        q, rem = divmod(
            sum(map(operator.mul, lift, reversed(p))) - k * sum(map(operator.mul, rest, reversed(p))),
            k * d0,
        )
        if rem:
            raise ConsistencyError(f"Miller's recurrence leaves a remainder at z**{k} of d**{e}")
        p.append(q)
    return p


def _gf_rows(params: GameParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Band and bump columns over L for l >= 1 from generating-function powers.

    Both columns cover every draw n = 0..n_max.  Draw 0 is 0; from draw 1 the
    powers are padded with leading zeros for their negative powers of z, so
    the survival identity is checked at every draw.
    """
    m, s, l, u, t = params.m, params.s, params.l, params.u, params.t
    top = params.n_max
    window, under_cap = window_poly(s, l, u), window_poly(s, 0, u)  # C, D
    inside = power(window, m - 1)  # degree (m - 1) * u, so l leading zeros reach n_max
    capped = power(under_cap, m - 1)
    # [z**n] alive counts the n-card hands after which play is still running:
    # every tally at most u, less those with every tally inside [l, u].
    all_capped = truncated_product(capped, under_cap, top)
    in_window = truncated_product(inside, window, top)
    alive = [a - b for a, b in zip(all_capped, in_window, strict=True)]
    # [z**(n-l)] C**(m-1) and [z**(n-1-u)] (D**(m-1) - C**(m-1)) at index n;
    # the l and u + 1 leading zeros are the negative powers.
    within = [0] * l + inside
    outside = [0] * (u + 1) + [a - b for a, b in zip(capped, inside, strict=True)]

    if alive[0] != 1 or alive[top] != 0:
        raise ConsistencyError(
            f"survival counts {alive[0]} before draw 1 and {alive[top]} "
            f"after draw {top} are not 1 and 0 for {params}"
        )
    band_lead = t * math.comb(s - 1, l - 1)
    bump_lead = m * math.comb(s, u) * (s - u)
    band, bump = [0], [0]  # no deal stops before its first card
    # L / (t * C(t-1, n-1)), an integer at every n, carried from draw to draw.
    scale = params.denominator // t
    for n in range(1, top + 1):
        # Numerators over n * C(t, n) = t * C(t - 1, n - 1).
        band_n = band_lead * within[n]
        bump_n = bump_lead * outside[n]
        # P[N = n] = P[N > n - 1] - P[N > n], with P[N > n] = alive[n] / C(t, n).
        if band_n + bump_n != (t - n + 1) * alive[n - 1] - n * alive[n]:
            raise ConsistencyError(f"survival identity fails at {params}, n={n}")
        band.append(band_n * scale)
        bump.append(bump_n * scale)
        if n < t:
            scale = scale * n // (t - n)  # C(t-1, n) = C(t-1, n-1) * (t-n) / n
    return tuple(band), tuple(bump)


def joint_distribution(params: GameParams) -> JointDistribution:
    """The full joint law over (stopping draw, outcome), solved afresh on every call.

    l = 0 stops at the first card: a bump when u = 0 (any card overshoots a
    zero cap), a band otherwise (quotas are met before any draw and one card
    cannot leave [0, u]); its one draw is over L like every other law.  Every
    l >= 1 runs through the generating-function columns; see ``_gf_rows``.
    """
    if params.l == 0:
        nothing, everything = (0, 0), (0, params.denominator)
        if params.u == 0:
            return JointDistribution(params, nothing, everything)
        return JointDistribution(params, everything, nothing)
    return JointDistribution(params, *_gf_rows(params))
