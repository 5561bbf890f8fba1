"""Exact decimal rendering of rationals and of square roots.

Probabilities stay exact, as ``fractions.Fraction`` values or as integer
(numerator, denominator) pairs, until the moment they are printed.  Printing
is correctly rounded (round half to even) to a fixed number of significant
figures: a rational takes one division in the stdlib ``decimal`` module, which
IEEE 854 defines as correctly rounded, and a square root takes an integer
square root and an exact comparison with the halfway point.
"""

from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction


@functools.lru_cache(maxsize=16)
def _context(prec: int, rounding: str = ROUND_HALF_EVEN) -> Context:
    # The widest exponent range, so that no value that fits in memory
    # overflows or underflows; the default context stops at 1e+-999999.
    return Context(prec=prec, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _plain(q: Decimal, sig_figs: int) -> str:
    """q written with exactly sig_figs significant figures; q has no nonzero digit past them."""
    places = sig_figs - 1 - q.adjusted()
    return f"{q:.{places if places > 0 else 0}f}"


def to_decimal(x: Fraction | int | tuple[int, int], sig_figs: int = 6) -> str:
    """Render x as a plain decimal string with exactly sig_figs significant figures.

    x is a Fraction, an int, or a (numerator, denominator) pair with a
    positive denominator, which need not be in lowest terms.  Rounding is
    round-half-to-even on the exact rational value, so the output is the
    correctly rounded decimal.  Exact zero renders as "0".
    """
    if sig_figs < 1:
        raise ValueError(f"sig_figs must be >= 1, got {sig_figs}")
    if isinstance(x, tuple):
        num, den = x
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
    else:
        f = Fraction(x)
        num, den = f.numerator, f.denominator
    if num == 0:
        return "0"
    return _plain(_context(sig_figs).divide(num, den), sig_figs)


def sqrt_decimal(x: Fraction | int, sig_figs: int = 6) -> str:
    """Correctly rounded decimal rendering of sqrt(x) for x >= 0.

    sqrt(x) is generally irrational, so the rounding is decided by exact
    integer comparisons against the halfway point rather than by computing
    any approximation first.
    """
    if sig_figs < 1:
        raise ValueError(f"sig_figs must be >= 1, got {sig_figs}")
    f = Fraction(x)
    if f < 0:
        raise ValueError(f"sqrt_decimal requires x >= 0, got {x}")
    if f == 0:
        return "0"
    num, den = f.numerator, f.denominator
    # Rounded towards -inf, the one-digit quotient never reaches the next
    # power of ten, so its exponent is floor(log10 f) exactly.
    e = _context(1, ROUND_FLOOR).divide(num, den).adjusted() // 2
    # 10**e <= sqrt(f) < 10**(e+1).  w = num / den is f * 10**k, not reduced;
    # neither step below needs it reduced.
    k = 2 * (sig_figs - 1 - e)
    num, den = (num * 10**k, den) if k >= 0 else (num, den * 10**-k)
    a = math.isqrt(num * den) // den
    # Compare sqrt(w) against a + 1/2 without leaving the integers:
    # sqrt(w) > a + 1/2  iff  4*num > den*(2a+1)^2.
    lhs = 4 * num
    rhs = den * (2 * a + 1) ** 2
    if lhs > rhs or (lhs == rhs and a % 2 == 1):
        d = a + 1
    else:
        d = a
    # Built from a string, the Decimal is exact: a context would round it.
    return _plain(Decimal(f"{d}e{e - sig_figs + 1}"), sig_figs)
