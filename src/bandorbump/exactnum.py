"""Exact decimal rendering of rationals and of square roots.

Probabilities stay exact, as ``fractions.Fraction`` values or as integer
(numerator, denominator) pairs, until the moment they are printed.  Printing
is correctly rounded (round half to even) to a fixed number of significant
figures, by one route: scale by 10**k so that the exact value lies in
[q, q + 1) for an integer q (a floor quotient, or an integer square root) of
at least sig_figs + 2 digits; append a sticky digit, 1 if the value is above q
and 0 if it equals q; round that integer once with the stdlib ``decimal``
module.  This is rounding to odd (Boldo and Melquiond, IEEE Trans. Computers
57(4), 2008): with two digits to spare, every rounding boundary is a multiple
of ten, so 10q + sticky rounds as the exact value does.  The integers stay
short, so the cost is linear in the bit length of the input.
"""

from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context
from fractions import Fraction


@functools.lru_cache(maxsize=16)
def _context(prec: int) -> Context:
    # The widest exponent range, so that no value that fits in memory
    # overflows or underflows; the default context stops at 1e+-999999.
    return Context(prec=prec, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _shifted(num: int, den: int, digits: int) -> tuple[int, int, int]:
    """(k, q, r) for an even k, q, r = divmod(num * 10**k, den) and |q| >= 10**(digits - 1)."""
    # |num / den| > 2**-d; 2**d < 10**(28 d / 93) if d > 0 (2**93 < 10**28), else 2**d <= 10**(3 d / 10).
    d = den.bit_length() - num.bit_length() + 1
    k = digits - 1 - (-d * 28 // 93 if d > 0 else -d * 3 // 10)
    k += k % 2
    return (k, *divmod(num * 10**k, den)) if k >= 0 else (k, *divmod(num, den * 10**-k))


def _render(q: int, inexact: bool, k: int, sig_figs: int) -> str:
    """A value in [q, q + 1) * 10**-k, above q iff inexact, written with sig_figs figures."""
    ctx = _context(sig_figs)
    d = ctx.create_decimal(10 * q + inexact).scaleb(-k - 1, ctx)
    places = sig_figs - 1 - d.adjusted()
    return f"{d:.{places if places > 0 else 0}f}"


def to_decimal(x: Fraction | int | tuple[int, int], sig_figs: int = 6) -> str:
    """Render x as a plain decimal string with exactly sig_figs significant figures.

    x is a Fraction, an int, or a (numerator, denominator) pair with a
    positive denominator, which need not be in lowest terms.  Rounding is
    round-half-to-even on the exact value.  Exact zero renders as "0".
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
    k, q, r = _shifted(num, den, sig_figs + 2)
    return _render(q, r > 0, k, sig_figs)


def sqrt_decimal(x: Fraction | int, sig_figs: int = 6) -> str:
    """Correctly rounded decimal rendering of sqrt(x) for x >= 0.

    sqrt(x * 10**k) lies in [a, a + 1) for a = isqrt(floor(x * 10**k)) and
    equals a when neither step drops anything.
    """
    if sig_figs < 1:
        raise ValueError(f"sig_figs must be >= 1, got {sig_figs}")
    f = Fraction(x)
    if f < 0:
        raise ValueError(f"sqrt_decimal requires x >= 0, got {x}")
    if f == 0:
        return "0"
    k, w, r = _shifted(f.numerator, f.denominator, 2 * sig_figs + 3)
    a = math.isqrt(w)
    return _render(a, r > 0 or a * a != w, k // 2, sig_figs)
