"""Exact decimal rendering of rationals and of square roots.

Everything here is integer or rational arithmetic with no floating point.
Probabilities stay exact, as ``fractions.Fraction`` values or as integer
(numerator, denominator) pairs, until the moment they are printed; printing
is correctly rounded (round half to even) to a fixed number of significant
figures.
"""

from __future__ import annotations

import math
from fractions import Fraction


# log10(2) truncated to 42 decimals.  The floor in _floor_log10 is taken of
# (d + 1) * log10(2) for a bit-length difference d; an error below 1e-42 moves
# it only if that product lies within |d + 1| * 1e-42 of an integer, which no
# bit length that fits in memory comes close to.
_LOG10_2_NUM = 301029995663981195213738894724493026768189
_LOG10_2_DEN = 10**42


def _floor_log10(num: int, den: int) -> int:
    """Largest e with 10**e <= num / den, for num, den > 0."""
    # num / den lies strictly between 2**(d - 1) and 2**(d + 1), a span under
    # one decade, so floor((d + 1) * log10(2)) is exact or one too high.
    d = num.bit_length() - den.bit_length()
    e = (d + 1) * _LOG10_2_NUM // _LOG10_2_DEN
    too_high = num < den * 10**e if e >= 0 else num * 10**-e < den
    return e - too_high


def _scale(num: int, den: int, k: int) -> tuple[int, int]:
    """num / den times 10**k, as an unreduced (numerator, denominator) pair."""
    return (num * 10**k, den) if k >= 0 else (num, den * 10**-k)


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num / den >= 0, ties to the even neighbour."""
    n, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and n % 2 == 1):
        return n + 1
    return n


def _place_point(d: int, e: int, sig_figs: int) -> str:
    # d is the rounded significand of sig_figs digits, its leading digit at
    # magnitude 10**e; rounding up may have carried it to 10**sig_figs.
    if d == 10**sig_figs:
        d //= 10
        e += 1
    digits = str(d)
    if e >= len(digits) - 1:
        return digits + "0" * (e - len(digits) + 1)
    if e >= 0:
        return digits[: e + 1] + "." + digits[e + 1 :]
    return "0." + "0" * (-e - 1) + digits


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
    sign = "-" if num < 0 else ""
    num = abs(num)
    e = _floor_log10(num, den)
    d = _round_half_even(*_scale(num, den, sig_figs - 1 - e))
    return sign + _place_point(d, e, sig_figs)


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
    e = _floor_log10(f.numerator, f.denominator) // 2  # 10**e <= sqrt(f) < 10**(e+1)
    # w = num / den is f * 10**(2 * (sig_figs - 1 - e)), not reduced; neither
    # step below needs it reduced.
    num, den = _scale(f.numerator, f.denominator, 2 * (sig_figs - 1 - e))
    a = math.isqrt(num * den) // den
    # Compare sqrt(w) against a + 1/2 without leaving the integers:
    # sqrt(w) > a + 1/2  iff  4*num > den*(2a+1)^2.
    lhs = 4 * num
    rhs = den * (2 * a + 1) ** 2
    if lhs > rhs or (lhs == rhs and a % 2 == 1):
        d = a + 1
    else:
        d = a
    return _place_point(d, e, sig_figs)
