"""Counting polynomials of one rank's tally, multiplied exactly.

A rank of ``rank_size`` cards that holds x of the cards dealt so far is
counted by C(rank_size, x) * z**x, so the deals whose tallies keep every rank
inside its own window are counted by the coefficients of the product of the
ranks' window polynomials.  ``window_poly`` builds one rank's polynomial and
``truncated_product`` multiplies two with exact integer convolution, dropping
every degree beyond the last draw of interest.  The engine raises these
with ``distribution.power``, by one packed integer power up to the eighth
and by Miller's recurrence above it; the non-vacuity scan raises none, as it
reads the sign of each count from the polynomials' supports.
``truncated_product`` serves the engine's survival check and the reference
forms in ``tests/reference.py``.  No count ever touches floating point.
"""

from __future__ import annotations

import math


def window_poly(rank_size: int, lo: int, hi: int) -> list[int]:
    """Counting polynomial of one rank's tally in [lo, hi]: sum C(rank_size, x) z**x.

    Coefficient lists are indexed by degree; the empty list is the zero
    polynomial, which is what a window emptied by the rank size becomes.
    """
    hi = min(hi, rank_size)
    if lo > hi:
        return []
    return [0] * lo + [math.comb(rank_size, x) for x in range(lo, hi + 1)]


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
