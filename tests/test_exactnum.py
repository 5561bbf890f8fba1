import decimal
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from bandorbump.exactnum import (
    sqrt_decimal,
    to_decimal,
)
from reference import binomial, multinomial


class TestBinomial:
    # the test-side binomial of tests/reference.py; the package calls math.comb
    def test_standard_values(self):
        assert binomial(52, 5) == 2598960
        assert binomial(0, 0) == 1
        assert binomial(7, 0) == 1
        assert binomial(7, 7) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(4, -1) == 0

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)

    def test_matches_math_comb(self):
        for a in range(0, 40):
            for b in range(0, a + 1):
                assert binomial(a, b) == math.comb(a, b)

    def test_table_growth_beyond_initial_size(self):
        assert binomial(200, 100) == math.comb(200, 100)

    def test_pascal_recurrence(self):
        for a in range(2, 31):
            for b in range(1, a):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)

    def test_row_sums_are_powers_of_two(self):
        for a in range(0, 26):
            assert sum(binomial(a, b) for b in range(a + 1)) == 2**a


class TestMultinomial:
    def test_example(self):
        assert multinomial(13, [2, 10, 1]) == 858

    def test_equals_factorial_ratio(self):
        assert multinomial(6, (2, 2, 2)) == math.factorial(6) // 8
        assert multinomial(4, (4,)) == 1
        assert multinomial(0, ()) == 1
        assert multinomial(5, (0, 5, 0)) == 1

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(13, [2, 10, 2])

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            multinomial(2, [3, -1])

    def test_splits_into_binomials(self):
        # C(m; k, k', k'') = C(m, k) * C(m - k, k'')
        for m in range(0, 10):
            for k in range(0, m + 1):
                for kpp in range(0, m - k + 1):
                    kp = m - k - kpp
                    assert multinomial(m, (k, kp, kpp)) == binomial(m, k) * binomial(m - k, kpp)


def _printed_value(rendered, sig):
    """The exact value of a rendering, which must show exactly sig significant figures."""
    whole, _, frac = rendered.lstrip("-").partition(".")
    # Exactly sig significant figures; an integer may pad with zeros.
    figures = (whole + frac).lstrip("0")
    significand = figures.rstrip("0")
    assert len(figures) == sig or (not frac and len(significand) <= sig < len(figures))
    return int(significand) * Fraction(10) ** (len(figures) - len(significand) - len(frac))


def _assert_correctly_rounded(x, sig):
    """to_decimal(x, sig) is x rounded half to even to sig figures.

    Checked in exact rationals, without the decimal module that to_decimal
    rounds with; no int longer than sig digits goes through str() or int().
    """
    rendered = to_decimal(x, sig)
    if x == 0:
        assert rendered == "0"
        return
    assert rendered.startswith("-") == (x < 0)
    r = _printed_value(rendered, sig)
    x = abs(x)
    # floor(log10 x), from a rough start that the two loops correct.
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** e > x:
        e -= 1
    while Fraction(10) ** (e + 1) <= x:
        e += 1
    ulp = Fraction(10) ** (e - sig + 1)
    # r is a multiple of the ulp and a nearest one; a tie goes to the even one.
    assert (r / ulp).denominator == 1, (rendered, x)
    assert abs(r - x) <= ulp / 2, (rendered, x)
    if abs(r - x) == ulp / 2:
        assert (r / ulp).numerator % 2 == 0, (rendered, x)


def _assert_sqrt_correctly_rounded(x, sig):
    """sqrt_decimal(x, sig) is sqrt(x) rounded half to even to sig figures.

    Checked in exact rationals, like _assert_correctly_rounded: r is within
    half an ulp of sqrt(x) iff (r - ulp/2)**2 <= x <= (r + ulp/2)**2.
    """
    rendered = sqrt_decimal(x, sig)
    if x == 0:
        assert rendered == "0"
        return
    r = _printed_value(rendered, sig)
    # floor(log10 sqrt(x)): 10**(2e) <= x < 10**(2e + 2).
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 200000
    while Fraction(10) ** (2 * e) > x:
        e -= 1
    while Fraction(10) ** (2 * e + 2) <= x:
        e += 1
    ulp = Fraction(10) ** (e - sig + 1)
    below, above = (r - ulp / 2) ** 2, (r + ulp / 2) ** 2
    assert (r / ulp).denominator == 1, (rendered, x)
    assert below <= x <= above, (rendered, x)
    if x in (below, above):
        assert (r / ulp).numerator % 2 == 0, (rendered, x)


class TestToDecimal:
    @pytest.mark.parametrize(
        "value, sig, expected",
        [
            (Fraction(2, 3), 6, "0.666667"),
            (Fraction(1, 10), 3, "0.100"),
            (Fraction(1, 3), 1, "0.3"),
            (Fraction(0), 6, "0"),
            (Fraction(1), 6, "1.00000"),
            (Fraction(-2, 3), 3, "-0.667"),
            (Fraction(2598960), 7, "2598960"),
            (Fraction(2598960), 3, "2600000"),
            (Fraction(1, 1000000), 2, "0.0000010"),
            (Fraction(23915, 1000), 6, "23.9150"),
        ],
    )
    def test_examples(self, value, sig, expected):
        assert to_decimal(value, sig) == expected

    @pytest.mark.parametrize(
        "value, sig, expected",
        [
            (Fraction(25, 100), 1, "0.2"),  # tie rounds to even
            (Fraction(35, 100), 1, "0.4"),
            (Fraction(15, 10), 1, "2"),
            (Fraction(25, 10), 1, "2"),
            (Fraction(999, 1000), 2, "1.0"),  # carry across the leading digit
            (Fraction(9999999, 10000000), 6, "1.00000"),
        ],
    )
    def test_half_even_and_carry(self, value, sig, expected):
        assert to_decimal(value, sig) == expected

    def test_invalid_sig_figs(self):
        with pytest.raises(ValueError):
            to_decimal(Fraction(1, 3), 0)

    def test_a_remainder_of_one_breaks_the_tie(self):
        # 75001/3 = 25000.33...: the three kept digits 250 sit on a tie, and
        # the remainder left below them is exactly 1, so the value rounds up.
        assert to_decimal((75001, 3), 1) == "30000"

    def test_a_pair_over_one_is_an_integer(self):
        assert to_decimal((3, 1)) == "3.00000"

    @given(
        num=st.integers(min_value=-(10**12), max_value=10**12),
        den=st.integers(min_value=1, max_value=10**12),
        sig=st.integers(min_value=1, max_value=12),
    )
    def test_matches_decimal_module(self, num, den, sig):
        # to_decimal must print the value of a decimal division at the same
        # precision and rounding mode.  to_decimal divides in integers and
        # never in decimal, so the division is an independent reference;
        # test_correctly_rounded_in_exact_fractions checks the rounding
        # without the decimal module.
        f = Fraction(num, den)
        got = to_decimal(f, sig)
        ctx = decimal.Context(prec=sig, rounding=decimal.ROUND_HALF_EVEN)
        want = ctx.divide(decimal.Decimal(num), decimal.Decimal(den))
        assert decimal.Decimal(got) == want

    @given(
        num=st.integers(min_value=-(10**30), max_value=10**30),
        den=st.one_of(
            st.integers(min_value=1, max_value=10**30),
            # finite decimals, where exact ties occur
            st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)),
        ),
        sig=st.integers(min_value=1, max_value=25),
    )
    @example(num=5, den=2, sig=1)  # 2.5: a tie, to the even 2
    @example(num=-35, den=100, sig=1)  # -0.35: a tie, to the even -0.4
    @example(num=2500001, den=10**7, sig=1)  # just past a tie, to 0.3
    @example(num=-3499999, den=10**7, sig=1)  # just short of a tie, to -0.3
    @example(num=999, den=1000, sig=2)  # a carry to 1.0
    # Either side of a power of ten, far from 1 and by a relative 1e-40.
    @example(num=10**70 - 1, den=10**40, sig=1)
    @example(num=10**70 - 1, den=10**40, sig=3)
    @example(num=10**70 + 1, den=10**40, sig=3)
    @example(num=1, den=10**40 + 1, sig=1)
    @example(num=1, den=10**40 - 1, sig=3)
    @example(num=-(10**50 - 1), den=10**90, sig=3)
    def test_correctly_rounded_in_exact_fractions(self, num, den, sig):
        _assert_correctly_rounded(Fraction(num, den), sig)

    @given(
        num=st.integers(min_value=0, max_value=10**9),
        den=st.integers(min_value=1, max_value=10**9),
        sig=st.integers(min_value=1, max_value=10),
    )
    def test_sig_fig_count(self, num, den, sig):
        f = Fraction(num, den)
        rendered = to_decimal(f, sig)
        if f == 0:
            assert rendered == "0"
            return
        digits = rendered.replace(".", "").lstrip("0")
        if "." in rendered and rendered.startswith("0."):
            assert len(digits) == sig
        else:
            # Integer-looking output may carry padding zeros past the
            # significant digits; it must never have fewer.
            assert len(digits.rstrip("0")) <= sig <= len(digits)


class TestSqrtDecimal:
    @pytest.mark.parametrize(
        "value, sig, expected",
        [
            (Fraction(4), 6, "2.00000"),
            (Fraction(2), 6, "1.41421"),
            (Fraction(0), 6, "0"),
            (Fraction(1, 4), 6, "0.500000"),
            (Fraction(9, 4), 1, "2"),  # sqrt = 1.5, tie rounds to even
            (Fraction(25, 4), 1, "2"),  # sqrt = 2.5, tie rounds to even
            (Fraction(1, 100), 3, "0.100"),
        ],
    )
    def test_examples(self, value, sig, expected):
        assert sqrt_decimal(value, sig) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_decimal(Fraction(-1), 6)

    @given(
        num=st.integers(min_value=1, max_value=10**8),
        den=st.integers(min_value=1, max_value=10**8),
        sig=st.integers(min_value=1, max_value=10),
    )
    def test_agrees_with_to_decimal_on_perfect_squares(self, num, den, sig):
        f = Fraction(num, den)
        assert sqrt_decimal(f * f, sig) == to_decimal(f, sig)

    @given(
        num=st.integers(min_value=1, max_value=10**10),
        den=st.integers(min_value=1, max_value=10**10),
    )
    def test_rounded_value_is_within_half_ulp(self, num, den):
        f = Fraction(num, den)
        rendered = sqrt_decimal(f, 8)
        approx = Fraction(decimal.Decimal(rendered))
        # approx is within half an ulp of sqrt(f) iff
        # (approx - h)^2 <= f <= (approx + h)^2, all exact.
        exponent = decimal.Decimal(rendered).as_tuple().exponent
        h = Fraction(1, 2) * Fraction(10) ** exponent
        assert (approx - h) ** 2 <= f
        assert f <= (approx + h) ** 2

    @given(
        num=st.integers(min_value=0, max_value=10**30),
        den=st.one_of(
            st.integers(min_value=1, max_value=10**30),
            # finite decimals, whose square roots can be exact ties
            st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 40), st.integers(0, 40)),
        ),
        sig=st.integers(min_value=1, max_value=25),
    )
    @example(num=9, den=4, sig=1)  # sqrt = 1.5: a tie, to the even 2
    @example(num=1225, den=10000, sig=1)  # sqrt = 0.35: a tie, to the even 0.4
    @example(num=62501, den=10000, sig=1)  # sqrt = 2.50002: just past a tie, to 3
    @example(num=99, den=1, sig=1)  # sqrt = 9.949...: a carry to 10
    @example(num=10**30 - 1, den=10**10, sig=3)  # just below 10**10: a carry to 1.00e10
    def test_correctly_rounded_in_exact_fractions(self, num, den, sig):
        _assert_sqrt_correctly_rounded(Fraction(num, den), sig)



def _near_powers_of_ten():
    """10**k, 10**k -/+ 10**-40 and 10**k / 3 for k in [-30, 30].

    The two sides of a power of ten put the decimal point in different
    places, and at few figures 10**k - 10**-40 carries up to 10**k.
    """
    tiny = Fraction(1, 10**40)
    for k in range(-30, 31):
        power = Fraction(10) ** k
        yield from (power, power - tiny, power + tiny, power / 3)


def _rounded(x, sig):
    """x > 0 correctly rounded by the decimal module, written with all sig figures."""
    ctx = decimal.Context(prec=sig, rounding=decimal.ROUND_HALF_EVEN)
    d = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return format(ctx.quantize(d, decimal.Decimal(1).scaleb(d.adjusted() - sig + 1)), "f")


class TestPowerOfTenBoundaries:
    @pytest.mark.parametrize("sig", [1, 3, 6, 20])
    def test_to_decimal(self, sig):
        for x in _near_powers_of_ten():
            assert to_decimal(x, sig) == _rounded(x, sig), (x, sig)
            _assert_correctly_rounded(x, sig)
            _assert_correctly_rounded(-x, sig)

    @pytest.mark.parametrize("sig", [1, 3, 6, 20])
    def test_sqrt_decimal_of_squares(self, sig):
        # 10**(2k), just below and above it, and 10**(2k) / 9 (an odd exponent).
        for y in _near_powers_of_ten():
            assert sqrt_decimal(y * y, sig) == _rounded(y, sig), (y, sig)


class TestLongIntegers:
    """Values whose integers Python will not turn into strings (over 4300 digits)."""

    def test_past_the_string_conversion_limit(self):
        tiny = Fraction(1, 3**9500)  # about 10**-4533
        assert to_decimal(tiny) == _rounded(tiny, 6)
        assert to_decimal(1 / tiny, 8) == _rounded(1 / tiny, 8)
        _assert_correctly_rounded(tiny, 6)
        _assert_correctly_rounded(1 / tiny, 8)
        assert sqrt_decimal(tiny * tiny) == _rounded(tiny, 6)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exponent_near_a_hundred_thousand_bits(self, sign):
        for j in range(99_995, 100_005):
            x = Fraction(2) ** (sign * j)
            assert to_decimal(x, 8) == _rounded(x, 8), j
            _assert_correctly_rounded(x, 8)
            assert sqrt_decimal(x * x, 8) == to_decimal(x, 8), j
            _assert_sqrt_correctly_rounded(x * x, 8)
        for k in range(30_101, 30_106):
            power = Fraction(10) ** (sign * k)
            for x in (power, power - power / 10**40, power + power / 10**40):
                assert to_decimal(x, 3) == _rounded(x, 3), (k, x > power)
                _assert_correctly_rounded(x, 3)


class TestCost:
    def test_linear_in_the_denominator_bits(self):
        # A probability over lcm(1, ..., t) has about 1.44 t bits.  Rendering
        # 100 cells at t = 8000 must cost about as much as at t = 1000, not the
        # 64 times of a conversion quadratic in the bit length.
        def best_of_five(t):
            den = math.lcm(*range(1, t + 1))
            cells = [(den * i // 101, den) for i in range(1, 101)]
            best = math.inf
            for _ in range(5):
                start = time.perf_counter()
                for cell in cells:
                    to_decimal(cell)
                best = min(best, time.perf_counter() - start)
            return best

        assert best_of_five(8000) < 8 * best_of_five(1000)
