from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import FULL_INTERVAL, dist_int, frac

from fibnest.exact import DECIMAL_DIGITS, UnitInterval, rat_decimal, rat_str

rationals = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


def test_frac_known():
    assert frac(Fraction(5, 3)) == Fraction(2, 3)
    assert frac(Fraction(-1, 8)) == Fraction(7, 8)
    assert frac(3) == 0


def test_dist_int_known():
    assert dist_int(Fraction(5, 8)) == Fraction(3, 8)
    assert dist_int(Fraction(7, 5)) == Fraction(2, 5)
    assert dist_int(3) == 0
    assert dist_int(Fraction(1, 2)) == Fraction(1, 2)


@given(rationals)
def test_frac_range_and_periodicity(q):
    f = frac(q)
    assert 0 <= f < 1
    assert frac(q + 1) == f
    assert (q - f).denominator == 1


@given(rationals)
def test_dist_int_properties(q):
    d = dist_int(q)
    assert 0 <= d <= Fraction(1, 2)
    assert dist_int(-q) == d
    assert dist_int(q + 1) == d
    # d is realized by some integer
    assert min(abs(q - round(q)), abs(q - round(q) - 1), abs(q - round(q) + 1)) == d


def test_interval_basic():
    iv = UnitInterval(Fraction(1, 4), Fraction(3, 4))
    assert iv.length == Fraction(1, 2)
    assert Fraction(1, 4) in iv
    assert Fraction(3, 4) in iv
    assert Fraction(7, 8) not in iv


def test_interval_accepts_degenerate():
    point = UnitInterval(Fraction(1, 3), Fraction(1, 3))
    assert point.length == 0
    assert Fraction(1, 3) in point


def test_full_interval():
    assert FULL_INTERVAL.lo == 0
    assert FULL_INTERVAL.hi == 1
    assert FULL_INTERVAL.length == 1


@pytest.mark.parametrize(
    "lo, hi",
    [(Fraction(1, 2), Fraction(1, 4)), (Fraction(-1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 4))],
)
def test_interval_validation(lo, hi):
    with pytest.raises(ValueError):
        UnitInterval(lo, hi)


@given(rationals)
def test_rat_str_round_trip(q):
    assert Fraction(rat_str(q)) == q


def test_rat_str_always_has_denominator():
    assert rat_str(Fraction(3)) == "3/1"
    assert rat_str(Fraction(5, 8)) == "5/8"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


def test_rat_decimal_round_half_even():
    assert rat_decimal(Fraction(1, 8), 2) == "0.12"
    assert rat_decimal(Fraction(3, 8), 2) == "0.38"
    assert rat_decimal(Fraction(-1, 8), 2) == "-0.12"
    assert rat_decimal(Fraction(1, 3), 5) == "0.33333"
    assert rat_decimal(Fraction(2, 3), 5) == "0.66667"


def test_rat_decimal_default_width():
    out = rat_decimal(Fraction(5, 13))
    assert out == "0.38461538461538461538461538461538461538461538461538"
    assert len(out.split(".")[1]) == DECIMAL_DIGITS


def test_rat_decimal_rejects_zero_digits():
    with pytest.raises(ValueError):
        rat_decimal(Fraction(1, 2), 0)


@given(rationals, st.integers(min_value=1, max_value=40))
def test_rat_decimal_error_bound(q, digits):
    # rendered value is within half an ulp of the exact rational
    text = rat_decimal(q, digits)
    rendered = Fraction(text)
    assert abs(rendered - q) <= Fraction(1, 2 * 10**digits)
