import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibnest.fib import fib, fib_index_at_least, golden_convergent

FIRST_TEN = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_fib_small_table():
    assert [fib(k) for k in range(1, 11)] == FIRST_TEN


def test_fib_known_values():
    assert fib(10) == 55
    assert fib(20) == 6765
    assert fib(28) == 317811
    assert fib(82) == 61305790721611591


@pytest.mark.parametrize("k", [0, -1, -10])
def test_fib_rejects_nonpositive(k):
    with pytest.raises(ValueError):
        fib(k)


@given(st.integers(min_value=1, max_value=300))
def test_fib_recurrence(k):
    assert fib(k + 2) == fib(k + 1) + fib(k)


def test_fib_index_at_least():
    assert fib_index_at_least(1) == 1
    assert fib_index_at_least(2) == 3
    assert fib_index_at_least(89) == 11
    assert fib_index_at_least(90) == 12
    assert fib_index_at_least(6765) == 20


@given(st.integers(min_value=1, max_value=10**9))
def test_fib_index_at_least_is_smallest(bound):
    k = fib_index_at_least(bound)
    assert fib(k) >= bound
    if k > 1:
        assert fib(k - 1) < bound


def test_golden_convergent_values():
    assert golden_convergent(2) == Fraction(1, 1)
    assert golden_convergent(6) == Fraction(5, 8)
    assert golden_convergent(20) == Fraction(4181, 6765)


def test_golden_convergent_rejects_small_index():
    with pytest.raises(ValueError):
        golden_convergent(1)


def continued_fraction(q):
    """Partial quotients [0, a_1, ..., a_m] of q in (0, 1), by Euclid."""
    quotients = [0]
    p, r = q.denominator, q.numerator
    while r:
        quotients.append(p // r)
        p, r = r, p % r
    return quotients


@pytest.mark.parametrize("n", range(4, 26))
def test_cf_expand_convergent_shape(n):
    # the golden convergents expand to all-ones quotients ending in 2
    quots = continued_fraction(golden_convergent(n))
    assert quots[0] == 0
    assert quots[-1] == 2
    assert all(q == 1 for q in quots[1:-1])
    assert len(quots) == n - 1


@pytest.mark.parametrize("m", range(1, 40, 3))
@pytest.mark.parametrize("n", range(1, 40, 3))
def test_fib_gcd_matches_index_gcd(m, n):
    # gcd(F_m, F_n) = F_{gcd(m, n)}
    assert math.gcd(fib(m), fib(n)) == fib(math.gcd(m, n))
