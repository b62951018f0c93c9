import math
from fractions import Fraction

from hypothesis import given, strategies as st

from fibnest.bounds import convergent_gap
from fibnest.fib import fib
from fibnest.surd import GOLDEN_INV_SQ, GOLDEN_SQ, THRESHOLD_LABEL, Quad

small_rats = st.fractions(min_value=Fraction(-10), max_value=Fraction(10))

SQRT5 = Quad(0, 1)
GOLDEN = Quad(Fraction(1, 2), Fraction(1, 2))


def sign_vs(x, c) -> int:
    """The sign of x - c, the only comparison the package makes."""
    return (Quad.of(x) - c).sign()


def test_defining_identities():
    # golden^2 - golden^-2 = (golden - 1/golden)(golden + 1/golden) = sqrt5
    assert GOLDEN_SQ - GOLDEN_INV_SQ == SQRT5
    # golden^2 = golden + 1
    assert GOLDEN_SQ - 1 == GOLDEN
    # 2/(3+sqrt5) = (3-sqrt5)/2: the product with (3+sqrt5)/2 has norm 1
    a, b = GOLDEN_INV_SQ.a, GOLDEN_INV_SQ.b
    assert (GOLDEN_SQ.a * a + 5 * GOLDEN_SQ.b * b, GOLDEN_SQ.a * b + GOLDEN_SQ.b * a) == (1, 0)


def test_threshold_value_bracket():
    assert sign_vs(Fraction(3819660112, 10**10), GOLDEN_INV_SQ) < 0
    assert sign_vs(Fraction(3819660113, 10**10), GOLDEN_INV_SQ) > 0
    assert THRESHOLD_LABEL == "2/(3+sqrt5)"


def test_known_comparisons():
    assert sign_vs(Fraction(5, 13), GOLDEN_INV_SQ) > 0
    assert sign_vs(Fraction(3, 8), GOLDEN_INV_SQ) < 0
    assert sign_vs(Fraction(1597, 4181), GOLDEN_INV_SQ) > 0
    assert sign_vs(Fraction(987, 2584), GOLDEN_INV_SQ) < 0
    assert sign_vs(1, GOLDEN) < 0
    assert sign_vs(3, SQRT5) > 0


def test_arithmetic_mixed_operands():
    # a rational minus a constant, as report._side_sub forms it
    assert Quad.of(Fraction(1, 2)) - GOLDEN_INV_SQ == Quad(-1, Fraction(1, 2))
    assert Quad.of(5) - SQRT5 == Quad(5, -1)
    # a constant minus a rational or an int
    assert GOLDEN_SQ - Fraction(3, 2) == Quad(0, Fraction(1, 2))
    assert GOLDEN - GOLDEN == Quad(0, 0)
    assert Quad.of(GOLDEN) is GOLDEN


def test_str_rendering():
    assert str(Quad.of(Fraction(1, 2))) == "1/2"
    assert str(SQRT5) == "0 + 1*sqrt(5)"
    assert str(GOLDEN_INV_SQ) == "3/2 - 1/2*sqrt(5)"


def test_decimal_rendering():
    assert GOLDEN_INV_SQ.decimal(50) == (
        "0.38196601125010515179541316563436188227969082019424"
    )
    assert GOLDEN.decimal(10) == "1.6180339887"
    assert SQRT5.decimal(10) == "2.2360679775"
    assert Quad.of(Fraction(1, 4)).decimal(3) == "0.250"
    assert Quad(Fraction(-1, 2), Fraction(-1, 2)).decimal(5) == "-1.61803"


@given(small_rats, small_rats)
def test_sign_matches_float(a, b):
    q = Quad(a, b)
    v = float(a) + float(b) * math.sqrt(5.0)
    if abs(v) > 1e-9:  # away from the float noise floor
        assert q.sign() == (1 if v > 0 else -1)


def test_sign_near_the_boundary():
    # L_k - F_k sqrt5 = 2 psi^k, psi = (1 - sqrt5)/2, has the sign of
    # L_k^2 - 5 F_k^2 = 4 (-1)^k and shrinks like phi^-k: past k of about 40
    # a float cannot tell its sign
    f, f_next, lucas, lucas_next = 0, 1, 2, 1  # F_k, F_{k+1}, L_k, L_{k+1} at k = 0
    for k in range(1, 301):
        f, f_next, lucas, lucas_next = f_next, f + f_next, lucas_next, lucas + lucas_next
        expect = 1 if lucas * lucas - 5 * f * f > 0 else -1
        assert expect == (-1) ** k
        for scale in (Fraction(1), Fraction(1, 3), Fraction(7, 10**9), Fraction(10**40, 17), Fraction(1, fib(97))):
            assert Quad(scale * lucas, -scale * f).sign() == expect, (k, scale)
            assert Quad(-scale * lucas, scale * f).sign() == -expect, (k, scale)


@given(small_rats, small_rats, small_rats, small_rats)
def test_ordering_trichotomy(a1, b1, a2, b2):
    x, y = Quad(a1, b1), Quad(a2, b2)
    s = (x - y).sign()
    assert s == -(y - x).sign()
    assert (s == 0) == (x == y)
    if s < 0:
        assert float(a1) + float(b1) * math.sqrt(5.0) <= float(a2) + float(b2) * math.sqrt(5.0) + 1e-9


@given(small_rats, small_rats, st.integers(min_value=1, max_value=30))
def test_decimal_error_bound(a, b, digits):
    q = Quad(a, b)
    rendered = Fraction(q.decimal(digits))
    # within half an ulp, exactly as for rationals
    diff = Quad.of(rendered) - q
    ulp_half = Fraction(1, 2 * 10**digits)
    assert (diff - (-ulp_half)).sign() >= 0
    assert (Quad.of(ulp_half) - diff).sign() >= 0


def test_convergent_gap_rhs_is_threshold_over_fk_squared():
    for n in range(3, 41):
        for k in range(2, n):
            rhs = convergent_gap(n, k).items[1].rhs
            fk2 = fib(k) ** 2
            assert rhs == Quad(Fraction(3, 2 * fk2), Fraction(-1, 2 * fk2)), (n, k)
