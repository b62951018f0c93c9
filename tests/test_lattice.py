"""The identities lattice states, checked by direct computation, and the
line enumeration of first_hit checked against the Euclid solver."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibnest import lattice
from fibnest.exact import FULL_INTERVAL, UnitInterval
from fibnest.fib import fib
from fibnest.lattice import Box, _first_multiple_in_window, basis, cassini_inverse, first_hit, near, rotate, steps


def test_steps_are_the_rotated_fibonacci_steps():
    for n in range(3, 91):
        assert list(steps(n)) == [(fib(k), fib(n - 1) * fib(k) % fib(n)) for k in range(2, n)], n


def test_cassini_inverse_inverts_the_rotation():
    for n in range(3, 201):
        assert cassini_inverse(n) * fib(n - 1) % fib(n) == 1, n


def test_three_indices_hold_the_minimum():
    # drift_free_min's Lucas argument: candidate k scores near(F_k) near(F_{n-k}),
    # and only k = 2, n - 2 and n - 1 reach F_{n-2}
    for n in range(3, 201):
        fn = fib(n)
        scores = {k: near(fib(k), fn) * near(fib(n - k), fn) for k in range(2, n)}
        assert min(scores.values()) == fib(n - 2), n
        assert {k for k, s in scores.items() if s == fib(n - 2)} == {2, n - 2, n - 1} - {1}, n


def test_basis_is_a_basis_of_the_lattice():
    for n in range(3, 301):
        (ua, ur), (va, vr) = basis(n)
        # lattice vectors: each residue is its position's rotation
        assert ur % fib(n) == rotate(n, ua) and vr % fib(n) == rotate(n, va), n
        assert ua * vr - ur * va == (-1) ** (n // 2) * fib(n), n


def euclid_first_hit(n: int, a_lo: int, a_hi: int, w_lo: int, w_hi: int):
    """Oracle: first_hit by the Euclid solver alone, the residue b of a_lo
    shifted to 0."""
    if a_lo > a_hi:
        return None
    fn = fib(n)
    step = fib(n - 1) % fn
    b = step * a_lo % fn
    if w_lo <= b <= w_hi:
        return a_lo
    t = _first_multiple_in_window(step, fn, (w_lo - b) % fn, (w_hi - b) % fn, a_hi - a_lo)
    return None if t is None else a_lo + t


# at n = 100 the box below crosses 35 lines, as many as the bit length of
# its position range, and takes the lines; 36 lines take the Euclid solver
_A_LO, _W_LO = 10**19, 3 * 10**19
LINES_AT_LIMIT = (100, _A_LO, _A_LO + 18_820_862_046, _W_LO, _W_LO + 600_000_000_000)
LINES_PAST_LIMIT = (100, _A_LO, _A_LO + 18_820_862_046, _W_LO, _W_LO + 615_000_000_000)
# thin and tall: about F_151 lines for a range of 3 positions
THIN_TALL = (300, 12_345, 12_348, rotate(300, 12_345) + 1, fib(300) - 1)
# a box of side sqrt(F_n), the size of a build's target
SQUARE = (300, 10**60, 10**60 + math.isqrt(fib(300)), 10**61, 10**61 + math.isqrt(fib(300)))


def test_first_hit_path_follows_the_line_count(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _first_multiple_in_window(*args)

    monkeypatch.setattr(lattice, "_first_multiple_in_window", counted)
    for box, euclid in ((LINES_AT_LIMIT, False), (SQUARE, False), (LINES_PAST_LIMIT, True), (THIN_TALL, True)):
        n, a_lo, _, w_lo, w_hi = box
        # the Euclid path returns a_lo without a solver call if its residue hits
        assert not w_lo <= rotate(n, a_lo) <= w_hi
        calls.clear()
        first_hit(*box)
        assert bool(calls) == euclid, box


@st.composite
def lattice_boxes(draw):
    n = draw(st.integers(min_value=4, max_value=700))
    fn = fib(n)
    root = math.isqrt(fn)
    side = st.integers(min_value=root // 100, max_value=30 * root)
    da, dr = draw(
        st.one_of(
            st.tuples(side, side),
            st.tuples(st.integers(0, 3), st.integers(0, fn - 1)),  # thin and tall
            st.tuples(st.integers(0, fn - 1), st.integers(0, 3)),  # wide and flat
        )
    )
    dr = min(dr, fn - 1)
    a_lo = draw(st.integers(min_value=0, max_value=fn - 1))
    w_lo = draw(st.integers(min_value=0, max_value=fn - 1 - dr))
    return n, a_lo, a_lo + da, w_lo, w_lo + dr


@settings(max_examples=400, deadline=None)
@given(lattice_boxes())
@example(LINES_AT_LIMIT)
@example(LINES_PAST_LIMIT)
@example(THIN_TALL)
@example(SQUARE)
def test_first_hit_matches_euclid_solver(box):
    n, a_lo, a_hi, w_lo, w_hi = box
    a = first_hit(*box)
    assert a == euclid_first_hit(*box)
    if a is not None:
        assert a_lo <= a <= a_hi and w_lo <= rotate(n, a) <= w_hi
        # nothing hits strictly below a
        assert euclid_first_hit(n, a_lo, a - 1, w_lo, w_hi) is None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_box_windows_width_and_half(data):
    n = data.draw(st.integers(2, 300))
    fn = fib(n)
    a = data.draw(st.integers(0, fn - 1).filter(lambda a: math.gcd(a, fn) == 1))
    delta = data.draw(st.fractions(Fraction(0), Fraction(1), max_denominator=10**9).filter(bool))
    box = Box(n, a, delta)
    point = (Fraction(a, fn), Fraction(fib(n - 1) * a % fn, fn))
    assert box.point == point
    assert box.windows() == tuple(UnitInterval(c, c + delta / fn**2) for c in point)
    # the half box is the old build target: the left half of each window
    assert box.half().windows() == tuple(UnitInterval(w.lo, w.lo + (w.hi - w.lo) / 2) for w in box.windows())
    # so build's first index is fib_index_at_least of ceil(2 F_n^2 / delta)
    assert math.ceil(1 / box.half().width) == -(-2 * fn**2 * delta.denominator // delta.numerator)


def test_box_of_the_seed_is_the_unit_square():
    seed = Box(1, 0, Fraction(1))
    assert seed.point == (0, 0) and seed.width == 1
    assert seed.windows() == (FULL_INTERVAL, FULL_INTERVAL)
    # every residue mod F_1 = 1 is 0, so any a has a point at n = 1
    assert rotate(1, 7) == 0
    assert Box(1, 7, Fraction(1, 2)).point == (7, 0)
