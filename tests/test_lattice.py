"""The identities lattice states, checked by direct computation: the
bases, the cell lemma, and first_hit against the Euclid solver and within
its line bound."""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import FULL_INTERVAL, euclid_first_hit

from fibnest import lattice
from fibnest.exact import UnitInterval
from fibnest.fib import fib
from fibnest.lattice import Box, basis, cassini_inverse, cover_span, first_hit, near, rotate, steps


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
    for n in range(3, 201):
        for k in range(1, n - 1):
            (ua, ur), (va, vr) = basis(n, k)
            # lattice vectors: each residue is its position's rotation
            assert ur % fib(n) == rotate(n, ua) and vr % fib(n) == rotate(n, va), (n, k)
            assert ua * vr - ur * va == (-1) ** k * fib(n), (n, k)


def widest_gap(n: int, a0: int, count: int) -> int:
    """The longest run of consecutive residues, cyclically mod F_n, that
    none of the positions a0 .. a0 + count - 1 takes, plus one."""
    fn = fib(n)
    r = sorted({rotate(n, a) for a in range(a0, a0 + count)})
    return max(b - a for a, b in zip(r, r[1:] + [r[0] + fn]))


def test_cell_lemma_exhaustively():
    # any F_{k+2} consecutive positions meet every run of F_{n-k+1}
    # consecutive residues, for every basis
    for n in range(3, 15):
        for k in range(1, n - 1):
            assert all(widest_gap(n, a0, fib(k + 2)) <= fib(n - k + 1) for a0 in range(fib(n))), (n, k)


def test_cover_span_covers_every_residue_run():
    # cover_span depends on rows only through its bit length, and the
    # smallest rows of each bit length is the hardest to meet
    for n in range(3, 15):
        fn = fib(n)
        for bits in range(1, fn.bit_length() + 1):
            rows = 2 ** (bits - 1)
            span = cover_span(n, rows)
            assert span <= fn and cover_span(n, min(2 * rows - 1, fn)) == span
            assert all(widest_gap(n, a0, span) <= rows for a0 in range(fn)), (n, rows)


# boxes that crossed 35 and 36 lines of the old fixed basis k = n // 2
_A_LO, _W_LO = 10**19, 3 * 10**19
FIXED_BASIS_35 = (100, _A_LO, _A_LO + 18_820_862_046, _W_LO, _W_LO + 600_000_000_000)
FIXED_BASIS_36 = (100, _A_LO, _A_LO + 18_820_862_046, _W_LO, _W_LO + 615_000_000_000)
# thin and tall: about F_151 lines of that basis for a range of 3 positions
THIN_TALL = (300, 12_345, 12_348, rotate(300, 12_345) + 1, fib(300) - 1)
# a box of side sqrt(F_n), the size of a build's target
SQUARE = (300, 10**60, 10**60 + math.isqrt(fib(300)), 10**61, 10**61 + math.isqrt(fib(300)))
# wide and flat: half the positions, 4 residues, none of them a_lo's
WIDE_FLAT = (500, fib(500) // 7, fib(500) // 7 + fib(500) // 2, fib(500) // 3, fib(500) // 3 + 3)
NAMED_BOXES = (FIXED_BASIS_35, FIXED_BASIS_36, THIN_TALL, SQUARE, WIDE_FLAT)


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
@example(FIXED_BASIS_35)
@example(FIXED_BASIS_36)
@example(THIN_TALL)
@example(SQUARE)
@example(WIDE_FLAT)
def test_first_hit_matches_euclid_solver(box):
    n, a_lo, a_hi, w_lo, w_hi = box
    a = first_hit(*box)
    assert a == euclid_first_hit(*box)
    if a is not None:
        assert a_lo <= a <= a_hi and w_lo <= rotate(n, a) <= w_hi
        # nothing hits strictly below a
        assert euclid_first_hit(n, a_lo, a - 1, w_lo, w_hi) is None


@contextmanager
def line_bounds():
    """A function of a box: 1 + ((c - 1) |v_r| + (w - 1) v_a)/F_n for the
    basis and the capped position range that first_hit uses on it, which
    bound the lines it walks; basis and cover_span are wrapped to see them."""
    used = {}

    def spy_basis(n, k):
        used["basis"] = basis(n, k)
        return used["basis"]

    def spy_cover(n, rows):
        used["span"] = cover_span(n, rows)
        return used["span"]

    def bound(box):
        used.clear()
        first_hit(*box)
        n, a_lo, a_hi, w_lo, w_hi = box
        a_hi = min(a_hi, a_lo + used.get("span", a_hi - a_lo + 1) - 1)
        _, (va, vr) = used["basis"]
        return 1 + ((a_hi - a_lo) * abs(vr) + (w_hi - w_lo) * va) // fib(n)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(lattice, "basis", spy_basis)
        monkeypatch.setattr(lattice, "cover_span", spy_cover)
        yield bound


@settings(max_examples=300, deadline=None)
@given(lattice_boxes())
def test_first_hit_crosses_fewer_than_15_lines(box):
    # the line bound proved in the module docstring
    with line_bounds() as bound:
        assert bound(box) < 15


def test_first_hit_lines_on_named_boxes_and_every_shape():
    with line_bounds() as bound:
        for box in NAMED_BOXES:
            assert bound(box) <= 5, box
        # every pair of bit lengths of the position and residue ranges, at
        # the top of each: at most 5 lines, below the proved 15
        for n in list(range(3, 60)) + [100, 200]:
            fn = fib(n)
            for a_bits in range(1, fn.bit_length() + 2):
                for r_bits in range(1, fn.bit_length() + 1):
                    rows = min(2**r_bits - 1, fn)
                    box = (n, fn // 3, fn // 3 + 2**a_bits - 2, fn - rows, fn - 1)
                    assert bound(box) <= 5, box


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
