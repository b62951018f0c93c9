import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    FULL_INTERVAL,
    first_multiple_in_window,
    frac,
    greedy_first_hit,
    linear_find_brute,
    linear_first_step,
    verify_witness,
)

from fibnest.exact import UnitInterval
from fibnest.fib import fib
from fibnest.lattice import first_hit, integer_range, rotate, witness_point
from fibnest.search import (
    TwoScaleExhausted,
    candidate_count,
    find_brute,
    find_two_scale,
    find_witness,
    select_kstar,
)


def interval_at(lo: Fraction, length: Fraction) -> UnitInterval:
    return UnitInterval(lo, lo + length)


# ---- select_kstar ----


def test_select_kstar_known():
    assert select_kstar(10) == 7
    assert select_kstar(12) == 7
    assert select_kstar(7) == 4
    assert select_kstar(19) == 10
    assert select_kstar(82) == 43


@pytest.mark.parametrize("n", range(4, 400))
def test_select_kstar_contract(n):
    k = select_kstar(n)
    assert 2 <= k < n
    assert math.gcd(k, n) == 1
    candidates = [j for j in range(2, n) if math.gcd(j, n) == 1]
    best = min(abs(2 * j - n) for j in candidates)
    assert abs(2 * k - n) == best
    # tie toward the larger k
    assert k == max(j for j in candidates if abs(2 * j - n) == best)


def test_select_kstar_stays_near_half():
    # empirical radius over the desk range
    assert all(abs(select_kstar(n) - n / 2) <= 2 for n in range(4, 10**4))


def test_select_kstar_rejects_small():
    with pytest.raises(ValueError):
        select_kstar(3)


# ---- find_brute ----


def test_brute_whole_space():
    assert find_brute(6, FULL_INTERVAL, FULL_INTERVAL) == 1
    assert witness_point(6, 1) == (Fraction(1, 8), Fraction(5, 8))


def test_brute_three_candidate_miss():
    I = UnitInterval(Fraction(1, 4), Fraction(1, 2))
    J = UnitInterval(Fraction(0), Fraction(1, 4))
    assert find_brute(6, I, J) is None


def test_brute_degenerate_residue_system():
    # F_2 = 1 leaves no admissible a at all
    assert find_brute(2, FULL_INTERVAL, FULL_INTERVAL) is None


def test_brute_narrow_windows_at_n20():
    I = interval_at(Fraction(1, 3), Fraction(1, 100))
    J = interval_at(Fraction(2, 3), Fraction(1, 100))
    assert candidate_count(20, I) == 68
    assert find_brute(20, I, J) is None


def test_brute_returns_smallest_a():
    # at n=19 in these windows the candidates 1673, 1674 miss and 1675 hits
    I = UnitInterval(Fraction(2, 5), Fraction(41, 100))
    J = UnitInterval(Fraction(1, 5), Fraction(21, 100))
    assert find_brute(19, I, J) == 1675
    assert witness_point(19, 1675)[1] == Fraction(865, 4181)


# ---- first-hit solver ----


FIB_VALUES = {fib(k) for k in range(1, 40)}


@st.composite
def step_problems(draw):
    m = draw(st.integers(min_value=1, max_value=5000))
    assume(m not in FIB_VALUES)
    s = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=m - 1)))
    lo = draw(st.integers(min_value=0, max_value=m - 1))
    hi = draw(st.one_of(st.just(lo), st.integers(min_value=lo, max_value=m - 1)))
    return s, m, lo, hi


@settings(max_examples=400, deadline=None)
@given(step_problems())
# the walk must wrap past m before it reaches the window
@example((7, 100, 8, 10))
@example((33, 100, 50, 60))
# single-residue windows
@example((37, 100, 41, 41))
@example((10, 100, 38, 38))  # unreachable: every residue is 0 mod 10
# s = 0: only 0 itself is ever visited
@example((0, 100, 0, 0))
@example((0, 100, 1, 11))
def test_first_step_matches_linear_walk(problem):
    s, m, lo, hi = problem
    t = linear_first_step(s, m, lo, hi)
    # bounds below the answer, at it, above it, and negative
    for bound in {-1, 0, m} | (set() if t is None else {t - 1, t, t + 1}):
        expect = t if t is not None and t <= bound else None
        assert first_multiple_in_window(s, m, lo, hi, bound) == expect, bound


@pytest.mark.parametrize("n", range(4, 10))
def test_first_hit_matches_greedy_and_scan_exhaustively(n):
    # every box, empty ones too, whose position range is shorter than 2 F_n
    # (F_{n-1} at n = 9); the greedy only where that range is shorter than
    # F_{n-1}, as in find_two_scale, where it is the left half of I
    fn, greedy_span = fib(n), fib(n - 1)
    span = 2 * fn if n < 9 else greedy_span
    for a_lo in range(fn):
        residues = [rotate(n, a) for a in range(a_lo, a_lo + span)]
        for w_lo in range(fn):
            for w_hi in range(w_lo - 1, fn):
                scan = next((a_lo + t for t, r in enumerate(residues) if w_lo <= r <= w_hi), None)
                for a_hi in range(a_lo - 1, a_lo + span):
                    expect = scan if scan is not None and scan <= a_hi else None
                    assert first_hit(n, a_lo, a_hi, w_lo, w_hi) == expect
                    if a_hi < a_lo + greedy_span:
                        assert greedy_first_hit(n, a_lo, a_hi, w_lo, w_hi) == expect


@st.composite
def two_scale_boxes(draw):
    n = draw(st.integers(min_value=4, max_value=600))
    fn = fib(n)
    # spans of every scale: up to about F_k for a drawn k
    a_lo = draw(st.integers(min_value=0, max_value=fn - 1))
    span = draw(st.integers(min_value=0, max_value=fib(draw(st.integers(2, n - 1))) - 1))
    width = draw(st.integers(min_value=0, max_value=fib(draw(st.integers(1, n))) - 1))
    w_lo = draw(st.integers(min_value=0, max_value=fn - 1 - width))
    return n, a_lo, min(a_lo + span, fn - 1), w_lo, w_lo + width


@settings(max_examples=300, deadline=None)
@given(two_scale_boxes())
def test_first_hit_matches_greedy_deep(box):
    n, a_lo, a_hi, w_lo, w_hi = box
    a = first_hit(n, a_lo, a_hi, w_lo, w_hi)
    assert a == greedy_first_hit(n, a_lo, a_hi, w_lo, w_hi)
    if a is not None:
        assert a_lo <= a <= a_hi and w_lo <= rotate(n, a) <= w_hi
        # nothing hits strictly below a
        assert first_hit(n, a_lo, a - 1, w_lo, w_hi) is None


def test_greedy_misses_single_residue_past_f_n_minus_1():
    # the greedy never takes the step F_5 = 5, so at n = 6 it misses the
    # first hit a = 5 of residue {1}; find_two_scale cannot ask this, as its
    # position range is shorter than F_{n-1}
    assert rotate(6, 5) == 1
    assert greedy_first_hit(6, 0, 5, 1, 1) is None
    assert first_hit(6, 0, 5, 1, 1) == 5
    assert first_hit(6, 0, 4, 1, 1) is None


# ---- find_brute against the linear oracle ----


@st.composite
def brute_problems(draw):
    n = draw(st.integers(min_value=4, max_value=22))
    denom = draw(st.sampled_from([7, 20, 100, 1000, 10**4]))
    length = Fraction(draw(st.integers(min_value=1, max_value=denom)), denom)

    def window():
        lo = Fraction(draw(st.integers(min_value=0, max_value=denom)), denom)
        return UnitInterval(lo, min(lo + length, Fraction(1)))

    return n, window(), window()


@settings(max_examples=300, deadline=None)
@given(brute_problems())
@example((12, UnitInterval(Fraction(0), Fraction(1)), UnitInterval(Fraction(1, 2), Fraction(1))))
@example((21, UnitInterval(Fraction(1, 4), Fraction(1, 2)), UnitInterval(Fraction(3, 7), Fraction(1, 2))))
def test_brute_matches_linear_oracle(problem):
    n, I, J = problem
    a = find_brute(n, I, J)
    assert a == linear_find_brute(n, I, J)
    if a is not None:
        assert verify_witness(n, a, I, J).passed


@pytest.mark.parametrize("n", [6, 9, 12, 15, 18, 21])
def test_brute_requeries_past_non_coprime_hits(n):
    # 3 | n makes F_n even: a hit at an even a must be skipped, not returned
    fn, step = fib(n), fib(n - 1)
    rng = random.Random(n)
    requeried = 0
    for _ in range(60):
        lo_a = rng.randrange(1, fn)
        I = UnitInterval(Fraction(lo_a, fn), Fraction(1))
        w_lo = rng.randrange(fn)
        J = UnitInterval(Fraction(w_lo, fn), Fraction(min(w_lo + fn // 50, fn - 1), fn))
        first_hit = next(
            (a for a in range(lo_a, fn) if J.lo * fn <= (step * a) % fn <= J.hi * fn), None
        )
        assert find_brute(n, I, J) == linear_find_brute(n, I, J)
        if first_hit is not None and math.gcd(first_hit, fn) != 1:
            requeried += 1
    assert requeried > 0


def test_brute_reaches_n2000_with_narrow_windows():
    # a deep index and tiny windows: each first_hit call still walks a
    # handful of lines, whatever n is
    n = 2000
    eta = Fraction(1, 10**200)
    I = interval_at(Fraction(1, 3), eta)
    J = interval_at(Fraction(2, 3), eta)
    a = find_brute(n, I, J)
    assert a is not None
    assert verify_witness(n, a, I, J).passed
    # nothing qualifies strictly below the witness
    below = UnitInterval(I.lo, Fraction(a - 1, fib(n)))
    assert find_brute(n, below, J) is None


# ---- find_two_scale ----


def test_two_scale_whole_space_degenerate():
    assert find_two_scale(6, FULL_INTERVAL, FULL_INTERVAL) == 1


def test_two_scale_empty_position_range():
    I = interval_at(Fraction(1, 3), Fraction(1, 10**6))
    J = interval_at(Fraction(2, 3), Fraction(1, 10**6))
    assert find_two_scale(20, I, J) is None


def test_two_scale_agrees_with_brute_on_thirds_windows():
    I = interval_at(Fraction(1, 3), Fraction(1, 100))
    J = interval_at(Fraction(2, 3), Fraction(1, 100))
    # exhaustive scan found nothing here, so the two-scale search must not either
    assert find_two_scale(20, I, J) is None


def test_two_scale_rejects_unequal_lengths():
    I = interval_at(Fraction(0), Fraction(1, 4))
    J = interval_at(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        find_two_scale(20, I, J)


def _windows_starting_at(n: int, a0: int, eta: Fraction):
    """Windows that make a0 the first position candidate, with the residue
    of a0 centred so stage 1 returns a0."""
    alo = Fraction(a0, fib(n))
    b0 = frac(Fraction(fib(n - 1) * a0, fib(n)))
    return interval_at(alo, eta), interval_at(b0 - eta / 2, eta)


def test_two_scale_coprimality_repair_single_step():
    # stage-1 position 37 shares a factor with F_19 = 37*113; one F_10 step fixes it
    I, J = _windows_starting_at(19, 37, Fraction(1, 20))
    a = find_two_scale(19, I, J)
    assert a == 37 + fib(10)
    assert math.gcd(a, fib(19)) == 1
    assert verify_witness(19, a, I, J).passed


def test_two_scale_coprimality_repair_multi_step():
    # a0 = 2 shares a factor with F_21; three F_11 steps restore coprimality
    I, J = _windows_starting_at(21, 2, Fraction(1, 20))
    a = find_two_scale(21, I, J)
    assert a == 2 + 3 * fib(11)
    assert math.gcd(a, fib(21)) == 1
    assert verify_witness(21, a, I, J).passed


@st.composite
def equal_length_windows(draw):
    n = draw(st.integers(min_value=4, max_value=400))
    den = draw(st.integers(min_value=1, max_value=10**60))
    eta = Fraction(draw(st.integers(min_value=1, max_value=den)), den)

    def window():
        d = draw(st.integers(min_value=1, max_value=10**60))
        lo = (1 - eta) * Fraction(draw(st.integers(min_value=0, max_value=d)), d)
        return interval_at(lo, eta)

    return n, window(), window()


@settings(max_examples=300, deadline=None)
@given(equal_length_windows())
@example((20, interval_at(Fraction(0), Fraction(1)), interval_at(Fraction(0), Fraction(1))))
@example((82, interval_at(Fraction(1, 3), Fraction(1, 10**30)), interval_at(Fraction(2, 3), Fraction(1, 10**30))))
def test_two_scale_integer_windows_match_fraction_windows(problem):
    n, I, J = problem
    fn, eta = fib(n), I.length
    # the Fraction forms stage 1 once built: the left half of I, the middle third of J
    half = UnitInterval(I.lo, I.lo + eta / 2)
    third = UnitInterval(J.lo + eta / 3, J.lo + 2 * eta / 3)
    for span in (I, J, half, third):
        assert integer_range(n, span) == (math.ceil(span.lo * fn), min(math.floor(span.hi * fn), fn - 1))
    with mock.patch("fibnest.search.first_hit", wraps=first_hit) as spy:
        try:
            a = find_two_scale(n, I, J)
        except TwoScaleExhausted:
            a = None
    spy.assert_called_once_with(n, *integer_range(n, half), *integer_range(n, third))
    # the final integer check admits only witnesses that verify in Fractions
    if a is not None:
        assert verify_witness(n, a, I, J).passed


# ---- step identity (lattice.steps) ----


@pytest.mark.parametrize("n", range(3, 31))
def test_residue_step_identity(n):
    # frac(F_{n-1} F_k / F_n) is F_{n-k}/F_n or its complement, by parity of k
    for k in range(2, n):
        got = frac(Fraction(fib(n - 1) * fib(k), fib(n)))
        expect = Fraction(fib(n - k), fib(n))
        if k % 2 == 1:
            assert got == expect
        else:
            assert got == 1 - expect


# ---- find_witness dispatch ----


# on these windows the two searches return different witnesses at every
# index below, so each dispatch shows which route answered
SPLIT_I = UnitInterval(Fraction(1, 4), Fraction(1))
SPLIT_J = UnitInterval(Fraction(0), Fraction(3, 4))


def test_auto_uses_brute_when_feasible():
    assert (find_brute(6, SPLIT_I, SPLIT_J), find_two_scale(6, SPLIT_I, SPLIT_J)) == (5, 7)
    assert find_witness(6, SPLIT_I, SPLIT_J) == 5


def test_auto_switches_beyond_cap():
    # the crossover sits between F_35 - 1 and F_36 - 1 candidate positions,
    # and I keeps 3/4 of them
    assert candidate_count(35, FULL_INTERVAL) == 9_227_464
    brute, two_scale = find_brute(35, SPLIT_I, SPLIT_J), find_two_scale(35, SPLIT_I, SPLIT_J)
    assert brute != two_scale
    assert find_witness(35, SPLIT_I, SPLIT_J) == brute
    assert candidate_count(36, SPLIT_I) == 11_197_764
    brute, two_scale = find_brute(36, SPLIT_I, SPLIT_J), find_two_scale(36, SPLIT_I, SPLIT_J)
    assert brute != two_scale
    assert find_witness(36, SPLIT_I, SPLIT_J) == two_scale


def test_forced_strategies():
    # each search called by name: brute is exhaustive at any index, far
    # past find_witness's crossover, where find_witness takes the two-scale
    # route
    assert find_two_scale(6, SPLIT_I, SPLIT_J) == 7
    for n in (6, 40):
        assert find_brute(n, SPLIT_I, SPLIT_J) != find_two_scale(n, SPLIT_I, SPLIT_J)
    assert find_witness(40, SPLIT_I, SPLIT_J) == find_two_scale(40, SPLIT_I, SPLIT_J)


# ---- verify_witness ----


def test_verify_witness_pass():
    rep = verify_witness(6, 1, FULL_INTERVAL, FULL_INTERVAL)
    assert rep.passed
    assert [item.name for item in rep.items] == ["a-range", "coprime", "alpha-in-I", "beta-in-J"]


def test_verify_witness_gcd_failure():
    rep = verify_witness(6, 2, FULL_INTERVAL, FULL_INTERVAL)
    assert not rep.passed
    failing = [item.name for item in rep.items if not item.passed]
    assert failing == ["coprime"]


def test_verify_witness_membership_failure():
    rep = verify_witness(6, 1, UnitInterval(Fraction(1, 2), Fraction(1)), FULL_INTERVAL)
    assert not rep.passed
    assert any(item.name == "alpha-in-I" and not item.passed for item in rep.items)


# ---- randomized agreement ----


def test_random_windows_brute_succeeds_and_verifies():
    rng = random.Random(1447)
    eta = Fraction(1, 20)
    for _ in range(25):
        n = rng.randint(18, 24)
        I = interval_at(Fraction(rng.randint(0, 19 * 50), 20 * 50), eta)
        J = interval_at(Fraction(rng.randint(0, 19 * 50), 20 * 50), eta)
        a = find_brute(n, I, J)
        assert a is not None
        assert verify_witness(n, a, I, J).passed
        try:
            g = find_two_scale(n, I, J)
        except TwoScaleExhausted:
            g = None
        if g is not None:
            assert verify_witness(n, g, I, J).passed
