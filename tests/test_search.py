import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fibnest.exact import FULL_INTERVAL, UnitInterval, frac
from fibnest.fib import fib
from fibnest.search import (
    _first_multiple_in_window,
    _first_step_into_window,
    LemmaWitness,
    TwoScaleExhausted,
    candidate_count,
    find_brute,
    find_two_scale,
    find_witness,
    select_kstar,
    verify_witness,
)


def interval_at(lo: Fraction, length: Fraction) -> UnitInterval:
    return UnitInterval(lo, lo + length)


def linear_find_brute(n: int, I: UnitInterval, J: UnitInterval):
    """Oracle: scan every position of I in increasing order; the smallest
    coprime a whose residue lands in J, or None."""
    fn = fib(n)
    a_lo, a_hi = max(math.ceil(I.lo * fn), 1), min(math.floor(I.hi * fn), fn - 1)
    w_lo, w_hi = math.ceil(J.lo * fn), math.floor(J.hi * fn)
    step = fib(n - 1) % fn
    for a in range(a_lo, a_hi + 1):
        if w_lo <= (step * a) % fn <= w_hi and math.gcd(a, fn) == 1:
            return a
    return None


def linear_first_step(b: int, s: int, m: int, lo: int, hi: int):
    """Oracle: walk t = 0 .. m; the residues repeat with period dividing m."""
    for t in range(m + 1):
        if lo <= (b + s * t) % m <= hi:
            return t
    return None


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


# ---- strategy names ----


def test_config_validation():
    # the strategy name is the whole search configuration
    with pytest.raises(ValueError, match="magic"):
        find_witness(6, FULL_INTERVAL, FULL_INTERVAL, "magic")


# ---- find_brute ----


def test_brute_whole_space():
    w = find_brute(6, FULL_INTERVAL, FULL_INTERVAL)
    assert w is not None
    assert (w.n, w.a) == (6, 1)
    assert w.alpha_n == Fraction(1, 8)
    assert w.beta_n == Fraction(5, 8)
    assert w.strategy_used == "brute"


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
    w = find_brute(19, I, J)
    assert w is not None and w.a == 1675
    assert w.beta_n == Fraction(865, 4181)


# ---- first-hit solver ----


FIB_VALUES = {fib(k) for k in range(1, 40)}


@st.composite
def step_problems(draw):
    m = draw(st.integers(min_value=1, max_value=5000))
    assume(m not in FIB_VALUES)
    s = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=m - 1)))
    b = draw(st.integers(min_value=0, max_value=m - 1))
    lo = draw(st.integers(min_value=0, max_value=m - 1))
    hi = draw(st.one_of(st.just(lo), st.integers(min_value=lo, max_value=m - 1)))
    return s, m, b, lo, hi


@settings(max_examples=400, deadline=None)
@given(step_problems())
# the walk from b must wrap past m before it reaches the window
@example((7, 100, 95, 3, 5))
@example((33, 100, 60, 10, 20))
# single-residue windows
@example((37, 100, 0, 41, 41))
@example((10, 100, 3, 41, 41))  # unreachable: every residue is 3 mod 10
# s = 0: only b itself is ever visited
@example((0, 100, 50, 50, 50))
@example((0, 100, 49, 50, 60))
def test_first_step_matches_linear_walk(problem):
    s, m, b, lo, hi = problem
    assert _first_step_into_window(b, s, m, lo, hi) == linear_first_step(b, s, m, lo, hi)
    assert _first_multiple_in_window(s, m, lo, hi) == linear_first_step(0, s, m, lo, hi)


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
    w = find_brute(n, I, J)
    expect = linear_find_brute(n, I, J)
    assert (None if w is None else w.a) == expect
    if w is not None:
        assert verify_witness(w, I, J).passed


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
        w = find_brute(n, I, J)
        assert (None if w is None else w.a) == linear_find_brute(n, I, J)
        if first_hit is not None and math.gcd(first_hit, fn) != 1:
            requeried += 1
    assert requeried > 0


def test_brute_reaches_n2000_with_narrow_windows():
    # consecutive Fibonacci numbers are Euclid's worst case: about n solver
    # frames, far past the recursion limit
    n = 2000
    eta = Fraction(1, 10**200)
    I = interval_at(Fraction(1, 3), eta)
    J = interval_at(Fraction(2, 3), eta)
    w = find_brute(n, I, J)
    assert w is not None and w.strategy_used == "brute"
    assert verify_witness(w, I, J).passed
    # nothing qualifies strictly below the witness
    below = UnitInterval(I.lo, Fraction(w.a - 1, fib(n)))
    assert find_brute(n, below, J) is None


# ---- find_two_scale ----


def test_two_scale_whole_space_degenerate():
    w = find_two_scale(6, FULL_INTERVAL, FULL_INTERVAL)
    assert w is not None and w.a == 1
    assert w.strategy_used == "two_scale"


def test_two_scale_empty_position_range():
    I = interval_at(Fraction(1, 3), Fraction(1, 10**6))
    J = interval_at(Fraction(2, 3), Fraction(1, 10**6))
    assert find_two_scale(20, I, J) is None


def test_two_scale_agrees_with_brute_on_thirds_windows():
    I = interval_at(Fraction(1, 3), Fraction(1, 100))
    J = interval_at(Fraction(2, 3), Fraction(1, 100))
    # exhaustive scan found nothing here, so the guided search must not either
    assert find_two_scale(20, I, J) is None


def test_two_scale_rejects_unequal_lengths():
    I = interval_at(Fraction(0), Fraction(1, 4))
    J = interval_at(Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError):
        find_two_scale(20, I, J)


def _windows_starting_at(n: int, a0: int, eta: Fraction):
    """Windows that make a0 the first position candidate, with the residue
    of a0 centred so the guided walk stops immediately."""
    alo = Fraction(a0, fib(n))
    b0 = frac(Fraction(fib(n - 1) * a0, fib(n)))
    return interval_at(alo, eta), interval_at(b0 - eta / 2, eta)


def test_two_scale_coprimality_repair_single_step():
    # greedy position 37 shares a factor with F_19 = 37*113; one F_10 step fixes it
    I, J = _windows_starting_at(19, 37, Fraction(1, 20))
    w = find_two_scale(19, I, J)
    assert w is not None
    assert w.a == 37 + fib(10)
    assert math.gcd(w.a, fib(19)) == 1
    assert verify_witness(w, I, J).passed


def test_two_scale_coprimality_repair_multi_step():
    # a0 = 2 shares a factor with F_21; three F_11 steps restore coprimality
    I, J = _windows_starting_at(21, 2, Fraction(1, 20))
    w = find_two_scale(21, I, J)
    assert w is not None
    assert w.a == 2 + 3 * fib(11)
    assert math.gcd(w.a, fib(21)) == 1
    assert verify_witness(w, I, J).passed


# ---- stepping identity behind the guided walk ----


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


def test_auto_uses_brute_when_feasible():
    w = find_witness(6, FULL_INTERVAL, FULL_INTERVAL)
    assert w is not None and w.strategy_used == "brute"


def test_auto_switches_beyond_cap():
    # the crossover sits between F_35 - 1 and F_36 - 1 candidate positions
    assert candidate_count(35, FULL_INTERVAL) == 9_227_464
    w = find_witness(35, FULL_INTERVAL, FULL_INTERVAL)
    assert w is not None and w.strategy_used == "brute"
    assert candidate_count(36, FULL_INTERVAL) == 14_930_351
    w = find_witness(36, FULL_INTERVAL, FULL_INTERVAL)
    assert w is not None and w.strategy_used == "two_scale"


def test_forced_strategies():
    w = find_witness(6, FULL_INTERVAL, FULL_INTERVAL, "two_scale")
    assert w is not None and w.strategy_used == "two_scale"
    # brute is exhaustive at any index, far past auto's crossover
    w = find_witness(40, FULL_INTERVAL, FULL_INTERVAL, "brute")
    assert w is not None and (w.a, w.strategy_used) == (1, "brute")


# ---- verify_witness ----


def test_verify_witness_pass():
    w = LemmaWitness(n=6, a=1, alpha_n=Fraction(1, 8), beta_n=Fraction(5, 8), strategy_used="manual")
    rep = verify_witness(w, FULL_INTERVAL, FULL_INTERVAL)
    assert rep.passed
    assert len(rep.items) == 6


def test_verify_witness_gcd_failure():
    w = LemmaWitness(n=6, a=2, alpha_n=Fraction(2, 8), beta_n=Fraction(2, 8), strategy_used="manual")
    rep = verify_witness(w, FULL_INTERVAL, FULL_INTERVAL)
    assert not rep.passed
    failing = [item.name for item in rep.items if not item.passed]
    assert failing == ["coprime"]


def test_verify_witness_membership_failure():
    w = LemmaWitness(n=6, a=1, alpha_n=Fraction(1, 8), beta_n=Fraction(5, 8), strategy_used="manual")
    rep = verify_witness(w, UnitInterval(Fraction(1, 2), Fraction(1)), FULL_INTERVAL)
    assert not rep.passed
    assert any(item.name == "alpha-in-I" and not item.passed for item in rep.items)


def test_verify_witness_catches_tampered_values():
    w = LemmaWitness(n=6, a=1, alpha_n=Fraction(1, 8), beta_n=Fraction(3, 8), strategy_used="manual")
    rep = verify_witness(w, FULL_INTERVAL, FULL_INTERVAL)
    assert any(item.name == "beta-consistent" and not item.passed for item in rep.items)


# ---- randomized agreement ----


def test_random_windows_brute_succeeds_and_verifies():
    rng = random.Random(1447)
    eta = Fraction(1, 20)
    for _ in range(25):
        n = rng.randint(18, 24)
        I = interval_at(Fraction(rng.randint(0, 19 * 50), 20 * 50), eta)
        J = interval_at(Fraction(rng.randint(0, 19 * 50), 20 * 50), eta)
        w = find_brute(n, I, J)
        assert w is not None
        assert verify_witness(w, I, J).passed
        try:
            g = find_two_scale(n, I, J)
        except TwoScaleExhausted:
            g = None
        if g is not None:
            assert verify_witness(g, I, J).passed
