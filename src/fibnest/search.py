"""Witness search for coprime numerator placement.

Given an index n and two target windows, find a with 1 <= a < F_n,
gcd(a, F_n) = 1, such that a/F_n lands in I and frac(F_{n-1} a / F_n)
lands in J.

Two strategies are provided:

* find_brute returns the smallest admissible position. It is exhaustive
  (authoritative) and exact at every index: a Euclid-style first-hit
  solver jumps from one position whose residue lands in J to the next in
  O(log F_n) steps, so its cost does not grow with the candidate count.

* find_two_scale corrects the fractional part greedily. A step of F_k
  on a moves the residue F_{n-1} a mod F_n by exactly (-1)^(k-1) F_{n-k},
  so coarse-to-fine Fibonacci steps steer the residue into the middle
  third of J while the position stays in the left half of I; multiples
  of F_{k*} for a near-half index k* coprime to n then restore
  coprimality without leaving either window. All conditions are
  re-verified exactly before a witness is returned.

find_witness takes the strategy by name: "brute", "two_scale", or
"auto", which uses find_brute up to AUTO_BRUTE_MAX candidate positions
and find_two_scale beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Rat, UnitInterval
from .fib import fib, witness_point
from .report import ReportBundle, bound_report, equality_report, membership_report

STRATEGIES = ("auto", "brute", "two_scale")

# auto's crossover: the frozen certificates (stage 3 at n = 82 for pow2,
# n0 = 5) come from the two-scale fallback past this many positions.
AUTO_BRUTE_MAX = 10_000_000


class RangeTooLarge(RuntimeError):
    """Raised by nothing; kept only because the benchmark's span recorder
    (perfbench/spans.py) looks up search.RangeTooLarge."""


class TwoScaleExhausted(RuntimeError):
    """Stage 2 found no coprime a0 + j*F_{k*} inside I."""


@dataclass(frozen=True)
class LemmaWitness:
    n: int
    a: int
    alpha_n: Rat
    beta_n: Rat
    strategy_used: str


def select_kstar(n: int) -> int:
    """The index k in [2, n) coprime to n nearest to n/2, ties to larger k."""
    if n < 4:
        raise ValueError(f"select_kstar needs n >= 4, got {n}")
    # |2k - n| takes values of the parity of n; enumerate outward, larger k first
    t = 0 if n % 2 == 0 else 1
    while t <= n:
        for k in ((n + t) // 2, (n - t) // 2):
            if 2 <= k < n and math.gcd(k, n) == 1 and abs(2 * k - n) == t:
                return k
        t += 2
    raise RuntimeError(f"no admissible k for n={n}")  # unreachable for n >= 4


def _integer_range(n: int, span: UnitInterval) -> tuple[int, int]:
    """The integers k with k/F_n in span and 0 <= k < F_n, as (first, last)."""
    fn = fib(n)
    return math.ceil(span.lo * fn), min(math.floor(span.hi * fn), fn - 1)


def candidate_count(n: int, region: UnitInterval) -> int:
    """The number of positions 1 <= a < F_n with a/F_n in region."""
    lo, hi = _integer_range(n, region)
    return max(0, hi - max(lo, 1) + 1)


def _make_witness(n: int, a: int, strategy: str) -> LemmaWitness:
    alpha, beta = witness_point(n, a)
    return LemmaWitness(n=n, a=a, alpha_n=alpha, beta_n=beta, strategy_used=strategy)


def _first_multiple_in_window(s: int, m: int, lo: int, hi: int) -> int | None:
    """Smallest x >= 0 with lo <= s*x mod m <= hi, or None if there is none.

    Needs 0 <= lo <= hi < m and 0 <= s < m. If no multiple of s lies in
    [lo, hi], write s*x = m*y + v with v in the window: the smallest y is
    the smallest y >= 0 with (m mod s)*y mod s in [(-hi) mod s, (-lo) mod s],
    the same question with (s, m) replaced by (m mod s, s), and then
    x = ceil((m*y + lo) / s). The reduction runs Euclid's algorithm on
    (m, s); Fibonacci moduli are its worst case, with depth about n, so the
    frames live on an explicit stack rather than the call stack.
    """
    frames = []
    while True:
        if s == 0:
            if lo != 0:
                return None
            x = 0
            break
        x = -(-lo // s)
        if s * x <= hi:
            break
        frames.append((m, s, lo))
        m, s, lo, hi = s, m % s, (-hi) % s, (-lo) % s
    while frames:
        m, s, lo = frames.pop()
        x = -(-(m * x + lo) // s)
    return x


def _first_step_into_window(b: int, s: int, m: int, lo: int, hi: int) -> int | None:
    """Smallest t >= 0 with lo <= (b + s*t) mod m <= hi, or None.

    Needs 0 <= b < m and 0 <= lo <= hi < m. When b lies outside the window,
    shifting the window by -b leaves it unwrapped, because only the shift
    of b itself lands on 0.
    """
    if lo <= b <= hi:
        return 0
    return _first_multiple_in_window(s, m, (lo - b) % m, (hi - b) % m)


def find_brute(n: int, I: UnitInterval, J: UnitInterval) -> LemmaWitness | None:
    """Exhaustive search: the smallest qualifying a, or None if none exists.

    The positions whose residue F_{n-1} a mod F_n lands in J are visited in
    increasing order by the first-hit solver, each jump in O(log F_n)
    steps; a hit that is not coprime to F_n re-queries from a + 1. The cost
    grows with log F_n and the number of such hits, not with the candidate
    count, so no range is too large to search.
    """
    if n < 2:
        raise ValueError(f"find_brute needs n >= 2, got {n}")
    fn = fib(n)
    a_lo, a_hi = _integer_range(n, I)
    w_lo, w_hi = _integer_range(n, J)
    if w_lo > w_hi:
        return None
    step = fib(n - 1) % fn
    a = max(a_lo, 1)
    while a <= a_hi:
        t = _first_step_into_window((step * a) % fn, step, fn, w_lo, w_hi)
        if t is None or a + t > a_hi:
            return None
        a += t
        if math.gcd(a, fn) == 1:
            return _make_witness(n, a, "brute")
        a += 1
    return None


def find_two_scale(n: int, I: UnitInterval, J: UnitInterval) -> LemmaWitness | None:
    """Two-scale search; None when the greedy stepping cannot land.

    Stage 1 walks a from the bottom of the position range, correcting the
    residue with steps F_k (k = 2, 3, ...) whenever the forward distance
    to the window start admits the step without overshooting past the
    window end. Stage 2 restores coprimality with a = a0 + j*F_{k*}; it
    never moves a past the right end of I and raises TwoScaleExhausted
    when no such j is left. Drift of the fractional part is caught by the
    final exact verification.
    """
    if n < 4:
        raise ValueError(f"find_two_scale needs n >= 4, got {n}")
    if I.length != J.length or I.length == 0:
        raise ValueError("find_two_scale needs equal positive window lengths")
    fn = fib(n)
    fnm1 = fib(n - 1)
    eta = I.length

    # stage 1: positions restricted to the left half of I, residues to the
    # middle third of J; a = 0 is admissible as a start, stage 2 fixes it up
    a_lo, a_hi = _integer_range(n, UnitInterval(I.lo, I.lo + eta / 2))
    if a_lo > a_hi:
        return None
    third = UnitInterval(J.lo + eta / 3, J.lo + 2 * eta / 3)
    w_lo, w_hi = _integer_range(n, third)
    if w_lo > w_hi:
        return None
    width = w_hi - w_lo

    a = a_lo
    r = (fnm1 * a) % fn
    k = 2
    while not w_lo <= r <= w_hi:
        if k > n - 2:
            return None  # granularity exhausted
        f_k = fib(k)
        if a + f_k > a_hi:
            return None  # all remaining steps are unaffordable
        # F_{n-1} F_k mod F_n is F_{n-k} for odd k, F_n - F_{n-k} for even k
        d = fib(n - k) if k % 2 else fn - fib(n - k)
        need = (w_lo - r) % fn
        if 0 < d <= need + width:
            a += f_k
            r = (r + d) % fn
        else:
            k += 1

    # stage 2: coprimality adjustment within the right half of I
    a0 = a
    if math.gcd(a0, fn) != 1:
        f_kstar = fib(select_kstar(n))
        budget = (_integer_range(n, I)[1] - a0) // f_kstar
        # gcd(F_{k*}, F_n) = 1, so each prime p of F_n rules out only one j in every p
        for j in range(1, budget + 1):
            if math.gcd(a0 + j * f_kstar, fn) == 1:
                a = a0 + j * f_kstar
                break
        else:
            raise TwoScaleExhausted(
                f"no coprime adjustment within j <= {budget} at n={n}"
            )

    if not 1 <= a < fn:
        return None
    witness = _make_witness(n, a, "two_scale")
    if witness.alpha_n in I and witness.beta_n in J:
        return witness
    return None


def find_witness(
    n: int, I: UnitInterval, J: UnitInterval, strategy: str = "auto"
) -> LemmaWitness | None:
    """Strategy dispatch. auto searches exhaustively up to AUTO_BRUTE_MAX
    candidate positions and uses the two-scale search beyond."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "brute" or (
        strategy == "auto" and candidate_count(n, I) <= AUTO_BRUTE_MAX
    ):
        return find_brute(n, I, J)
    try:
        return find_two_scale(n, I, J)
    except TwoScaleExhausted:
        return None


def verify_witness(w: LemmaWitness, I: UnitInterval, J: UnitInterval) -> ReportBundle:
    """Re-derive both coordinates from (n, a) and check every condition."""
    fn = fib(w.n)
    alpha, beta = witness_point(w.n, w.a)
    items = (
        bound_report(
            "a-range",
            Fraction(min(w.a - 1, fn - 1 - w.a)),
            Fraction(0),
            witness=w.a,
            notes=f"1 <= a < F_{w.n} = {fn}",
        ),
        bound_report(
            "coprime",
            Fraction(1),
            Fraction(math.gcd(w.a, fn)),
            witness=w.a,
            notes=f"gcd(a, F_{w.n})",
        ),
        membership_report("alpha-in-I", alpha, I),
        membership_report("beta-in-J", beta, J),
        equality_report("alpha-consistent", w.alpha_n, alpha),
        equality_report("beta-consistent", w.beta_n, beta),
    )
    return ReportBundle(name=f"witness[n={w.n}, a={w.a}]", items=items)
