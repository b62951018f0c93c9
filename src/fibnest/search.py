"""Witness search for coprime numerator placement.

Given an index n and two target windows, find a with 1 <= a < F_n and
gcd(a, F_n) = 1 whose witness point (lattice.witness_point) lies in I x J;
each search returns that integer a, or None. Both strategies ask one
exact solver, lattice.first_hit, for the first lattice point in a box;
any box crosses fewer than 15 lines of the basis first_hit picks for its
shape, so a hit or a miss costs a few big-integer divisions. The boxes
are integer ranges formed from the windows' numerators and denominators,
with no Fraction arithmetic. find_brute is that search, exhaustive at
every index; find_two_scale is a policy on it: a smaller box, then a
coprime repair, with its result re-checked exactly. find_witness, the
search nest.build runs, picks between them by candidate count.
"""

from __future__ import annotations

import math

from .exact import UnitInterval
from .fib import fib
from .lattice import first_hit, hits, integer_range, rotate

# find_witness's crossover: the frozen certificates (stage 3 at n = 82 for pow2,
# n0 = 5) come from the two-scale fallback past this many positions.
AUTO_BRUTE_MAX = 10_000_000


class RangeTooLarge(RuntimeError):
    """Raised by nothing; kept only because the benchmark's span recorder
    (perfbench/spans.py) looks up search.RangeTooLarge."""


class TwoScaleExhausted(RuntimeError):
    """Stage 2 found no coprime a0 + j*F_{k*} inside I."""


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


def candidate_count(n: int, region: UnitInterval) -> int:
    """The number of positions 1 <= a < F_n with a/F_n in region."""
    lo, hi = integer_range(n, region)
    return max(0, hi - max(lo, 1) + 1)


def find_brute(n: int, I: UnitInterval, J: UnitInterval) -> int | None:
    """Exhaustive search: the smallest qualifying a, or None if none exists.
    It walks lattice.hits, the positions whose residue lands in J, up to
    the first one coprime to F_n, so no range is too large to search."""
    if n < 2:
        raise ValueError(f"find_brute needs n >= 2, got {n}")
    fn = fib(n)
    for a in hits(n, I, J):
        if math.gcd(a, fn) == 1:
            return a
    return None


def find_two_scale(n: int, I: UnitInterval, J: UnitInterval) -> int | None:
    """Two-scale search; None when stage 1 finds no position or the result
    fails the final exact check.

    Stage 1 takes the first position in the left half of I whose residue
    lies in the middle third of J (lattice.first_hit). Stage 2 restores
    coprimality with a = a0 + j*F_{k*}; it never moves a past the right end
    of I and raises TwoScaleExhausted when no such j is left. Drift of the
    fractional part is caught by the final exact check, in integers:
    integer_range gives exactly the k < F_n with k/F_n in a window, so beta
    is in J exactly when r_lo <= F_{n-1} a mod F_n <= r_hi, and alpha is in
    I exactly when a_lo <= a <= a_end < F_n. Here a >= a0 >= a_lo, and
    a >= 1 since gcd(0, F_n) = F_n > 1 moves a0 = 0, so a <= a_end is
    the rest.
    """
    if n < 4:
        raise ValueError(f"find_two_scale needs n >= 4, got {n}")
    if I.length != J.length or I.length == 0:
        raise ValueError("find_two_scale needs equal positive window lengths")
    fn = fib(n)
    a_lo, a_end = integer_range(n, I)

    # stage 1: positions restricted to the left half of I, residues to the
    # middle third of J; a = 0 is admissible as a start, stage 2 fixes it up.
    # With |I| = |J| these are (lo_I + hi_I)/2 and (2 lo_J + hi_J)/3 ..
    # (lo_J + 2 hi_J)/3, each below 1, taken times F_n in integers
    p, q, r, s = I.lo.numerator, I.lo.denominator, I.hi.numerator, I.hi.denominator
    a_hi = (p * s + r * q) * fn // (2 * q * s)
    p, q, r, s = J.lo.numerator, J.lo.denominator, J.hi.numerator, J.hi.denominator
    den = 3 * q * s
    w_lo = -(-(2 * p * s + r * q) * fn // den)
    w_hi = (p * s + 2 * r * q) * fn // den
    a = first_hit(n, a_lo, a_hi, w_lo, w_hi)
    if a is None:
        return None

    # stage 2: coprimality adjustment within the right half of I
    a0 = a
    if math.gcd(a0, fn) != 1:
        f_kstar = fib(select_kstar(n))
        budget = (a_end - a0) // f_kstar
        # gcd(F_{k*}, F_n) = 1, so each prime p of F_n rules out only one j in every p
        for j in range(1, budget + 1):
            if math.gcd(a0 + j * f_kstar, fn) == 1:
                a = a0 + j * f_kstar
                break
        else:
            raise TwoScaleExhausted(
                f"no coprime adjustment within j <= {budget} at n={n}"
            )

    r_lo, r_hi = integer_range(n, J)
    return a if a <= a_end and r_lo <= rotate(n, a) <= r_hi else None


def find_witness(n: int, I: UnitInterval, J: UnitInterval) -> int | None:
    """The exhaustive search up to AUTO_BRUTE_MAX candidate positions, the
    two-scale search beyond."""
    if candidate_count(n, I) <= AUTO_BRUTE_MAX:
        return find_brute(n, I, J)
    try:
        return find_two_scale(n, I, J)
    except TwoScaleExhausted:
        return None
