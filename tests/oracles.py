"""Reference walks that the tests compare the package against, and the
exact helpers only the tests use.

Each walk is slow and simple, and none uses first_hit or its bases: linear
scans, the Euclid solver that first_hit replaced, and the greedy ladder of
Fibonacci steps that find_two_scale walked before it. The helpers are the
fractional part, the distance to the nearest integer, the whole unit
interval, and verify_witness, the tests' shared check of one witness.
"""

import math
from fractions import Fraction

from fibnest.exact import Rat, RatLike, UnitInterval, rat_str
from fibnest.fib import fib
from fibnest.lattice import rotate, steps, witness_point
from fibnest.report import BoundReport, ReportBundle, bound_report


def frac(q: RatLike) -> Rat:
    """Fractional part q - floor(q), always in [0, 1)."""
    q = Fraction(q)
    return q - (q.numerator // q.denominator)


def dist_int(q: RatLike) -> Rat:
    """Distance from q to the nearest integer, in [0, 1/2]."""
    f = frac(q)
    return min(f, 1 - f)


FULL_INTERVAL = UnitInterval(Fraction(0), Fraction(1))


def membership_report(
    name: str, point: Rat, interval: UnitInterval, *, notes: str = ""
) -> BoundReport:
    """point in [lo, hi] encoded as slack = min(point - lo, hi - point)."""
    slack = min(point - interval.lo, interval.hi - point)
    return BoundReport(
        name=name,
        lhs=point,
        rhs=interval.lo,
        slack=slack,
        passed=(slack >= 0),
        notes=notes or f"target [{rat_str(interval.lo)}, {rat_str(interval.hi)}]",
    )


def verify_witness(n: int, a: int, I: UnitInterval, J: UnitInterval) -> ReportBundle:
    """Derive both coordinates from (n, a) and check every condition."""
    fn = fib(n)
    alpha, beta = witness_point(n, a)
    items = (
        bound_report(
            "a-range",
            Fraction(min(a - 1, fn - 1 - a)),
            Fraction(0),
            witness=a,
            notes=f"1 <= a < F_{n} = {fn}",
        ),
        bound_report(
            "coprime",
            Fraction(1),
            Fraction(math.gcd(a, fn)),
            witness=a,
            notes=f"gcd(a, F_{n})",
        ),
        membership_report("alpha-in-I", alpha, I),
        membership_report("beta-in-J", beta, J),
    )
    return ReportBundle(name=f"witness[n={n}, a={a}]", items=items)


def linear_find_brute(n: int, I: UnitInterval, J: UnitInterval):
    """find_brute by scanning every position of I in increasing order; the
    smallest coprime a whose residue lands in J, or None."""
    fn = fib(n)
    a_lo, a_hi = max(math.ceil(I.lo * fn), 1), min(math.floor(I.hi * fn), fn - 1)
    w_lo, w_hi = math.ceil(J.lo * fn), math.floor(J.hi * fn)
    step = fib(n - 1) % fn
    for a in range(a_lo, a_hi + 1):
        if w_lo <= (step * a) % fn <= w_hi and math.gcd(a, fn) == 1:
            return a
    return None


def linear_first_step(s: int, m: int, lo: int, hi: int):
    """The smallest t >= 0 with lo <= s*t mod m <= hi, by walking t = 0 .. m;
    the residues repeat with period dividing m."""
    for t in range(m + 1):
        if lo <= s * t % m <= hi:
            return t
    return None


def first_multiple_in_window(s: int, m: int, lo: int, hi: int, bound: int):
    """Smallest x in [0, bound] with lo <= s*x mod m <= hi, or None, by
    Euclid's algorithm on (m, s).

    Needs 0 <= lo <= hi < m and 0 <= s < m. If no multiple of s lies in
    [lo, hi], write s*x = m*y + v with v in the window: the smallest y is
    the smallest y >= 0 with (m mod s)*y mod s in [(-hi) mod s, (-lo) mod s],
    the same question with (s, m) replaced by (m mod s, s), and then
    x = ceil((m*y + lo) / s). That x grows with y, so x <= bound exactly
    when y <= (s*bound - lo) // m, the next level's bound; every level's
    answer is at least ceil(lo/s), so a level where that exceeds its bound
    is a miss. A call runs O(log bound) levels, on an explicit stack.
    """
    frames = []
    while True:
        if s == 0:
            if lo != 0 or bound < 0:
                return None
            x = 0
            break
        x = -(-lo // s)
        if x > bound:
            return None
        if s * x <= hi:
            break
        frames.append((m, s, lo))
        m, s, lo, hi, bound = s, m % s, (-hi) % s, (-lo) % s, (s * bound - lo) // m
    while frames:
        m, s, lo = frames.pop()
        x = -(-(m * x + lo) // s)
    return x


def euclid_first_hit(n: int, a_lo: int, a_hi: int, w_lo: int, w_hi: int):
    """first_hit by the Euclid solver: with the residue b of a_lo outside the
    window, shifting the window by -b leaves it unwrapped (only b itself
    shifts to 0), and the offset from a_lo is the first multiple of the step
    in the shifted window, at most a_hi - a_lo."""
    if a_lo > a_hi or w_lo > w_hi:
        return None
    fn = fib(n)
    step = fib(n - 1) % fn
    b = step * a_lo % fn
    if w_lo <= b <= w_hi:
        return a_lo
    t = first_multiple_in_window(step, fn, (w_lo - b) % fn, (w_hi - b) % fn, a_hi - a_lo)
    return None if t is None else a_lo + t


def greedy_first_hit(n: int, a_lo: int, a_hi: int, w_lo: int, w_hi: int):
    """Stage 1 of find_two_scale as it was before it called first_hit,
    verbatim. It walks a up from a_lo, taking a step F_k (k = 2, 3, ...)
    whenever its residue move lands no further than the window end, and
    never takes F_{n-1}."""
    if a_lo > a_hi:
        return None
    fn = fib(n)
    if w_lo > w_hi:
        return None
    width = w_hi - w_lo

    a = a_lo
    r = rotate(n, a)
    ladder = steps(n)  # (F_k, the residue step of F_k) for k = 2, 3, ...
    k, (f_k, d) = 2, next(ladder)
    while not w_lo <= r <= w_hi:
        if k > n - 2:
            return None  # granularity exhausted
        if a + f_k > a_hi:
            return None  # all remaining steps are unaffordable
        need = (w_lo - r) % fn
        if 0 < d <= need + width:
            a += f_k
            r = (r + d) % fn
        else:
            k += 1
            f_k, d = next(ladder)
    return a
