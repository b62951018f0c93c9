"""Exact oracles and certified bounds for the golden rotation.

The central quantity is min_product: for coprime a, the exact minimum
over x = 1..F_n - 1 of dist(a x / F_n) * dist(F_{n-1} a x / F_n), where
dist is the distance to the nearest integer. Everything downstream
compares such minima against the threshold 2/(3+sqrt5) = (3-sqrt5)/2
exactly. The geometry of the rotation that these use lives in lattice.

No function scans: min_product evaluates the four candidates of two
convergent indices (lattice.drift_free_min), littlewood_lower_bound the
2(n - 2) convergent candidates (lattice.candidate_min),
check_nonconvergent_gap walks out from the nearest numerator of each
denominator instead of visiting every y/x, and star_discrepancy induces
the rotation onto shorter arcs, n - 2 integer rounds whatever the point
count.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import Rat, rat_decimal, rat_str
from .fib import fib, golden_convergent
from .lattice import candidate_min, cassini_inverse, drift_free_min
from .nest import Verified
from .report import BoundReport, ReportBundle, bound_report, equality_report
from .surd import GOLDEN_INV_SQ, GOLDEN_SQ, Quad, THRESHOLD_LABEL

class ProxyTooShallow(ValueError):
    """The proxy error is too large to prove the candidate minimum exact."""


@dataclass(frozen=True)
class MinRecord:
    n: int
    a: int
    x_min: int
    value: Rat  # the minimum product itself
    scaled: Rat  # F_n * value


@dataclass(frozen=True)
class ErrorBudget:
    x_max: int
    product_error: Rat  # bound on the product drift over x = 1..x_max


def _implied_epsilon(x: Rat) -> str:
    """Notes text for max(0, 1/x - golden^2): the epsilon with
    x = 1/(golden^2 + epsilon), rendered to 50 places."""
    implied = Quad.of(1 / x) - GOLDEN_SQ
    if implied.sign() < 0:
        implied = Quad.of(0)
    return f"implied epsilon {implied.decimal(50)}"


def _check_witness(n: int, a: int) -> int:
    """Validate a witness (n, a) and return F_n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    fn = fib(n)
    if not 1 <= a < fn:
        raise ValueError(f"need 1 <= a < F_{n} = {fn}, got a = {a}")
    if math.gcd(a, fn) != 1:
        raise ValueError(f"a = {a} is not coprime to F_{n} = {fn}")
    return fn


def min_product(n: int, a: int) -> MinRecord:
    """Exact minimum of the distance product over x = 1..F_n - 1.

    Requires n >= 3, 1 <= a < F_n and gcd(a, F_n) = 1. Ties break to the
    smallest x. No scan is needed: by Legendre's theorem every minimizer is
    a convergent candidate, and by the Lucas identity only the indices
    2, n - 2 and n - 1 reach the minimum F_{n-2}/F_n^2 (see lattice), so
    drift_free_min evaluates their four candidates: O(M(n)) work for n-digit
    multiplication M(n), plus one modular inverse.
    """
    fn = _check_witness(n, a)
    value, x_min = drift_free_min(n, a)
    return MinRecord(n=n, a=a, x_min=x_min, value=value, scaled=fn * value)


def check_min_product_bound(n: int, a: int) -> tuple[BoundReport, MinRecord]:
    """Compare F_n * min_product against 2/(3+sqrt5), exactly."""
    rec = min_product(n, a)
    report = bound_report(
        f"min-product-bound[n={n}, a={a}]",
        rec.scaled,
        GOLDEN_INV_SQ,
        witness=rec.x_min,
        rhs_label=THRESHOLD_LABEL,
        notes=_implied_epsilon(rec.scaled),
    )
    return report, rec


def convergent_family(n: int) -> set[Rat]:
    """All convergents of F_{n-1}/F_n: 0/1, 1/1, 1/2, 2/3, ..., F_{n-1}/F_n."""
    family = {Fraction(0, 1)}
    for k in range(2, n + 1):
        family.add(golden_convergent(k))
    return family


def check_nonconvergent_gap(n: int, x_max: int) -> BoundReport:
    """Over reduced y/x in [0, 1] with x <= x_max, excluding the
    convergent family, check min x^2 |F_{n-1}/F_n - y/x| >= 1/2.

    The minimum is F_n^-1 times the smallest x |c - F_n y|, c = F_{n-1} x,
    with ties going to the smallest x and then the smallest y. For each x,
    y walks outward from floor(c/F_n) and floor(c/F_n) + 1 inside
    0 <= y <= x, always stepping on the nearer side and on a tie taking the
    smaller y first. |c - F_n y| grows strictly with the distance of y from
    c/F_n on each side, so the walk meets y in non-decreasing order with
    ties to the smaller y, and the first admissible y (coprime to x, not a
    convergent) is the one an exhaustive scan of y would keep. The walk
    stops early once x |c - F_n y| reaches the best of the smaller x, which
    a later x must beat strictly. The expected work per x is O(1).
    """
    if n < 3:
        raise ValueError(f"check_nonconvergent_gap needs n >= 3, got {n}")
    fn = fib(n)
    if not 2 <= x_max < fn:
        raise ValueError(f"need 2 <= x_max < F_{n} = {fn}, got {x_max}")
    p = fib(n - 1)
    family = convergent_family(n)
    best_units: Optional[int] = None  # best of x * |p x - fn y|, scaled by fn
    best_pair = (0, 1)
    for x in range(1, x_max + 1):
        c = p * x
        lo = c // fn
        hi = lo + 1
        while lo >= 0 or hi <= x:
            if hi > x or (lo >= 0 and c - fn * lo <= fn * hi - c):
                y, lo = lo, lo - 1
            else:
                y, hi = hi, hi + 1
            units = x * abs(c - fn * y)
            if best_units is not None and units >= best_units:
                break
            if math.gcd(y, x) == 1 and Fraction(y, x) not in family:
                best_units = units
                best_pair = (y, x)
                break
    if best_units is None:
        raise ValueError(f"no non-convergent fraction with x <= {x_max}")
    lhs = Fraction(best_units, fn)
    return bound_report(
        f"nonconvergent-gap[n={n}, x_max={x_max}]",
        lhs,
        Fraction(1, 2),
        witness=best_pair,
        notes=f"minimizing fraction {best_pair[0]}/{best_pair[1]}",
    )


def convergent_gap(n: int, k: int) -> ReportBundle:
    """Exact gap between the n-th and k-th convergents.

    The subtraction must reproduce the closed form F_{n-k}/(F_n F_k);
    the identity is verified, never assumed. The gap is then compared
    against 1/(F_k^2 * golden^2) exactly in Q(sqrt5)."""
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    gap = abs(golden_convergent(n) - golden_convergent(k))
    closed = Fraction(fib(n - k), fib(n) * fib(k))
    identity = equality_report(
        f"convergent-gap-identity[n={n}, k={k}]",
        gap,
        closed,
        notes="subtraction equals F_{n-k}/(F_n F_k)",
    )
    fk2 = Fraction(fib(k)) ** 2
    bound = bound_report(
        f"convergent-gap-bound[n={n}, k={k}]",
        gap,
        Quad(GOLDEN_INV_SQ.a / fk2, GOLDEN_INV_SQ.b / fk2),
        rhs_label=f"1/(F_{k}^2*(golden+1))",
        notes=_implied_epsilon(gap * fk2),
    )
    return ReportBundle(name=f"convergent-gap[n={n}, k={k}]", items=(identity, bound))


@dataclass(frozen=True)
class LittlewoodResult:
    report: BoundReport
    budget: ErrorBudget


def littlewood_lower_bound(verified: Verified, level: int, proxy_level: int) -> LittlewoodResult:
    """Lower bound for Q * min over 1 <= x < Q of dist(alpha x) dist(beta x),
    Q = F_{n_level}, taken for the level stage's own rational (alpha_level,
    beta_level). The proxy stage supplies the deviation radius err (its
    window width delta/F_n^2), and each factor is lowered pointwise:
    dist(alpha x) >= max(0, dist(alpha_level x) - x err) for any alpha
    within err of the stage value. Deeper proxies shrink err, so the lhs
    is non-decreasing in proxy_level; at err = 0 it is min_product.

    The bound does not yet cover the nested point: that point lies in the
    level's window, up to delta_level/Q^2 from the stage rational, not
    within err of it, and on perfbench/fixtures/pow2-5.json it scores
    below the level-2 lhs. ROADMAP item 1 has the sound bound.

    Only a Verified certificate is taken (TypeError otherwise), so the
    level stage is a witness: its a-range, coprime and alpha-def/beta-def
    checks passed, and n > n_0 = 1 with F_n > a >= 1 makes n >= 3.
    Only the convergent candidates are evaluated
    (lattice.candidate_min). Every other x has Q dist(alpha_level x)
    dist(beta_level x) >= 1/2, and since the two distances sum to at most
    1 the drift costs it at most (Q-1) err, so its scaled clamped product
    is >= 1/2 - Q(Q-1) err. When the scaled candidate minimum is not
    strictly below that gap, no point can be ruled out without a scan,
    and ProxyTooShallow is raised instead; this covers every proxy with
    err (Q-1) >= 1/2. The refusal never happens at err = 0, where the
    candidate minimum is exact: a proxy with delta = 0 passes
    verification, which asks only that delta decrease.
    """
    if not isinstance(verified, Verified):
        raise TypeError(f"need a Verified certificate from nest.verify, got {type(verified).__name__}")
    depth = verified.cert.depth
    if depth == 0:
        raise ValueError("the certificate has no stage beyond the seed to bound")
    if not 1 <= level <= depth:
        raise ValueError(f"level must be in [1, {depth}], got {level}")
    if level == depth:
        raise ValueError(f"level {level} is the deepest stage: no deeper stage is left to act as proxy")
    if not level < proxy_level <= depth:
        raise ValueError(f"proxy_level must be in [{level + 1}, {depth}], got {proxy_level}")
    st = verified.cert.stages[level]
    q = fib(st.n)
    err = verified.cert.stages[proxy_level].box.width
    best, best_x = candidate_min(st.n, st.a, err)
    lhs = q * best
    gap = Fraction(1, 2) - q * (q - 1) * err
    if err and lhs >= gap:
        raise ProxyTooShallow(
            f"Q * candidate minimum {rat_str(lhs)} is not below 1/2 - Q(Q-1) err = "
            f"{rat_str(gap)}; proxy level {proxy_level} is too shallow for Q = F_{st.n} = {q}"
        )
    budget = ErrorBudget(x_max=q - 1, product_error=(q - 1) * err)
    report = bound_report(
        f"littlewood-lower-bound[level={level}, proxy={proxy_level}]",
        lhs,
        GOLDEN_INV_SQ,
        witness=best_x,
        rhs_label=THRESHOLD_LABEL,
        notes=(
            f"Q = F_{st.n} = {q}, err = {rat_str(err)}, "
            f"product drift <= {rat_str(budget.product_error)}"
        ),
    )
    return LittlewoodResult(report=report, budget=budget)


# ---- star discrepancy ----


def star_discrepancy_of_points(points: Sequence[Rat]) -> Rat:
    """Exact star discrepancy of a finite point set in [0, 1], by the
    sorted-points formula
        D*_N = max_i max(x_(i) - (i-1)/N, i/N - x_(i)),
    scaled by N times the common denominator to stay in integers."""
    if not points:
        raise ValueError("empty point set")
    pts = sorted(Fraction(p) for p in points)
    if pts[0] < 0 or pts[-1] > 1:
        raise ValueError("points must lie in [0, 1]")
    den = math.lcm(*(p.denominator for p in pts))
    count = len(pts)
    worst = 0
    for i, p in enumerate(pts, start=1):
        r = p.numerator * (den // p.denominator)
        worst = max(worst, r * count - (i - 1) * den, i * den - r * count)
    return Fraction(worst, count * den)


Letter = tuple[int, int, int]  # (sum, max prefix sum, min prefix sum)


def _then(u: Letter, v: Letter) -> Letter:
    """The letter of reading u, then v."""
    return (u[0] + v[0], max(u[1], u[0] + v[1]), min(u[2], u[0] + v[2]))


def _orbit_word(m: int, a: int, arcs: list[tuple[int, Letter]]) -> Letter:
    """The product of the letters read along 0, a, 2a, ..., (m-1)a in Z_m,
    gcd(a, m) = 1, where arcs lists (start, letter) with starts increasing
    from 0 and each letter holding up to the next start (the last up to m).

    Each round induces the rotation on [0, d), d = max(a, c), c = m - a:
    a point y in [d - a, c) steps out to y + a and returns at the next
    step, so it reads its letter and then the letter of y + a; every other
    point returns at once. The induced map is the rotation by a (a < d)
    or a - c (a = d) on Z_d, and the orbit of 0 keeps its order, so the
    word is unchanged. Like subtractive Euclid this ends at m = 1, whose
    single letter is the word.
    """
    while m > 1:
        c = m - a
        d = max(a, c)
        lo, hi = d - a, c
        starts = [s for s, _ in arcs]

        def letter(y: int) -> Letter:
            return arcs[bisect.bisect_right(starts, y) - 1][1]

        # the new letters are constant between these cuts
        shifted = (s - a for s in starts if lo < s - a < hi)
        cuts = sorted({p for p in (0, lo, hi, *starts, *shifted) if p < d})
        arcs = [
            (p, _then(letter(p), letter(p + a)) if lo <= p < hi else letter(p))
            for p in cuts
        ]
        m, a = d, (a if a < d else a - c)
    return arcs[0][1]


def star_discrepancy(n: int, count: int, cap: Optional[Rat] = None) -> BoundReport:
    """Star discrepancy of {frac(F_{n-1} x / F_n) : x = 1..count}.

    D* and count * D* are exact rationals. The logarithmic quotient
    count * D* / ln(count + 1) needs a transcendental denominator, so a
    cap on it is checked against the rational snapshot cap * ln(count+1)
    rounded to 12 places (the snapshot is recorded in the notes; caps
    are measured constants with wide margins, not sharp thresholds).

    Nothing is scanned. Sorted by residue y = 0..F_n - 1, the points are
    x = y a mod F_n with a = F_{n-1}^-1 (lattice.cassini_inverse), an
    orbit of the rotation by a. With N = count and F = F_n, walk y upward
    adding N per residue and subtracting F at each point, before its N.
    The walk ends at 0, and its largest and smallest partial sums are
    max_i (r_i N - (i-1) F) and -max_i (i F - r_i N) of the sorted-points
    formula, so N F D* = max(max, -min). The letter of x is +N on {0} and
    [N+1, F), and -F then +N on [1, N]; _orbit_word multiplies them in
    n - 2 rounds of integer work on at most 4 arcs, whatever count is.
    """
    if n < 3:
        raise ValueError(f"star_discrepancy needs n >= 3, got {n}")
    fn = fib(n)
    if not 1 <= count < fn:
        raise ValueError(f"need 1 <= count < F_{n} = {fn}, got {count}")
    a = cassini_inverse(n)
    plus = (count, count, count)
    arcs = [(0, plus), (1, (count - fn, count - fn, -fn)), (count + 1, plus)]
    _, high, low = _orbit_word(fn, a, arcs if count + 1 < fn else arcs[:2])
    d_star = Fraction(max(high, -low), count * fn)
    scaled = count * d_star
    ratio = float(scaled) / math.log(count + 1)
    notes = (
        f"D* = {rat_str(d_star)}, count*D* = {rat_str(scaled)}, "
        f"count*D*/ln(count+1) = {ratio:.6f}"
    )
    if cap is None:
        return bound_report(
            f"star-discrepancy[n={n}, count={count}]",
            scaled,
            Fraction(0),
            notes=notes,
        )
    cap = Fraction(cap)
    product = float(cap) * math.log(count + 1)
    if math.isinf(product):
        raise ValueError(f"cap {float(cap):g}: the snapshot cap * ln(count + 1) overflows a float")
    snapshot = Fraction(format(product, ".12f"))
    return bound_report(
        f"star-discrepancy[n={n}, count={count}]",
        snapshot,
        scaled,
        notes=notes + f"; cap {rat_decimal(cap, 6)} via snapshot {rat_str(snapshot)}",
    )


# ---- tabulation ----

PRIOR_BOUND = Fraction(5326, 10**6)  # 0.005326, the bound this construction beats


@dataclass(frozen=True)
class LimitRow:
    n: int
    fib_n: int
    scaled: Rat
    strict_pass: bool
    x_min: int


def limit_table(n_from: int, n_to: int) -> list[LimitRow]:
    if not 3 <= n_from <= n_to:
        raise ValueError(f"need 3 <= n_from <= n_to, got {n_from}..{n_to}")
    rows = []
    for n in range(n_from, n_to + 1):
        rec = min_product(n, 1)
        rows.append(
            LimitRow(
                n=n,
                fib_n=fib(n),
                scaled=rec.scaled,
                strict_pass=(Quad.of(rec.scaled) - GOLDEN_INV_SQ).sign() >= 0,
                x_min=rec.x_min,
            )
        )
    return rows


def limit_table_footer(rows: Sequence[LimitRow]) -> str:
    """Footer contrasting the achieved constants with the prior bound."""
    smallest = min(row.scaled for row in rows)
    factor = smallest / PRIOR_BOUND
    return (
        f"# smallest scaled minimum = {rat_decimal(smallest, 12)}; "
        f"prior bound = 0.005326; improvement factor = {rat_decimal(factor, 2)}"
    )


def limit_table_csv(rows: Sequence[LimitRow]) -> str:
    lines = ["n,fib_n,scaled_min,decimal,strict_pass"]
    for row in rows:
        lines.append(
            f"{row.n},{row.fib_n},{rat_str(row.scaled)},"
            f"{rat_decimal(row.scaled, 12)},{'true' if row.strict_pass else 'false'}"
        )
    lines.append(limit_table_footer(rows))
    return "\n".join(lines) + "\n"
