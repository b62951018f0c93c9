import bisect
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import dist_int

from fibnest import bounds, lattice
from fibnest.bounds import (
    PRIOR_BOUND,
    MinRecord,
    ProxyTooShallow,
    check_min_product_bound,
    check_nonconvergent_gap,
    convergent_family,
    convergent_gap,
    limit_table,
    limit_table_csv,
    limit_table_footer,
    littlewood_lower_bound,
    min_product,
    star_discrepancy,
    star_discrepancy_of_points,
)
from fibnest.exact import UnitInterval, rat_str
from fibnest.fib import fib
from fibnest.nest import Certificate, Stage, Verified, build, seed_stage, verify
from fibnest.report import bound_report
from fibnest.surd import GOLDEN_INV_SQ, Quad


# ---- min_product ----


def scan_min_product(n, a):
    """Reference oracle: the exhaustive scan over x = 1..F_n - 1."""
    fn = fib(n)
    b = (a * fib(n - 1)) % fn

    def units(x):
        r1, r2 = (a * x) % fn, (b * x) % fn
        return min(r1, fn - r1) * min(r2, fn - r2)

    x_min = min(range(1, fn), key=units)  # first minimum = smallest x
    best = units(x_min)
    return MinRecord(n, a, x_min, Fraction(best, fn * fn), Fraction(best, fn))


def test_min_product_matches_scan_every_a():
    for n in range(3, 18):
        fn = fib(n)
        for a in range(1, fn):
            if math.gcd(a, fn) == 1:
                assert min_product(n, a) == scan_min_product(n, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=18, max_value=25), st.integers(min_value=1))
def test_min_product_matches_scan_sampled_a(n, seed):
    fn = fib(n)
    a = seed % (fn - 1) + 1
    while math.gcd(a, fn) != 1:
        a = a % (fn - 1) + 1
    assert min_product(n, a) == scan_min_product(n, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=90), st.integers(min_value=1))
@example(3, 1)
@example(4, 1)
@example(5, 1)  # with the edges below, every coprime a for n = 3, 4, 5
def test_min_product_matches_candidate_walk(n, seed):
    # the indices 2 and n - 1 (n - 2 names the same residues as n - 1)
    # against the walk over all of 2..n-1, value and tie-broken x_min alike
    fn = fib(n)
    a = seed % (fn - 1) + 1
    while math.gcd(a, fn) != 1:
        a = a % (fn - 1) + 1
    for b in (1, fn - 1, fib(n - 1), a):
        rec = min_product(n, b)
        assert (rec.value, rec.x_min) == lattice.candidate_min(n, b, Fraction(0)), b


def test_min_product_large_n():
    rec = min_product(20600, 1)
    assert (rec.x_min, rec.scaled) == (1, Fraction(fib(20598), fib(20600)))


def test_drift_free_paths_do_not_walk_the_candidates(monkeypatch):
    def walk(n):
        raise AssertionError(f"the drift-free minimum walked the candidates at n = {n}")

    monkeypatch.setattr(lattice, "steps", walk)
    assert min_product(500, 7).scaled == Fraction(fib(498), fib(500))
    rows = limit_table(3, 60)
    assert [row.scaled for row in rows] == [Fraction(fib(n - 2), fib(n)) for n in range(3, 61)]


def test_min_product_frozen():
    rec = min_product(6, 1)
    assert (rec.x_min, rec.value, rec.scaled) == (1, Fraction(3, 64), Fraction(3, 8))
    rec = min_product(7, 1)
    assert (rec.x_min, rec.value, rec.scaled) == (1, Fraction(5, 169), Fraction(5, 13))
    rec = min_product(7, 2)
    # same minimum value, reached at a different x
    assert (rec.x_min, rec.value) == (4, Fraction(5, 169))


def test_min_product_scaled_closed_form():
    # for a = 1 the scaled minimum is exactly F_{n-2}/F_n
    for n in range(6, 61):
        assert min_product(n, 1).scaled == Fraction(fib(n - 2), fib(n))


def test_min_product_symmetries():
    # value is invariant under a -> F_n - a and under swapping the factors
    for n in (7, 10, 12):
        fn = fib(n)
        for a in (1, 2):
            if math.gcd(a, fn) != 1:
                continue
            v = min_product(n, a).value
            assert min_product(n, fn - a).value == v
            b = (a * fib(n - 1)) % fn
            assert min_product(n, b).value == v


def test_min_product_validation():
    with pytest.raises(ValueError):
        min_product(2, 1)
    with pytest.raises(ValueError):
        min_product(6, 0)
    with pytest.raises(ValueError):
        min_product(6, 8)
    with pytest.raises(ValueError):
        min_product(6, 2)  # gcd(2, 8) = 2
    # no size limit: F_40 is about 10^8, and nothing scans it
    rec = min_product(40, 1)
    assert (rec.x_min, rec.scaled) == (1, Fraction(fib(38), fib(40)))


def test_check_min_product_bound():
    report, rec = check_min_product_bound(7, 1)
    assert report.passed
    assert report.lhs == Fraction(5, 13)
    assert rec.scaled == Fraction(5, 13)
    report, _ = check_min_product_bound(6, 1)
    assert not report.passed
    assert report.notes.startswith("implied epsilon 0.04863267791677")


# ---- convergent families and gaps ----


def test_convergent_family_frozen():
    assert convergent_family(6) == {
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 5),
        Fraction(5, 8),
    }


def test_nonconvergent_gap_frozen():
    rep = check_nonconvergent_gap(6, 7)
    assert rep.passed
    assert rep.lhs == Fraction(2)
    assert rep.witness == (3, 4)
    rep = check_nonconvergent_gap(10, 50)
    assert rep.passed
    assert rep.lhs == Fraction(116, 55)
    assert rep.witness == (3, 4)


def scan_nonconvergent_gap(n, x_max):
    """Reference oracle: the exhaustive double loop over every reduced y/x
    with x <= x_max outside the convergent family, ties to the smallest x
    and then the smallest y, reported as check_nonconvergent_gap does."""
    fn, p = fib(n), fib(n - 1)
    family = convergent_family(n)
    best_units, best_pair = None, (0, 1)
    for x in range(1, x_max + 1):
        for y in range(0, x + 1):
            if math.gcd(y, x) != 1 or Fraction(y, x) in family:
                continue
            units = x * abs(p * x - fn * y)
            if best_units is None or units < best_units:
                best_units, best_pair = units, (y, x)
    if best_units is None:
        raise ValueError(f"no non-convergent fraction with x <= {x_max}")
    return bound_report(
        f"nonconvergent-gap[n={n}, x_max={x_max}]",
        Fraction(best_units, fn),
        Fraction(1, 2),
        witness=best_pair,
        notes=f"minimizing fraction {best_pair[0]}/{best_pair[1]}",
    )


def assert_gap_matches_scan(n, x_max):
    """Check against the oracle; return False when nothing is admissible."""
    try:
        want = scan_nonconvergent_gap(n, x_max)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            check_nonconvergent_gap(n, x_max)
        return False
    assert check_nonconvergent_gap(n, x_max) == want, (n, x_max)
    return True


def test_nonconvergent_gap_matches_scan_every_x_max():
    empty = 0
    for n in range(4, 14):
        for x_max in range(2, min(fib(n) - 1, 100) + 1):
            empty += not assert_gap_matches_scan(n, x_max)
    assert empty > 0  # e.g. n = 4, x_max = 2: only 0/1, 1/1 and 1/2


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=4, max_value=25), st.integers(min_value=2, max_value=300))
def test_nonconvergent_gap_matches_scan_sampled(n, x_max):
    assert_gap_matches_scan(n, min(x_max, fib(n) - 1))


def test_nonconvergent_gap_n20_x500_matches_scan():
    # the largest q1 op of the benchmark menu
    rep = check_nonconvergent_gap(20, 500)
    assert rep == scan_nonconvergent_gap(20, 500)
    assert rep.passed


def test_nonconvergent_gap_validation():
    with pytest.raises(ValueError):
        check_nonconvergent_gap(2, 2)
    with pytest.raises(ValueError):
        check_nonconvergent_gap(6, 1)
    with pytest.raises(ValueError):
        check_nonconvergent_gap(6, 8)  # x_max must stay below F_6


def test_convergent_gap_frozen():
    bundle = convergent_gap(10, 5)
    identity, bound = bundle.items
    assert identity.passed
    assert identity.lhs == Fraction(1, 55)
    assert identity.rhs == Fraction(fib(5), fib(10) * fib(5))
    assert bound.passed
    assert bundle.passed


def test_convergent_gap_identity_always_bound_sometimes():
    # adjacent convergents sit too close: identity holds, bound fails
    for n, k in ((6, 4), (4, 2)):
        identity, bound = convergent_gap(n, k).items
        assert identity.passed
        assert not bound.passed
    # the k = 2 gap is F_{n-2}/F_n, so it oscillates with the parity of n
    for n in range(3, 31):
        identity, bound = convergent_gap(n, 2).items
        assert identity.passed
        assert bound.passed == (n % 2 == 1)
    # five or more index steps of room always clears the threshold
    for n in range(8, 31):
        for k in range(3, n - 4):
            identity, bound = convergent_gap(n, k).items
            assert identity.passed
            assert bound.passed


def test_convergent_gap_validation():
    with pytest.raises(ValueError):
        convergent_gap(5, 5)
    with pytest.raises(ValueError):
        convergent_gap(5, 1)


# ---- littlewood lower bound ----


def test_littlewood_deep_proxy(verified3):
    res = littlewood_lower_bound(verified3, 1, 3)
    assert res.report.passed
    assert res.report.lhs >= Fraction(37, 100)
    assert (Quad.of(res.report.lhs) - GOLDEN_INV_SQ).sign() > 0
    assert res.report.witness == 4
    assert res.budget.x_max == 4
    assert res.budget.product_error == 4 * Fraction(1, 8) / fib(82) ** 2
    assert "Q = F_5 = 5" in res.report.notes


def test_littlewood_monotone_in_proxy(verified3):
    shallow = littlewood_lower_bound(verified3, 1, 2).report.lhs
    deep = littlewood_lower_bound(verified3, 1, 3).report.lhs
    ideal = min_product(5, 2).scaled
    assert shallow == Fraction(611153748066852, 1527885025695605)
    assert shallow < deep < ideal


def test_littlewood_zero_error_matches_scan(verified3):
    # the drift-free bound at a stage is min_product at its witness (n, a)
    for level, exact in ((1, Fraction(2, 5)), (2, Fraction(1597, 4181))):
        st = verified3.cert.stages[level]
        assert min_product(st.n, st.a).scaled == exact
        assert littlewood_lower_bound(verified3, level, 3).report.lhs < exact


def test_littlewood_level_two(verified3):
    res = littlewood_lower_bound(verified3, 2, 3)
    assert res.report.passed
    assert "Q = F_19 = 4181," in res.report.notes


def test_littlewood_validation(verified3):
    with pytest.raises(ValueError, match=r"level must be in \[1, 3\], got 0"):
        littlewood_lower_bound(verified3, 0, 2)
    with pytest.raises(ValueError, match=r"proxy_level must be in \[2, 3\], got 1"):
        littlewood_lower_bound(verified3, 1, 1)  # the proxy must be deeper
    with pytest.raises(ValueError, match=r"proxy_level must be in \[2, 3\], got 4"):
        littlewood_lower_bound(verified3, 1, 4)
    with pytest.raises(ValueError, match="level 3 is the deepest stage: no deeper stage"):
        littlewood_lower_bound(verified3, 3, 3)
    _, seed_only = verify(Certificate(schedule="pow2", policy="auto", stages=(seed_stage(),)))
    with pytest.raises(ValueError, match="no stage beyond the seed"):
        littlewood_lower_bound(seed_only, 1, 2)
    # even a valid certificate is refused until verify has passed it
    with pytest.raises(TypeError, match=r"Verified certificate from nest\.verify, got Certificate"):
        littlewood_lower_bound(verified3.cert, 1, 3)
    # F_82 points: no scan and no cap, the candidate minimum is exact
    assert min_product(82, verified3.cert.stages[3].a).scaled == Fraction(fib(80), fib(82))


def test_littlewood_proxy_too_shallow(cert1):
    # a hand-built stage with n = 2 makes err = delta, swamping the product
    fake = Stage(
        nu=2,
        n=2,
        a=1,
        delta=Fraction(1, 4),
        alpha=Fraction(0),
        beta=Fraction(0),
        I=UnitInterval(Fraction(0), Fraction(1, 4)),
        J=UnitInterval(Fraction(0), Fraction(1, 4)),
    )
    shallow = Certificate(schedule="pow2", policy="auto", stages=cert1.stages + (fake,))
    # neither certificate here can verify, so each is wrapped in Verified
    # directly to reach the refusal
    with pytest.raises(ProxyTooShallow):
        littlewood_lower_bound(Verified(shallow), 1, 2)
    # the gap rule also refuses proxies that err (Q - 1) >= 1/2 let through:
    # at n = 12 the candidate minimum is 137/450, the gap 1/2 - 1/5
    q = fib(12)
    assert Fraction(1, 5 * q) < Fraction(1, 2)
    synthetic = synthetic_certificate(12, 1, Fraction(1, 5 * q * (q - 1)))
    with pytest.raises(ProxyTooShallow, match="137/450 is not below .* 3/10"):
        littlewood_lower_bound(Verified(synthetic), 1, 2)
    # a level stage must be a witness: at n = 2 no a fits 1 <= a < F_2 = 1,
    # so verify refuses the certificate and no bound can be formed
    bundle, verified = verify(dataclasses.replace(shallow, stages=shallow.stages + (fake,)))
    assert verified is None
    failing = {item.name for item in bundle.items if not item.passed}
    assert {"stage2-a-range", "stage2-n-increasing"} <= failing


def test_littlewood_requires_stage_witness(cert3):
    # the level stage's point is checked once, by the verifier: verify
    # rejects a moved alpha or beta at alpha-def / beta-def, so no bound is
    # formed
    st = cert3.stages[1]
    for field, value in (("alpha", st.alpha + Fraction(1, 100)), ("beta", st.beta / 2)):
        bad = dataclasses.replace(st, **{field: value})
        cert = dataclasses.replace(cert3, stages=(cert3.stages[0], bad, *cert3.stages[2:]))
        bundle, verified = verify(cert)
        assert verified is None
        assert f"stage1-{field}-def" in {item.name for item in bundle.items if not item.passed}


def scan_littlewood(n, a, err):
    """Reference oracle: the exhaustive Fraction scan of the clamped
    product over x = 1..F_n - 1, returning (Q * minimum, smallest x_min)."""
    q = fib(n)
    alpha, beta = Fraction(a, q), Fraction(fib(n - 1) * a % q, q)
    zero = Fraction(0)
    best, best_x = None, 1
    for x in range(1, q):
        drift = x * err
        prod = max(zero, dist_int(alpha * x) - drift) * max(zero, dist_int(beta * x) - drift)
        if best is None or prod < best:
            best, best_x = prod, x
    return q * best, best_x


def synthetic_certificate(n, a, err):
    """Seed, a level-1 witness (n, a), and a level-2 proxy stage with n = 1,
    so its window width delta/F_1^2 is err itself. Not a verifiable
    certificate, so tests wrap it in Verified directly; littlewood_lower_bound
    reads only the two stages."""
    q = fib(n)
    alpha, beta = Fraction(a, q), Fraction(fib(n - 1) * a % q, q)
    point_i, point_j = UnitInterval(alpha, alpha), UnitInterval(beta, beta)
    level = Stage(1, n, a, Fraction(1, 2), alpha, beta, point_i, point_j)
    proxy = Stage(2, 1, 0, err, Fraction(0), Fraction(0), UnitInterval(0, 1), UnitInterval(0, 1))
    return Certificate(schedule="pow2", policy="auto", stages=(seed_stage(), level, proxy))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=4, max_value=20),
    st.integers(min_value=1),
    # err = t / (Q (Q - 1)): the gap 1/2 - Q(Q-1) err fails from t ~ 0.12 on,
    # and the old refusal err (Q - 1) >= 1/2 from t = Q/2 on
    st.one_of(
        st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=10**4),
        st.fractions(min_value=Fraction(1, 4), max_value=10**4, max_denominator=100),
    ),
)
@example(n=12, seed=1, t=Fraction(0))
@example(n=12, seed=1, t=Fraction(1, 5))  # refused, though err (Q - 1) < 1/2
@example(n=13, seed=4, t=Fraction(10**4))
def test_littlewood_matches_scan(n, seed, t):
    q = fib(n)
    a = seed % (q - 1) + 1
    while math.gcd(a, q) != 1:
        a = a % (q - 1) + 1
    err = t / (q * (q - 1))
    lhs, x_min = scan_littlewood(n, a, err)
    try:
        # arbitrary (n, a, err) need a synthetic, unverifiable certificate
        res = littlewood_lower_bound(Verified(synthetic_certificate(n, a, err)), 1, 2)
    except ProxyTooShallow:
        # refused only when no point of the scan gets below the gap
        assert t > 0 and lhs >= Fraction(1, 2) - t
        return
    assert (res.report.lhs, res.report.witness) == (lhs, x_min)
    assert f"Q = F_{n} = {q}, err = {rat_str(err)}," in res.report.notes


@pytest.mark.parametrize("schedule", ["pow2", "inv"])
def test_littlewood_every_level(schedule):
    # Q * min_product(n, a) = F_{n-2}/F_n, above 2/(3+sqrt5) only for odd n
    cert = build(depth=4, schedule=schedule)
    _, verified = verify(cert)
    for level in range(1, 4):
        res = littlewood_lower_bound(verified, level, level + 1)
        n = cert.stages[level].n
        assert res.report.lhs <= Fraction(fib(n - 2), fib(n))
        assert res.report.passed == (n % 2 == 1)
    # the deepest level has no proxy: its exact minimum is checked directly
    st = cert.stages[4]
    report, rec = check_min_product_bound(st.n, st.a)
    assert rec.scaled == Fraction(fib(st.n - 2), fib(st.n))
    assert report.passed == (st.n % 2 == 1)


# ---- star discrepancy ----


def test_star_discrepancy_of_points_frozen():
    assert star_discrepancy_of_points([Fraction(1, 4), Fraction(3, 4)]) == Fraction(1, 4)
    assert star_discrepancy_of_points([Fraction(0)]) == Fraction(1)
    assert star_discrepancy_of_points([Fraction(1, 2)]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        star_discrepancy_of_points([])
    with pytest.raises(ValueError):
        star_discrepancy_of_points([Fraction(3, 2)])


@settings(max_examples=200)
@given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=12))
def test_star_discrepancy_of_points_matches_counting(pts):
    # independent route: evaluate the sup over candidate thresholds directly
    got = star_discrepancy_of_points(pts)
    n = len(pts)
    s = sorted(Fraction(p) for p in pts)
    best = Fraction(0)
    for t in s + [Fraction(1)]:
        lt = sum(1 for p in s if p < t)
        le = sum(1 for p in s if p <= t)
        best = max(best, Fraction(lt, n) - t, t - Fraction(lt, n), Fraction(le, n) - t)
    assert got == best
    assert Fraction(1, 2 * n) <= got <= 1


def test_star_discrepancy_frozen():
    expected = {
        100: (Fraction(4254, 3001), "0.307149"),
        1000: (Fraction(4010, 3001), "0.193410"),
        10000: (Fraction(7710, 3001), "0.278938"),
    }
    for count, (scaled, ratio) in expected.items():
        rep = star_discrepancy(25, count)
        assert rep.lhs == scaled
        assert f"count*D*/ln(count+1) = {ratio}" in rep.notes
    rep = star_discrepancy(6, 1)
    assert rep.lhs == Fraction(5, 8)  # single point frac(F_5/F_6) = 5/8


def test_star_discrepancy_cap():
    rep = star_discrepancy(25, 100, cap=Fraction(31, 100))
    assert rep.passed
    assert "cap 0.31" in rep.notes
    rep = star_discrepancy(25, 100, cap=Fraction(1, 100))
    assert not rep.passed


def test_star_discrepancy_validation():
    with pytest.raises(ValueError):
        star_discrepancy(2, 1)
    with pytest.raises(ValueError):
        star_discrepancy(6, 0)
    with pytest.raises(ValueError):
        star_discrepancy(6, 8)
    # count, not F_n, names the points: 100 points of F_40 run
    fn, step = fib(40), fib(39)
    points = [Fraction(step * x % fn, fn) for x in range(1, 101)]
    assert star_discrepancy(40, 100).lhs == 100 * star_discrepancy_of_points(points)
    # and nothing caps count below F_n: one point more than 10^6 moves
    # count * D* by at most 1
    report = star_discrepancy(40, 10**6 + 1)
    assert report.name == f"star-discrepancy[n=40, count={10**6 + 1}]"
    assert abs(report.lhs - star_discrepancy(40, 10**6).lhs) <= 1


def scan_star_discrepancy(n, count):
    """Reference oracle: count * D* by sorting the count residues and
    walking them with the sorted-points formula, in integers."""
    fn = fib(n)
    residues = sorted(fib(n - 1) * x % fn for x in range(1, count + 1))
    worst = 0
    for i, r in enumerate(residues, start=1):
        worst = max(worst, r * count - (i - 1) * fn, i * fn - r * count)
    return Fraction(worst, fn)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 25).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, fib(n) - 1))))
def test_star_discrepancy_matches_scan(case):
    n, count = case
    assert star_discrepancy(n, count).lhs == scan_star_discrepancy(n, count)


@pytest.mark.parametrize("n", range(3, 26))
def test_star_discrepancy_matches_scan_at_edges(n):
    fn = fib(n)
    counts = {1, 2, fn - 2, fn - 1}
    for k in range(2, n):
        counts |= {fib(k) - 1, fib(k), fib(k) + 1}
    for count in sorted(c for c in counts if 1 <= c < fn):
        assert star_discrepancy(n, count).lhs == scan_star_discrepancy(n, count), count


def test_star_discrepancy_matches_scan_large():
    assert star_discrepancy(40, 200_000).lhs == scan_star_discrepancy(40, 200_000)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbit_word_matches_walk(data):
    # any coprime rotation and any letters: the induction must multiply
    # the letters in orbit order
    m = data.draw(st.integers(1, 60))
    a = data.draw(st.integers(0, m - 1).filter(lambda a: math.gcd(a, m) == 1))
    starts = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=5)) | {0})
    letters = data.draw(
        st.lists(st.tuples(*[st.integers(-9, 9)] * 3), min_size=len(starts), max_size=len(starts))
    )
    arcs = list(zip(starts, letters))

    def letter(x):
        return [v for s, v in arcs if s <= x][-1]

    word = letter(0)
    for k in range(1, m):
        word = bounds._then(word, letter(k * a % m))
    assert bounds._orbit_word(m, a, arcs) == word


def test_star_discrepancy_rounds_and_arcs(monkeypatch):
    # each round looks letters up in one fresh list of arc starts
    rounds = []
    real = bisect.bisect_right

    def spy(starts, y):
        if not rounds or rounds[-1] is not starts:
            rounds.append(starts)
        return real(starts, y)

    monkeypatch.setattr(bounds.bisect, "bisect_right", spy)
    for n, count in [(3, 1), (10, 7), (25, 20_000), (40, 10**6), (300, 12_345)]:
        rounds.clear()
        star_discrepancy(n, count)
        assert len(rounds) == n - 2
        assert max(len(starts) for starts in rounds) <= 4


def test_star_discrepancy_allocates_nothing_per_point():
    star_discrepancy(40, 10**6)  # warm the Fibonacci table
    tracemalloc.start()
    try:
        star_discrepancy(40, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # a list of 10^6 residues alone is 8 MB


# ---- limit table ----


def test_limit_table_rows():
    rows = limit_table(15, 20)
    assert [r.n for r in rows] == list(range(15, 21))
    assert [r.scaled for r in rows] == [
        Fraction(fib(n - 2), fib(n)) for n in range(15, 21)
    ]
    # odd n sits above the threshold, even n below
    assert [r.strict_pass for r in rows] == [True, False, True, False, True, False]


def test_limit_table_csv_frozen():
    rows = limit_table(15, 16)
    assert limit_table_csv(rows) == (
        "n,fib_n,scaled_min,decimal,strict_pass\n"
        "15,610,233/610,0.381967213115,true\n"
        "16,987,377/987,0.381965552178,false\n"
        "# smallest scaled minimum = 0.381965552178; "
        "prior bound = 0.005326; improvement factor = 71.72\n"
    )


def test_limit_table_footer():
    rows = limit_table(15, 27)
    assert limit_table_footer(rows) == (
        "# smallest scaled minimum = 0.381965552178; "
        "prior bound = 0.005326; improvement factor = 71.72"
    )


def test_limit_table_validation():
    with pytest.raises(ValueError):
        limit_table(2, 5)
    with pytest.raises(ValueError):
        limit_table(10, 9)


def test_prior_bound_value():
    assert PRIOR_BOUND == Fraction(5326, 10**6)
