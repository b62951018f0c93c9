"""End-to-end acceptance checks, one test per numbered criterion.

Run with -v for the per-criterion pass/fail lines; each test also prints
a one-line summary of the values it computed.
"""

import math
import random
from fractions import Fraction

from fibnest.bounds import (
    check_nonconvergent_gap,
    convergent_gap,
    littlewood_lower_bound,
    min_product,
    star_discrepancy,
    star_discrepancy_of_points,
)
from fibnest.cli import main
from fibnest.exact import UnitInterval
from fibnest.fib import fib
from fibnest.nest import certificate_from_json, verify_certificate
from fibnest.search import (
    TwoScaleExhausted,
    find_brute,
    find_two_scale,
    verify_witness,
)
from fibnest.surd import GOLDEN_INV_SQ, Quad

THRESHOLD_DECIMAL = Fraction(3819660113, 10**10)


def test_criterion_1_scaled_minimum_converges():
    tol = Fraction(2, 1000)
    worst = Fraction(0)
    for n in range(15, 29):
        scaled = min_product(n, 1).scaled
        worst = max(worst, abs(scaled - THRESHOLD_DECIMAL))
        assert abs(scaled - THRESHOLD_DECIMAL) <= tol, n
    for n in range(7, 28, 2):
        scaled = min_product(n, 1).scaled
        assert (Quad.of(scaled) - GOLDEN_INV_SQ).sign() >= 0, n
    print(f"criterion 1: PASS (worst deviation {float(worst):.3e}, odd n all above threshold)")


def test_criterion_2_residue_permutation_invariance():
    rng = random.Random(541)
    checked = 0
    for n in (15, 20, 25):
        fn = fib(n)
        base = min_product(n, 1).value
        seen = 0
        while seen < 20:
            a = rng.randrange(1, fn)
            if math.gcd(a, fn) != 1:
                continue
            assert min_product(n, a).value == base, (n, a)
            seen += 1
            checked += 1
    print(f"criterion 2: PASS ({checked} coprime numerators, exact equality)")


def test_criterion_3_nonconvergent_gap_sweep():
    for n in range(6, 17):
        x_max = min(fib(n) - 1, 500)
        report = check_nonconvergent_gap(n, x_max)
        assert report.passed, (n, report.lhs)
    small = check_nonconvergent_gap(6, 7)
    assert small.lhs == Fraction(2)
    assert small.witness == (3, 4)
    print("criterion 3: PASS (n in [6, 16], minimum 2 at 3/4 for n=6)")


def test_criterion_4_convergent_gap_identity_and_bound():
    for n in range(3, 31):
        for k in range(2, n):
            identity, _ = convergent_gap(n, k).items
            assert identity.passed, (n, k)
    for n in range(8, 31):
        for k in range(3, n - 4):
            _, bound = convergent_gap(n, k).items
            assert bound.passed, (n, k)
    # the k = 2 gap times F_2^2 is F_{n-2}/F_n, the scaled minimum itself,
    # so it clears the exact threshold precisely when n is odd (same parity
    # oscillation as criterion 1); even n falls short by o(1), e.g. at
    # n = 12 the comparison is 25920 < 25921 after squaring
    for n in range(7, 31):
        _, bound = convergent_gap(n, 2).items
        assert bound.passed == (n % 2 == 1), n
    print("criterion 4: PASS (identity everywhere; bound for 3 <= k <= n-5; k=2 follows parity)")


def test_criterion_5_construction_soundness(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["construct", "--depth", "3", "--n0", "5", "--delta", "pow2"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    cert = certificate_from_json(first.read_text())
    verification = verify_certificate(cert)
    assert verification.passed
    assert len(verification.items) == 35
    print("criterion 5: PASS (depth-3 build verified, re-run byte-identical)")


def test_criterion_6_certified_littlewood_bound(cert3):
    res = littlewood_lower_bound(cert3, 1, 3)
    assert res.report.lhs >= Fraction(37, 100)
    assert (Quad.of(res.report.lhs) - GOLDEN_INV_SQ).sign() > 0
    ideal = littlewood_lower_bound(cert3, 1, 1, zero_error=True)
    assert ideal.report.lhs == min_product(5, 2).scaled
    print(f"criterion 6: PASS (lhs ~ {float(res.report.lhs):.6f} >= 0.37, zero-error exact)")


def test_criterion_7_search_route_agreement():
    rng = random.Random(4)
    eta = Fraction(1, 20)
    two_scale_hits = 0
    for _ in range(100):
        n = rng.randint(18, 24)
        lo_i = Fraction(rng.randint(0, 19 * 50), 20 * 50)
        lo_j = Fraction(rng.randint(0, 19 * 50), 20 * 50)
        target_i = UnitInterval(lo_i, lo_i + eta)
        target_j = UnitInterval(lo_j, lo_j + eta)
        witness = find_brute(n, target_i, target_j)
        assert witness is not None, (n, target_i, target_j)
        assert verify_witness(witness, target_i, target_j).passed
        try:
            other = find_two_scale(n, target_i, target_j)
        except TwoScaleExhausted:
            other = None
        if other is not None:
            assert verify_witness(other, target_i, target_j).passed
            two_scale_hits += 1
    print(f"criterion 7: PASS (100 brute witnesses verified, {two_scale_hits} two_scale agreements)")


def test_criterion_8_discrepancy_caps():
    caps = {100: Fraction(31, 100), 1000: Fraction(1, 5), 10000: Fraction(28, 100)}
    for count, cap in caps.items():
        report = star_discrepancy(25, count, cap=cap)
        assert report.passed, (count, report.notes)
    assert star_discrepancy_of_points([Fraction(1, 4), Fraction(3, 4)]) == Fraction(1, 4)
    print("criterion 8: PASS (log-normalized discrepancy under recorded caps)")


def test_criterion_9_comparison_footer(capsys):
    assert main(["limit-table", "--n-from", "15", "--n-to", "27"]) == 0
    out = capsys.readouterr().out
    assert (
        "# smallest scaled minimum = 0.381965552178; "
        "prior bound = 0.005326; improvement factor = 71.72"
    ) in out
    print("criterion 9: PASS (footer contrasts achieved constant with prior bound)")
