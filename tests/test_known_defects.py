"""Known false verdicts, one strict xfail per counterexample.

Each test asserts the correct behaviour, which the package does not have
yet, so it fails today and pytest reports it as xfailed. With
strict=True the test turns into a failure as soon as a fix makes it pass:
the fixing change deletes the marker, and the counterexample stays as a
regular test. ROADMAP item 30 lists the counterexamples, and README's
"What is certified" section names these tests.
"""

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import dist_int

from fibnest import fib
from fibnest.bounds import star_discrepancy
from fibnest.cli import main
from fibnest.nest import certificate_from_json
from fibnest.surd import GOLDEN_INV_SQ, Quad

FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "pow2-5.json"


def run(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited_fixture(tmp_path, edit) -> Path:
    payload = json.loads(FIXTURE.read_text())
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_littlewood_level_two_is_not_certified(capsys):
    # the stage-4 point lies in every window, and at x = 3,859 it scores
    # below 2/(3+sqrt5) at level 2 (Q = F_19)
    cert = certificate_from_json(FIXTURE.read_text())
    point, q, x = cert.stages[4], fib(cert.stages[2].n), 3859
    score = q * dist_int(point.alpha * x) * dist_int(point.beta * x)
    assert (Quad.of(score) - GOLDEN_INV_SQ).sign() < 0
    code, stdout, _ = run(capsys, "littlewood", "--cert", FIXTURE, "--level", 2, "--proxy", 3)
    assert not stdout.startswith("PASS")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_shrunken_window_fails_verification(tmp_path, capsys):
    cert = certificate_from_json(FIXTURE.read_text())
    stage = cert.stages[4]
    width = stage.box.width

    def shrink(payload):
        for key, point in (("I", stage.alpha), ("J", stage.beta)):
            lo, hi = point + width / 4, point + 3 * width / 4
            payload["stages"][4][key] = [f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"]

    code, _, _ = run(capsys, "verify-cert", "--in", edited_fixture(tmp_path, shrink))
    assert code == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_relabelled_schedule_fails_verification(tmp_path, capsys):
    path = edited_fixture(tmp_path, lambda payload: payload.update(schedule="inv"))
    code, _, _ = run(capsys, "verify-cert", "--in", path)
    assert code == 1


class IndexTooLarge(Exception):
    """Raised by the guarded fib instead of growing the Fibonacci table."""


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_huge_stage_index_fails_without_its_fibonacci_number(tmp_path, capsys, monkeypatch):
    original = sys.modules["fibnest.fib"].fib

    def guarded(k):
        if k > 10**5:
            raise IndexTooLarge(k)
        return original(k)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "fibnest" and getattr(module, "fib", None) is original:
            monkeypatch.setattr(module, "fib", guarded)

    path = edited_fixture(tmp_path, lambda payload: payload["stages"][4].update(n=250000))
    code, _, _ = run(capsys, "verify-cert", "--in", path)
    assert code == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_discrepancy_cap_just_below_the_boundary_fails(capsys):
    # count * D* is 7710/3001 at n = 25, count = 10,000; the cap sits 1e-14
    # below count * D* / ln(count + 1)
    scaled = Fraction(7710, 3001)
    assert star_discrepancy(25, 10000).lhs == scaled
    with localcontext() as ctx:
        ctx.prec = 60
        log = Fraction(Decimal(10001).ln())
    cap = (scaled - Fraction(1, 10**14)) / log
    code, stdout, _ = run(capsys, "discrepancy", "--n", 25, "--count", 10000, "--cap", cap)
    assert code == 1
    assert stdout.startswith("FAIL")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
def test_construct_depth_five_with_defaults(capsys):
    code, _, _ = run(capsys, "construct", "--depth", 5)
    assert code == 0
