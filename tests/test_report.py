import csv
import io
import json
from fractions import Fraction

from oracles import membership_report

from fibnest.exact import UnitInterval
from fibnest.report import (
    CSV_COLUMNS,
    ReportBundle,
    bound_report,
    bundle_to_dict,
    bundle_to_text,
    equality_report,
    flatten,
    report_to_dict,
    report_to_text,
    to_csv,
    to_json,
)
from fibnest.surd import GOLDEN_INV_SQ, THRESHOLD_LABEL


def test_bound_report_pass_fail():
    ok = bound_report("r", Fraction(2), Fraction(1, 2))
    assert ok.passed and ok.slack == Fraction(3, 2)
    bad = bound_report("r", Fraction(1, 4), Fraction(1, 2))
    assert not bad.passed and bad.slack == Fraction(-1, 4)


def test_bound_report_strict_flag():
    tie = bound_report("r", Fraction(1, 2), Fraction(1, 2))
    assert tie.passed
    strict_tie = bound_report("r", Fraction(1, 2), Fraction(1, 2), strict=True)
    assert not strict_tie.passed


def test_bound_report_surd_rhs():
    rep = bound_report("r", Fraction(5, 13), GOLDEN_INV_SQ, rhs_label=THRESHOLD_LABEL)
    assert rep.passed
    d = report_to_dict(rep)
    assert d["rhs_surd"] == THRESHOLD_LABEL
    assert "rhs" not in d
    assert "slack_decimal" in d  # irrational slack carries a decimal rendering
    assert d["slack_decimal"].startswith("0.0026493733")


def test_equality_report():
    eq = equality_report("e", Fraction(1, 8), Fraction(1, 8))
    assert eq.passed and eq.slack == 0
    ne = equality_report("e", Fraction(1, 8), Fraction(1, 4))
    assert not ne.passed and ne.slack == Fraction(-1, 8)


def test_membership_report():
    iv = UnitInterval(Fraction(1, 4), Fraction(3, 4))
    inside = membership_report("m", Fraction(1, 2), iv)
    assert inside.passed and inside.slack == Fraction(1, 4)
    edge = membership_report("m", Fraction(1, 4), iv)
    assert edge.passed and edge.slack == 0
    outside = membership_report("m", Fraction(7, 8), iv)
    assert not outside.passed and outside.slack == Fraction(-1, 8)


def test_bundle_pass_iff_all_pass():
    good = bound_report("a", Fraction(1), Fraction(0))
    bad = bound_report("b", Fraction(0), Fraction(1))
    assert ReportBundle(name="x", items=(good,)).passed
    assert not ReportBundle(name="x", items=(good, bad)).passed
    assert ReportBundle(name="empty").passed  # vacuous


def test_report_json_shape():
    rep = bound_report("r", Fraction(5, 8), Fraction(1, 2), witness=3, notes="n")
    d = report_to_dict(rep)
    assert d == {
        "name": "r",
        "lhs": "5/8",
        "rhs": "1/2",
        "slack": "1/8",
        "pass": True,
        "witness": 3,
        "decimal": "0.62500000000000000000000000000000000000000000000000",
        "notes": "n",
    }


def test_tuple_witness_renders_as_list():
    rep = bound_report("r", Fraction(2), Fraction(1, 2), witness=(3, 4))
    assert json.loads(to_json(rep))["witness"] == [3, 4]


# ---- exact renderings: one report whose slack is a Quad, one with a tuple witness ----

THRESHOLD_REPORT = bound_report(
    "threshold", Fraction(3, 8), GOLDEN_INV_SQ, witness=2, rhs_label=THRESHOLD_LABEL, notes="why"
)
PAIR_REPORT = bound_report("pair", Fraction(2), Fraction(1, 2), witness=(3, 4))

THRESHOLD_SLACK = "-0.00696601125010515179541316563436188227969082019424"
THRESHOLD_DECIMAL = "0.37500000000000000000000000000000000000000000000000"
PAIR_DECIMAL = "2.00000000000000000000000000000000000000000000000000"


def test_threshold_report_renderings():
    rep = THRESHOLD_REPORT
    assert report_to_text(rep) == (
        "FAIL  threshold  lhs=3/8  rhs=2/(3+sqrt5)  slack=-9/8 + 1/2*sqrt(5)  witness=2  (why)"
    )
    assert to_json(rep) == (
        "{\n"
        '  "name": "threshold",\n'
        '  "lhs": "3/8",\n'
        '  "rhs_surd": "2/(3+sqrt5)",\n'
        f'  "slack_decimal": "{THRESHOLD_SLACK}",\n'
        '  "pass": false,\n'
        '  "witness": 2,\n'
        f'  "decimal": "{THRESHOLD_DECIMAL}",\n'
        '  "notes": "why"\n'
        "}\n"
    )
    assert to_csv([rep]) == (
        "name,lhs,rhs,slack,pass,witness,decimal,notes\n"
        f"threshold,3/8,2/(3+sqrt5),{THRESHOLD_SLACK},false,2,{THRESHOLD_DECIMAL},why\n"
    )


def test_tuple_witness_report_renderings():
    rep = PAIR_REPORT
    assert report_to_text(rep) == "PASS  pair  lhs=2/1  rhs=1/2  slack=3/2  witness=(3, 4)"
    assert to_json(rep) == (
        "{\n"
        '  "name": "pair",\n'
        '  "lhs": "2/1",\n'
        '  "rhs": "1/2",\n'
        '  "slack": "3/2",\n'
        '  "pass": true,\n'
        '  "witness": [\n'
        "    3,\n"
        "    4\n"
        "  ],\n"
        f'  "decimal": "{PAIR_DECIMAL}",\n'
        '  "notes": ""\n'
        "}\n"
    )
    assert to_csv([rep]) == (
        "name,lhs,rhs,slack,pass,witness,decimal,notes\n"
        f"pair,2/1,1/2,3/2,true,3;4,{PAIR_DECIMAL},\n"
    )


def test_to_json_round_trip_and_trailing_newline():
    rep = bound_report("r", Fraction(5, 8), Fraction(1, 2))
    text = to_json(rep)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["lhs"] == "5/8"
    bundle = ReportBundle(name="b", items=(rep,))
    parsed = json.loads(to_json(bundle))
    assert parsed["name"] == "b"
    assert parsed["pass"] is True
    assert len(parsed["checks"]) == 1


def test_bundle_to_dict_shape():
    rep = bound_report("r", Fraction(1), Fraction(0))
    d = bundle_to_dict(ReportBundle(name="b", items=(rep,)))
    assert set(d) == {"name", "pass", "checks"}


def test_csv_output():
    reps = [
        bound_report("plain", Fraction(5, 8), Fraction(1, 2), witness=1),
        bound_report("with, comma", Fraction(0), Fraction(1)),
    ]
    text = to_csv(reps)
    assert "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_COLUMNS
    assert rows[1][0] == "plain"
    assert rows[1][4] == "true"
    assert rows[2][0] == "with, comma"
    assert rows[2][4] == "false"


def test_text_rendering():
    rep = bound_report("r", Fraction(5, 8), Fraction(1, 2), witness=2, notes="why")
    line = report_to_text(rep)
    assert line.startswith("PASS")
    assert "lhs=5/8" in line and "witness=2" in line and "(why)" in line
    bad = bound_report("r", Fraction(0), Fraction(1))
    assert report_to_text(bad).startswith("FAIL")


def test_bundle_text_contains_items():
    rep = bound_report("inner", Fraction(1), Fraction(0))
    out = bundle_to_text(ReportBundle(name="outer", items=(rep,)))
    lines = out.splitlines()
    assert lines[0].startswith("PASS") and "outer" in lines[0]
    assert lines[1].lstrip().startswith("PASS") and "inner" in lines[1]


def test_flatten():
    rep = bound_report("r", Fraction(1), Fraction(0))
    bundle = ReportBundle(name="b", items=(rep, rep))
    assert flatten(rep) == [rep]
    assert flatten(bundle) == [rep, rep]
