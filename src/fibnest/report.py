"""Inequality reports with exact sides, plus JSON/CSV/plain-text rendering.

Every check in the package reduces to one or more BoundReport records:
an exact left side, an exact right side (rational or in Q(sqrt5)), their
slack, and pass = slack >= 0. Equality checks are encoded through their
slack so the same invariant covers them.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import DECIMAL_DIGITS, Rat, rat_decimal, rat_str
from .surd import Quad

Side = Union[Rat, Quad]
Witness = Union[int, tuple[int, ...], None]

_ZERO = Fraction(0)


def _slack(lhs: Rat, rhs: Side) -> Side:
    """lhs - rhs, with no subtraction for a zero rational rhs."""
    if isinstance(rhs, Quad):
        return Quad.of(lhs) - rhs
    return lhs - rhs if rhs else lhs


def _sign(x: Side) -> int:
    if isinstance(x, Quad):
        return x.sign()
    return (x.numerator > 0) - (x.numerator < 0)  # a Fraction's denominator is positive


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs >= rhs, or lhs > rhs for a strict bound_report."""

    name: str
    lhs: Rat
    rhs: Side
    slack: Side
    passed: bool
    witness: Witness = None
    notes: str = ""
    rhs_label: Optional[str] = None


def bound_report(
    name: str,
    lhs: Rat,
    rhs: Side,
    *,
    witness: Witness = None,
    notes: str = "",
    rhs_label: Optional[str] = None,
    strict: bool = False,
) -> BoundReport:
    slack = _slack(lhs, rhs)
    sign = _sign(slack)
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=sign > 0 if strict else sign >= 0,
        witness=witness,
        notes=notes,
        rhs_label=rhs_label,
    )


def equality_report(name: str, lhs: Rat, rhs: Rat, *, notes: str = "") -> BoundReport:
    """Equality encoded as slack = -|lhs - rhs|, so pass <=> lhs == rhs."""
    passed = lhs == rhs
    slack = _ZERO if passed else -abs(_slack(lhs, rhs))
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=passed,
        notes=notes,
    )


@dataclass(frozen=True)
class ReportBundle:
    """A named list of condition reports; passes iff every item passes."""

    name: str
    items: tuple[BoundReport, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


# ---- rendering ----


def _side_text(x: Side, label: Optional[str] = None) -> str:
    if isinstance(x, Quad):
        return label or str(x)
    return rat_str(x)


def _slack_value(x: Side) -> str:
    """The slack as JSON and CSV hold it: p/q, or the decimal of a Quad."""
    if isinstance(x, Quad):
        return x.decimal(DECIMAL_DIGITS)
    return rat_str(x)


def report_to_dict(rep: BoundReport) -> dict:
    return {
        "name": rep.name,
        "lhs": rat_str(rep.lhs),
        "rhs_surd" if isinstance(rep.rhs, Quad) else "rhs": _side_text(rep.rhs, rep.rhs_label),
        "slack_decimal" if isinstance(rep.slack, Quad) else "slack": _slack_value(rep.slack),
        "pass": rep.passed,
        "witness": list(rep.witness) if isinstance(rep.witness, tuple) else rep.witness,
        "decimal": rat_decimal(rep.lhs, DECIMAL_DIGITS),
        "notes": rep.notes,
    }


def bundle_to_dict(bundle: ReportBundle) -> dict:
    return {
        "name": bundle.name,
        "pass": bundle.passed,
        "checks": [report_to_dict(item) for item in bundle.items],
    }


def to_json(obj: Union[BoundReport, ReportBundle]) -> str:
    d = report_to_dict(obj) if isinstance(obj, BoundReport) else bundle_to_dict(obj)
    return json.dumps(d, indent=2) + "\n"


CSV_COLUMNS = ["name", "lhs", "rhs", "slack", "pass", "witness", "decimal", "notes"]


def _report_csv_row(rep: BoundReport) -> list:
    witness = rep.witness
    return [
        rep.name,
        rat_str(rep.lhs),
        _side_text(rep.rhs, rep.rhs_label),
        _slack_value(rep.slack),
        "true" if rep.passed else "false",
        ";".join(map(str, witness)) if isinstance(witness, tuple) else witness,  # None writes ""
        rat_decimal(rep.lhs, DECIMAL_DIGITS),
        rep.notes,
    ]


def to_csv(reports: Sequence[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(_report_csv_row(rep))
    return buf.getvalue()


def report_to_text(rep: BoundReport) -> str:
    verdict = "PASS" if rep.passed else "FAIL"
    parts = [
        f"{verdict}  {rep.name}",
        f"lhs={_side_text(rep.lhs)}",
        f"rhs={_side_text(rep.rhs, rep.rhs_label)}",
        f"slack={_side_text(rep.slack)}",
    ]
    if rep.witness is not None:
        parts.append(f"witness={rep.witness}")
    if rep.notes:
        parts.append(f"({rep.notes})")
    return "  ".join(parts)


def bundle_to_text(bundle: ReportBundle) -> str:
    head = "PASS" if bundle.passed else "FAIL"
    lines = [f"{head}  {bundle.name}  [{len(bundle.items)} checks]"]
    lines.extend("  " + report_to_text(item) for item in bundle.items)
    return "\n".join(lines) + "\n"


def flatten(obj: Union[BoundReport, ReportBundle]) -> list[BoundReport]:
    if isinstance(obj, BoundReport):
        return [obj]
    return list(obj.items)
