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


def _side_sub(lhs: Rat, rhs: Side) -> Side:
    if isinstance(rhs, Quad):
        return Quad.of(lhs) - rhs
    return lhs - rhs


def _side_nonneg(x: Side) -> bool:
    if isinstance(x, Quad):
        return x.sign() >= 0
    return x.numerator >= 0  # a Fraction's denominator is positive


def _side_pos(x: Side) -> bool:
    if isinstance(x, Quad):
        return x.sign() > 0
    return x.numerator > 0


_ZERO = Fraction(0)


def _is_zero(x: Side) -> bool:
    return type(x) is Fraction and x.numerator == 0


@dataclass(frozen=True)
class BoundReport:
    """One checked inequality lhs >= rhs (or > rhs when strict)."""

    name: str
    lhs: Rat
    rhs: Side
    slack: Side
    passed: bool
    witness: Witness = None
    notes: str = ""
    rhs_label: Optional[str] = None
    strict: bool = False


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
    slack = lhs if _is_zero(rhs) else _side_sub(lhs, rhs)
    passed = _side_pos(slack) if strict else _side_nonneg(slack)
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=passed,
        witness=witness,
        notes=notes,
        rhs_label=rhs_label,
        strict=strict,
    )


def equality_report(name: str, lhs: Rat, rhs: Rat, *, notes: str = "") -> BoundReport:
    """Equality encoded as slack = -|lhs - rhs|, so pass <=> lhs == rhs."""
    passed = lhs == rhs
    slack = _ZERO if passed else -abs(lhs if _is_zero(rhs) else lhs - rhs)
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


def _witness_json(w: Witness):
    if w is None:
        return None
    if isinstance(w, tuple):
        return list(w)
    return w


def report_to_dict(rep: BoundReport) -> dict:
    out: dict = {"name": rep.name, "lhs": rat_str(rep.lhs)}
    if isinstance(rep.rhs, Quad):
        out["rhs_surd"] = rep.rhs_label or str(rep.rhs)
    else:
        out["rhs"] = rat_str(rep.rhs)
    if isinstance(rep.slack, Quad):
        out["slack_decimal"] = rep.slack.decimal(DECIMAL_DIGITS)
    else:
        out["slack"] = rat_str(rep.slack)
    out["pass"] = rep.passed
    out["witness"] = _witness_json(rep.witness)
    out["decimal"] = rat_decimal(rep.lhs, DECIMAL_DIGITS)
    out["notes"] = rep.notes
    return out


def bundle_to_dict(bundle: ReportBundle) -> dict:
    return {
        "name": bundle.name,
        "pass": bundle.passed,
        "checks": [report_to_dict(item) for item in bundle.items],
    }


def to_json(obj: Union[BoundReport, ReportBundle, dict]) -> str:
    if isinstance(obj, BoundReport):
        obj = report_to_dict(obj)
    elif isinstance(obj, ReportBundle):
        obj = bundle_to_dict(obj)
    return json.dumps(obj, indent=2) + "\n"


CSV_COLUMNS = ["name", "lhs", "rhs", "slack", "pass", "witness", "decimal", "notes"]


def _report_csv_row(rep: BoundReport) -> list[str]:
    d = report_to_dict(rep)
    witness = d["witness"]
    if witness is None:
        wtext = ""
    elif isinstance(witness, list):
        wtext = ";".join(str(v) for v in witness)
    else:
        wtext = str(witness)
    return [
        d["name"],
        d["lhs"],
        d.get("rhs", d.get("rhs_surd", "")),
        d.get("slack", d.get("slack_decimal", "")),
        "true" if d["pass"] else "false",
        wtext,
        d["decimal"],
        d["notes"],
    ]


def to_csv(reports: Sequence[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rep in reports:
        writer.writerow(_report_csv_row(rep))
    return buf.getvalue()


def _side_text(x: Side, label: Optional[str] = None) -> str:
    if isinstance(x, Quad):
        return label or str(x)
    return rat_str(x)


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
