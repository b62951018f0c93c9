"""Command line interface.

Subcommands map one-to-one onto the library checks; every payload value
is an exact p/q string plus a fixed-precision decimal. Output is
deterministic: identical invocations produce identical bytes (tables
and reports only; no timestamps, no figures).

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or parameter errors.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from . import bounds, nest
from .exact import rat_decimal, rat_str
from .report import (
    BoundReport,
    ReportBundle,
    bundle_to_text,
    flatten,
    report_to_text,
    to_csv,
    to_json,
)
from .search import STRATEGIES

USAGE_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibnest",
        description="nested Fibonacci-interval certificates and exact bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, default_format: str = "text") -> None:
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default=default_format,
            help="report rendering (default %(default)s)",
        )
        p.add_argument("--out", type=Path, default=None, help="write output to a file")

    p = sub.add_parser("construct", help="build and verify a certificate")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--n0", type=int, default=5)
    p.add_argument("--delta", choices=sorted(nest.SCHEDULES), default="pow2")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    add_common(p)

    p = sub.add_parser("verify-cert", help="re-check a stored certificate")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    add_common(p)

    p = sub.add_parser("min-scan", help="exact distance-product minimum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    add_common(p)

    p = sub.add_parser("limit-table", help="scaled minima over a range of n")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    add_common(p, default_format="csv")

    p = sub.add_parser("q1", help="non-convergent approximation gap check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("q2", help="convergent gap closed form and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    add_common(p)

    p = sub.add_parser("littlewood", help="certified product lower bound")
    p.add_argument("--cert", type=Path, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--proxy", type=int, required=True)
    p.add_argument("--zero-error", action="store_true")
    add_common(p)

    p = sub.add_parser("discrepancy", help="exact star discrepancy of the rotation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--cap", type=Fraction, default=None)
    add_common(p)

    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _render(obj: Union[BoundReport, ReportBundle], fmt: str) -> str:
    if fmt == "json":
        return to_json(obj)
    if fmt == "csv":
        return to_csv(flatten(obj))
    if isinstance(obj, ReportBundle):
        return bundle_to_text(obj)
    return report_to_text(obj) + "\n"


def _cmd_construct(args) -> int:
    cert = nest.build(
        depth=args.depth,
        schedule=nest.schedule_by_name(args.delta),
        n0=args.n0,
        strategy=args.strategy,
    )
    verification = nest.verify_certificate(cert)
    payload = nest.certificate_to_json(cert)
    if args.out is None:
        sys.stdout.write(payload)
        sys.stderr.write(bundle_to_text(verification))
    else:
        args.out.write_text(payload, encoding="utf-8")
        sys.stdout.write(_render(verification, args.format))
    return 0 if verification.passed else 1


def _cmd_verify_cert(args) -> int:
    cert = nest.certificate_from_json(args.infile.read_text(encoding="utf-8"))
    verification = nest.verify_certificate(cert)
    _emit(_render(verification, args.format), args.out)
    return 0 if verification.passed else 1


def _cmd_min_scan(args) -> int:
    report, rec = bounds.check_min_product_bound(args.n, args.a)
    if args.format == "text":
        lines = [
            f"n={rec.n} a={rec.a} x_min={rec.x_min} "
            f"value={rat_str(rec.value)} scaled={rat_str(rec.scaled)} "
            f"scaled_decimal={rat_decimal(rec.scaled, 12)}",
            report_to_text(report),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_render(report, args.format), args.out)
    return 0 if report.passed else 1


def _cmd_limit_table(args) -> int:
    rows = bounds.limit_table(args.n_from, args.n_to)
    _emit(bounds.limit_table_csv(rows), args.out)
    return 0


def _cmd_q1(args) -> int:
    report = bounds.check_nonconvergent_gap(args.n, args.x_max)
    _emit(_render(report, args.format), args.out)
    return 0 if report.passed else 1


def _cmd_q2(args) -> int:
    bundle = bounds.convergent_gap(args.n, args.k)
    _emit(_render(bundle, args.format), args.out)
    return 0 if bundle.passed else 1


def _cmd_littlewood(args) -> int:
    cert = nest.certificate_from_json(args.cert.read_text(encoding="utf-8"))
    # a bound is certified only from a certificate that passes verification
    verification = nest.verify_certificate(cert)
    if not verification.passed:
        _emit(_render(verification, args.format), args.out)
        return 1
    result = bounds.littlewood_lower_bound(
        cert, args.level, args.proxy, zero_error=args.zero_error
    )
    _emit(_render(result.report, args.format), args.out)
    return 0 if result.report.passed else 1


def _cmd_discrepancy(args) -> int:
    report = bounds.star_discrepancy(args.n, args.count, cap=args.cap)
    _emit(_render(report, args.format), args.out)
    return 0 if report.passed else 1


_COMMANDS = {
    "construct": _cmd_construct,
    "verify-cert": _cmd_verify_cert,
    "min-scan": _cmd_min_scan,
    "limit-table": _cmd_limit_table,
    "q1": _cmd_q1,
    "q2": _cmd_q2,
    "littlewood": _cmd_littlewood,
    "discrepancy": _cmd_discrepancy,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, nest.DepthUnreachable) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
