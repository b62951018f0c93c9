"""Workload menus, seeded op lists, corruptions and the in-process op runner.

An op is a tuple of CLI arguments for ``fibnest.cli.main``. Three kinds of
placeholder stand for files: ``fixture:NAME`` (a committed depth-4
certificate), ``corrupt:NAME:STAGE:FIELD:SIGN`` (that certificate with one
field shifted, written out at set-up) and ``{out}`` (a scratch ``--out``
target). The op with its placeholders, joined by spaces, is the key of the
frozen outcome table.

Each workload is a list of op kinds. A kind has a finite menu and a fixed
count; the seed only picks which menu entries fill the count. Kinds are cut
so that entries of one kind cost about the same, so every seed costs about
the same.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

FORMATS = ("text", "json", "csv")

# Depth-4 certificates committed under fixtures/, by (delta schedule, n0).
FIXTURES = {"pow2-5": ("pow2", 5), "inv-5": ("inv", 5), "pow2-6": ("pow2", 6), "pow2-8": ("pow2", 8)}
# Level-2 littlewood scans F_19 points on pow2-5 and inv-5 (~0.15 s each). On
# pow2-6 and pow2-8 it scans F_29 and F_30 points (15-35 s each); one such op
# would be most of a run and a single sample of the machine's speed, so they
# are left out of the menu.
LEVEL2 = ("pow2-5", "inv-5")
CORRUPT_FIELDS = ("n", "a", "delta", "alpha", "beta", "I0", "I1", "J0", "J1")

Op = tuple[str, ...]


def _fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# ---- menus ----


def construct_op(depth: int, delta: str, n0: int) -> Op:
    return ("construct", "--depth", str(depth), "--n0", str(n0), "--delta", delta, "--out", "{out}")


def verify_op(cert: str, fmt: str) -> Op:
    return ("verify-cert", "--in", cert, "--format", fmt)


def littlewood_op(cert: str, level: int, proxy: int, fmt: str) -> Op:
    return ("littlewood", "--cert", cert, "--level", str(level), "--proxy", str(proxy), "--format", fmt)


def corruptions(fixture: str) -> list[str]:
    return [
        f"corrupt:{fixture}:{stage}:{field}:{sign}"
        for stage in range(1, 5)
        for field in CORRUPT_FIELDS
        for sign in "+-"
    ]


def _littlewood_menu(certs: list[str], level: int) -> list[Op]:
    return [
        littlewood_op(cert, level, proxy, fmt)
        for cert in certs
        for proxy in range(level + 1, 5)
        for fmt in FORMATS
    ]


def coprime_menu(n: int) -> list[int]:
    """The four smallest a >= 1 coprime to F_n."""
    fn = _fib(n)
    return [a for a in range(1, 64) if math.gcd(a, fn) == 1][:4]


@dataclass(frozen=True)
class Kind:
    name: str
    menu: tuple[Op, ...]
    count: int


def _kind(name: str, menu: list[Op], count: int) -> Kind:
    return Kind(name, tuple(menu), count)


def workload_kinds(workload: str) -> list[Kind]:
    if workload == "construct":
        return [
            # two of each depth-3 kind, so the median op is a depth-3 build
            _kind(f"construct-d{depth}-{delta}", [construct_op(depth, delta, n0) for n0 in range(4, 9)], 5 - depth)
            for depth in (3, 4)
            for delta in ("pow2", "inv")
        ]
    if workload == "certify":
        # Sorted by latency a pass is level-1 littlewood (~2 ms, 64 ops), then
        # verify-cert (~3 ms, 192 ops), then level-2 littlewood (~150 ms, 20
        # ops), so the median op falls well inside the verify-cert ops. The
        # large counts keep the share of corruptions littlewood happens to
        # reject (pow2-8 fails level 1 even when clean) steady across seeds.
        clean = [f"fixture:{name}" for name in FIXTURES]
        kinds = [
            _kind("verify", [verify_op(c, fmt) for c in clean for fmt in FORMATS], 48),
            _kind("littlewood-l1", _littlewood_menu(clean, 1), 16),
        ]
        kinds += [_kind(f"littlewood-l2-{f}", _littlewood_menu([f"fixture:{f}"], 2), 6) for f in LEVEL2]
        bad = [c for f in FIXTURES for c in corruptions(f)]
        kinds.append(_kind("verify-corrupt", [verify_op(c, fmt) for c in bad for fmt in FORMATS], 144))
        kinds += [_kind(f"littlewood-l1-corrupt-{f}", _littlewood_menu(corruptions(f), 1), 12) for f in FIXTURES]
        kinds += [_kind(f"littlewood-l2-corrupt-{f}", _littlewood_menu(corruptions(f), 2), 4) for f in LEVEL2]
        return kinds
    if workload == "scan":
        # q2 (~2 ms) is two thirds of the ops, so the median op is a q2 op
        # whatever the seed draws; two q1 --x-max 500 ops per pass (the
        # costliest) put the tail percentile inside that kind.
        kinds = [
            _kind(
                f"min-scan-n{n}",
                [("min-scan", "--n", str(n), "--a", str(a), "--format", fmt) for a in coprime_menu(n) for fmt in FORMATS],
                2,
            )
            for n in range(20, 31)
        ]
        kinds.append(
            _kind(
                "q2",
                [
                    ("q2", "--n", str(n), "--k", str(k), "--format", fmt)
                    for n in range(20, 31)
                    for k in (2, 5, 9, 14, 19)
                    for fmt in FORMATS
                ],
                96,
            )
        )
        kinds += [
            _kind(f"limit-table-to{hi}", [("limit-table", "--n-from", str(lo), "--n-to", str(hi)) for lo in range(15, hi + 1)], 2)
            for hi in (24, 26, 28, 30)
        ]
        kinds += [
            _kind(
                f"q1-x{x_max}",
                [("q1", "--n", str(n), "--x-max", str(x_max), "--format", fmt) for n in range(17, 21) for fmt in FORMATS],
                2,
            )
            for x_max in (100, 200, 300, 400, 500)
        ]
        kinds += [
            _kind(
                f"discrepancy-c{count}",
                [
                    ("discrepancy", "--n", str(n), "--count", str(count), *cap, "--format", fmt)
                    for n in range(25, 31)
                    for cap in ((), ("--cap", "28/100"))
                    for fmt in FORMATS
                ],
                2,
            )
            for count in (5000, 20000, 50000)
        ]
        return kinds
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("construct", "certify", "scan")
# Seconds one pass of each workload's ops took at the commit that defined the
# benchmark; a run makes round(--seconds / PASS_SECONDS) passes, at least one,
# so every run of a workload attempts the same ops whatever the machine's speed.
PASS_SECONDS = {"construct": 30.0, "certify": 4.0, "scan": 2.0}


def op_list(workload: str, seed: int) -> list[Op]:
    """The seed's ops: `count` draws from each kind's menu, shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(kind.menu) for kind in workload_kinds(workload) for _ in range(kind.count)]
    rng.shuffle(ops)
    return ops


def key(op: Op) -> str:
    return " ".join(op)


def is_rule_checked(op: Op) -> bool:
    """A corrupted certificate given to littlewood: its correct output does
    not exist yet, so only the exit code (1, rejected) is checked."""
    return op[0] == "littlewood" and op[2].startswith("corrupt:")


# ---- corruptions ----


def _rat_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def corrupt_text(fixture_text: str, spec: str) -> str:
    """Shift one field of one stage; every value stays well-formed.

    n and a move by one; delta by a quarter of itself; alpha, beta and the
    window endpoints by a quarter of the stage's window width, which keeps
    every window inside [0, 1] with lo <= hi.
    """
    _, _, stage, field, sign = spec.split(":")
    step = 1 if sign == "+" else -1
    payload = json.loads(fixture_text)
    st = payload["stages"][int(stage)]
    width = Fraction(st["delta"]) / _fib(st["n"]) ** 2
    if field == "n":
        st["n"] += step
    elif field == "a":
        st["a"] = str(int(st["a"]) + step)
    elif field == "delta":
        st["delta"] = _rat_str(Fraction(st["delta"]) * (1 + Fraction(step, 4)))
    elif field in ("alpha", "beta"):
        st[field] = _rat_str(Fraction(st[field]) + step * width / 4)
    else:
        window, end = field[0], int(field[1])
        st[window][end] = _rat_str(Fraction(st[window][end]) + step * width / 4)
    return json.dumps(payload, indent=2) + "\n"


# ---- running ops ----


@dataclass(frozen=True)
class Outcome:
    rc: Optional[int]  # None when an exception escaped cli.main
    stdout: str  # sha256 of the stdout bytes
    out: Optional[str]  # sha256 of the --out file, if the op has one
    error: Optional[str] = None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Resolves placeholders to files under `tmp` and runs ops in process."""

    def __init__(self, cli_module, fixture_dir: Path, tmp: Path):
        self.cli = cli_module
        self.fixture_dir = fixture_dir
        self.tmp = tmp
        self.out_path = tmp / "out.json"
        self.last_out: Optional[bytes] = None

    def prepare(self, ops: list[Op]) -> None:
        """Write every corrupted certificate the ops name."""
        for op in ops:
            for arg in op:
                if arg.startswith("corrupt:"):
                    path = self._path(arg)
                    if not path.exists():
                        fixture = self._path("fixture:" + arg.split(":")[1])
                        path.write_text(corrupt_text(fixture.read_text(), arg))

    def _path(self, arg: str) -> Path:
        if arg.startswith("fixture:"):
            return self.fixture_dir / f"{arg[len('fixture:'):]}.json"
        return self.tmp / (arg.replace(":", "_").replace("+", "p").replace("-", "m") + ".json")

    def argv(self, op: Op) -> list[str]:
        out = []
        for arg in op:
            if arg == "{out}":
                out.append(str(self.out_path))
            elif arg.startswith(("fixture:", "corrupt:")):
                out.append(str(self._path(arg)))
            else:
                out.append(arg)
        return out

    def execute(self, op: Op) -> tuple[float, Outcome]:
        """Run one op; the returned seconds cover cli.main alone."""
        argv = self.argv(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # an op that raises out of main is a failed op
                rc, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        out = self.last_out = None
        if "{out}" in op and self.out_path.exists():
            self.last_out = self.out_path.read_bytes()
            out = sha256(self.last_out)
            self.out_path.unlink()
        return seconds, Outcome(rc, sha256(stdout.getvalue().encode()), out, error)


def expected_ok(op: Op, outcome: Outcome, frozen: dict) -> bool:
    """True when the op reproduced its frozen outcome (exit code, stdout
    digest and --out digest), or for a corrupted littlewood op, exited 1."""
    if outcome.rc is None:
        return False
    if is_rule_checked(op):
        return outcome.rc == 1
    want = frozen.get(key(op))
    if want is None:
        return False
    return [outcome.rc, outcome.stdout, outcome.out] == want
