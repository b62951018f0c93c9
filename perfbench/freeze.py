"""Regenerate the frozen outcome table and the fixture certificates.

Runs every menu op of every workload once, in process, and records its exit
code with the SHA-256 of its stdout and of its --out file in frozen.json.
Corrupted certificates given to littlewood are left out: their expected
outcome is a rule (exit 1), not a recording. The depth-4 construct outputs
named in ops.FIXTURES are written to fixtures/.

The table pins the outputs of one version of the program; regenerate it only
when an output is meant to change. Takes several minutes, mostly the two
level-2 littlewood scans over F_29 and F_30 points.

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ops  # noqa: E402
from fibnest import cli  # noqa: E402


def main() -> int:
    fixture_dir = HERE / "fixtures"
    fixture_dir.mkdir(exist_ok=True)
    fixture_ops = {ops.key(ops.construct_op(4, delta, n0)): name for name, (delta, n0) in ops.FIXTURES.items()}
    table: dict[str, list] = {}
    scratch = HERE.parent / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        runner = ops.Runner(cli, fixture_dir, Path(tmp))
        for workload in ops.WORKLOADS:  # construct first: it writes the fixtures
            for kind in ops.workload_kinds(workload):
                start = time.perf_counter()
                todo = [op for op in kind.menu if not ops.is_rule_checked(op)]
                runner.prepare(todo)
                for op in todo:
                    if ops.key(op) in table:
                        continue
                    _, outcome = runner.execute(op)
                    if outcome.rc is None:
                        raise SystemExit(f"{ops.key(op)}: {outcome.error}")
                    if any(arg.startswith("corrupt:") for arg in op) and outcome.rc != 1:
                        raise SystemExit(f"{ops.key(op)}: corruption not rejected (exit {outcome.rc})")
                    table[ops.key(op)] = [outcome.rc, outcome.stdout, outcome.out]
                    if ops.key(op) in fixture_ops:
                        (fixture_dir / f"{fixture_ops[ops.key(op)]}.json").write_bytes(runner.last_out)
                print(f"{workload:9s} {kind.name:28s} {len(todo):5d} ops {time.perf_counter() - start:8.2f} s", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    (HERE / "frozen.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(table)} outcomes frozen")
    return 0


if __name__ == "__main__":
    sys.exit(main())
