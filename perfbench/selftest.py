"""Self-test of the benchmark itself; takes a few seconds.

    python3 perfbench/selftest.py

Checks that a tiny scan op list reproduces the frozen table (failed_frac 0),
that every op any seed draws has an expected outcome, that each corruption
stays well-formed and is rejected by verify-cert, that the span recorder's
self times add up, and that BENCHMARK.json names exactly the metrics the
benchmark prints.
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
import run  # noqa: E402
import spans  # noqa: E402
from fibnest import cli, nest  # noqa: E402

FROZEN = json.loads((HERE / "frozen.json").read_text())
failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def test_tiny_scan(runner: ops.Runner) -> None:
    tiny = [kind.menu[0] for kind in ops.workload_kinds("scan")]
    tally = run.Tally()
    recorder = spans.Recorder()
    recorder.install()
    try:
        tally.run_pass(runner, tiny, FROZEN, recorder)
    finally:
        recorder.restore()
    check(tally.attempted == len(tiny) and tally.failed == 0, f"tiny scan: {tally.failures}")
    layer = recorder.layer_metrics(1.0, 1.0)
    check(list(layer) == [name for name, _ in spans.PER_LAYER], "per-layer metric names")
    check(layer["search.find_brute.calls"] == 0, "scan calls find_brute")
    check(layer["bounds.littlewood_lower_bound.calls"] == 0, "scan calls littlewood")
    check(layer["bounds.min_product.calls"] > 0, "scan never calls min_product")
    check(layer["cli.main.self_s"] >= 0, "negative self time")
    check(cli.main.__name__ == "main", "cli.main left patched")


def test_tail() -> None:
    check(run.tail([float(x) for x in range(1, 21)]) == (10.0, 50.0), "tail of 20 samples")
    check(run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0), "tail of 3 samples")


def test_frozen_table_matches_menus() -> None:
    menu = {ops.key(op) for w in ops.WORKLOADS for kind in ops.workload_kinds(w) for op in kind.menu}
    stale = [k for k in FROZEN if k not in menu]
    check(not stale, f"frozen outcomes for ops no menu has: {stale[:3]}")


def test_every_drawn_op_has_an_outcome() -> None:
    for workload in ops.WORKLOADS:
        counts = sum(kind.count for kind in ops.workload_kinds(workload))
        for seed in range(50):
            drawn = ops.op_list(workload, seed)
            check(drawn == ops.op_list(workload, seed), f"{workload} seed {seed} not deterministic")
            check(len(drawn) == counts, f"{workload} seed {seed} op count")
            missing = [ops.key(op) for op in drawn if not ops.is_rule_checked(op) and ops.key(op) not in FROZEN]
            check(not missing, f"{workload} seed {seed}: no frozen outcome for {missing[:3]}")


def test_corruptions(runner: ops.Runner) -> None:
    specs = ops.corruptions("pow2-5")
    bad = [ops.verify_op(spec, "text") for spec in specs]
    runner.prepare(bad)
    for op in bad:
        _, outcome = runner.execute(op)
        check(outcome.rc == 1, f"{op[2]}: verify-cert exit {outcome.rc}, want 1")
        nest.certificate_from_json(Path(runner.argv(op)[2]).read_text())  # raises if malformed


def test_self_time() -> None:
    class Box:
        @staticmethod
        def inner():
            time.sleep(0.01)

        @staticmethod
        def outer():
            Box.inner()
            Box.inner()
            time.sleep(0.01)

    recorder = spans.Recorder()
    recorder.span(Box, "inner", "inner")
    recorder.span(Box, "outer", "outer")
    Box.outer()
    recorder.restore()
    names = [(name, parent) for name, _, _, parent, _ in recorder.spans]
    check(names == [("outer", -1), ("inner", 0), ("inner", 0)], f"span parents {names}")
    outer = recorder.spans[0]
    children = sum(end - start for _, start, end, parent, _ in recorder.spans if parent == 0)
    check(0.005 < outer[2] - outer[1] - children < 0.05, "outer self time")


def test_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(ops.WORKLOADS), "BENCHMARK.json workloads")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END, "BENCHMARK.json end_to_end")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER, "BENCHMARK.json per_layer")


def main() -> int:
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.SCRATCH) as tmp:
        runner = ops.Runner(cli, HERE / "fixtures", Path(tmp))
        test_tiny_scan(runner)
        test_corruptions(runner)
    test_tail()
    test_frozen_table_matches_menus()
    test_every_drawn_op_has_an_outcome()
    test_self_time()
    test_benchmark_json()
    for message in failures:
        print(f"FAIL {message}")
    print("selftest ok" if not failures else f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
