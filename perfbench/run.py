"""fibnest benchmark: one closed-loop client driving the CLI in process.

    python3 perfbench/run.py --workload {construct,certify,scan,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from its src/ directory. Each op calls fibnest.cli.main(argv) with
stdout and stderr captured, is timed from outside, and is checked against
the frozen outcome table (exit code plus SHA-256 of stdout and of any --out
file). --seconds sets how much work a run does: it makes
round(seconds / ops.PASS_SECONDS[workload]) passes over the seed's op list,
at least one, which at the commit that defined the benchmark took about
--seconds.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics of spans.py. --workload
all runs each workload in its own process and prints every end-to-end
metric. The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops  # noqa: E402

SETUP_PROBES = 7
SCRATCH = ROOT / ".bench_build" / "perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]


class SetupError(RuntimeError):
    pass


def setup(workload: str, seed: int, tmp: Path):
    """Import the package from the checkout, load and check the frozen
    table and fixtures, and generate and materialize the seed's ops."""
    src = ROOT / "src"
    if not (src / "fibnest" / "__init__.py").is_file():
        raise SetupError(f"no fibnest package under {src}")
    sys.path.insert(0, str(src))
    from fibnest import cli

    if Path(cli.__file__).resolve().parent != src / "fibnest":
        raise SetupError(f"imported fibnest from {cli.__file__}, not from {src}")
    frozen = json.loads((HERE / "frozen.json").read_text())
    for name, (delta, n0) in ops.FIXTURES.items():
        want = frozen[ops.key(ops.construct_op(4, delta, n0))][2]
        if ops.sha256((HERE / "fixtures" / f"{name}.json").read_bytes()) != want:
            raise SetupError(f"fixture {name} differs from the frozen construct output")
    op_list = ops.op_list(workload, seed)
    runner = ops.Runner(cli, HERE / "fixtures", tmp)
    runner.prepare(op_list)
    return runner, op_list, frozen


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = child.stdout.readline()
    elapsed = time.perf_counter() - start
    child.communicate()
    if line.strip() != "ready" or child.returncode != 0:
        raise SetupError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


class Tally:
    """Latencies, pass times and failures of the ops run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.passes: list[float] = []
        self.failed = 0
        self.mismatched = 0  # failures against a recorded output, or raised
        self.corrupt_accepted = 0
        self.failures: list[dict] = []

    def run_pass(self, runner, op_list, frozen, recorder=None) -> None:
        start = time.perf_counter()
        for index, op in enumerate(op_list):
            if recorder is not None:
                recorder.op = index
            seconds, outcome = runner.execute(op)
            self.latencies.append(seconds)
            if not ops.expected_ok(op, outcome, frozen):
                self.failed += 1
                if ops.is_rule_checked(op):
                    self.corrupt_accepted += outcome.rc == 0
                else:
                    self.mismatched += 1
                if len(self.failures) < 200:
                    self.failures.append({"op": ops.key(op), "rc": outcome.rc, "error": outcome.error})
        self.passes.append(time.perf_counter() - start)

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fibnest").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "source_sha256": source.hexdigest()[:16],
        "seed": seed,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def run(args, tmp: Path) -> dict:
    setup_samples = [] if args.trace else [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    runner, op_list, frozen = setup(args.workload, args.seed, tmp)
    tally = Tally()
    if args.trace:
        import spans

        tally.run_pass(runner, op_list, frozen)
        recorder = spans.Recorder()
        recorder.install()
        try:
            tally.run_pass(runner, op_list, frozen, recorder)
        finally:
            recorder.restore()
        untraced, traced = tally.passes
        metrics = {
            name: {"value": value, "unit": unit}
            for (name, unit), value in zip(spans.PER_LAYER, recorder.layer_metrics(traced, untraced).values())
        }
        recorder.write(SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")
        samples = {"spans": len(recorder.spans), "ops": len(op_list)}
    else:
        for _ in range(max(1, round(args.seconds / ops.PASS_SECONDS[args.workload]))):
            tally.run_pass(runner, op_list, frozen)
        tail_value, tail_pct = tail(tally.latencies)
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(tally.passes),
            "op_p50_ms": 1000 * statistics.median(tally.latencies),
            "op_tail_ms": 1000 * tail_value,
            "ok_frac": 1 - tally.failed / tally.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples = {
            "setup_s": f"median of {len(setup_samples)} set-ups",
            "wall_s": f"median of {len(tally.passes)} passes of {len(op_list)} ops",
            "op_p50_ms": f"median of {tally.attempted} ops",
            "op_tail_ms": f"p{tail_pct:.1f} of {tally.attempted} ops",
            "ok_frac": f"{tally.attempted - tally.failed} of {tally.attempted} ops as expected",
            "peak_rss_mb": "ru_maxrss of this process",
        }
    return {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "metrics": metrics,
        "samples": samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "mismatched": tally.mismatched,
        "corrupt_littlewood_accepted": tally.corrupt_accepted,
        "pass_seconds": tally.passes,
        "failures": tally.failures,
    }


def report(result: dict) -> None:
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# workload={result['workload']} trace={result['trace']} {env}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{result['workload']:9s} {name:38s} {text} {metric['unit']:6s} {result['samples'].get(name, '')}")
    print(
        f"{result['workload']:9s} failed {result['failed']} of {result['attempted']} ops "
        f"(failed_frac {result['failed_frac']:.4f}; {result['corrupt_littlewood_accepted']} corrupted "
        f"certificates accepted by littlewood; {result['mismatched']} outputs differ from the frozen table)"
    )


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    status = 0
    for workload in ops.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fibnest benchmark")
    parser.add_argument("--workload", choices=(*ops.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    tmp = SCRATCH / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, tmp)
            print("ready", flush=True)
            return 0
        result = run(args, tmp)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (SCRATCH / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(
        json.dumps(
            {
                "correct": result["mismatched"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
