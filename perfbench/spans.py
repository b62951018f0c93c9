"""Span recorder for the traced run; the untraced run never imports it.

The recorder swaps the public functions of the fibnest modules for wrappers
at the names their callers look up, and keeps one span per call in memory:
name, start, end, parent span and op id. Counting hooks add the work done
(candidates scanned, checks made, bytes rendered). The Fibonacci table
lookups are only counted: there are too many of them for a span each.
"""

from __future__ import annotations

import importlib
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

COMMANDS = ("construct", "verify-cert", "min-scan", "limit-table", "q1", "q2", "littlewood", "discrepancy")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("search.find_brute.calls", "count"),
    ("search.find_brute.s", "s"),
    ("search.find_brute.hits", "count"),
    ("search.find_brute.candidates", "count"),
    ("search.find_brute.range_too_large", "count"),
    ("search.find_two_scale.calls", "count"),
    ("search.find_two_scale.s", "s"),
    ("search.find_two_scale.hits", "count"),
    ("search.find_two_scale.exhausted", "count"),
    ("search.find_witness.calls", "count"),
    ("search.find_witness.s", "s"),
    ("nest.build.s", "s"),
    ("nest.build.stages", "count"),
    ("nest.build.indices_tried", "count"),
    ("nest.build.index_yield", "ratio"),
    ("nest.build.max_n", "index"),
    ("fib.fib.calls", "count"),
    ("fib.fib.max_k", "index"),
    ("nest.verify_certificate.calls", "count"),
    ("nest.verify_certificate.s", "s"),
    ("nest.verify_certificate.checks", "count"),
    ("nest.certificate_from_json.s", "s"),
    ("nest.certificate_to_json.s", "s"),
    ("nest.certificate_to_json.bytes", "bytes"),
    ("bounds.littlewood_lower_bound.calls", "count"),
    ("bounds.littlewood_lower_bound.s", "s"),
    ("bounds.littlewood_lower_bound.points", "count"),
    ("bounds.min_product.calls", "count"),
    ("bounds.min_product.s", "s"),
    ("bounds.min_product.points", "count"),
    ("bounds.limit_table.s", "s"),
    ("bounds.check_nonconvergent_gap.s", "s"),
    ("bounds.check_nonconvergent_gap.pairs", "count"),
    ("bounds.star_discrepancy.s", "s"),
    ("bounds.star_discrepancy.points", "count"),
    ("bounds.convergent_gap.s", "s"),
    ("surd.Quad.sign.calls", "count"),
    ("surd.Quad.sign.s", "s"),
    ("surd.Quad.decimal.calls", "count"),
    ("surd.Quad.decimal.s", "s"),
    ("report.render.calls", "count"),
    ("report.render.s", "s"),
    ("report.render.bytes", "bytes"),
    *[(f"cli.main.{cmd}.s", "s") for cmd in COMMANDS],
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

BOUNDS_PUBLIC = (
    "min_product",
    "check_min_product_bound",
    "convergent_family",
    "check_nonconvergent_gap",
    "convergent_gap",
    "littlewood_lower_bound",
    "star_discrepancy_of_points",
    "star_discrepancy",
    "limit_table",
    "limit_table_footer",
    "limit_table_csv",
)
RENDERERS = ("to_json", "to_csv", "bundle_to_text", "report_to_text")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op id]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---- patching ----

    def _swap(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name, before=None, after=None, errors=None):
        """Wrap owner.attr so that each call records a span.

        `name` is a string or a function of the call's arguments. `before`
        and `after` see the arguments (and the result); `errors` maps an
        exception type to the counter it bumps.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        errors = errors or {}
        caught = tuple(errors)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            index = len(spans)
            span = [name if isinstance(name, str) else name(*args), 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except caught as exc:
                for kind, counter in errors.items():
                    if isinstance(exc, kind):
                        self.counts[counter] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._swap(owner, attr, wrapper)

    def count_fib(self, owner) -> None:
        original = owner.fib
        counts = self.counts

        def fib(k):
            counts["fib.fib.calls"] += 1
            if k > counts["fib.fib.max_k"]:
                counts["fib.fib.max_k"] = k
            return original(k)

        self._swap(owner, "fib", fib)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from fibnest import bounds, cli, nest, search, surd

        fib_module = importlib.import_module("fibnest.fib")  # the package re-exports fib the function

        c = self.counts
        fib = fib_module.fib  # taken before count_fib wraps it, so hooks add no calls

        def add(counter, amount=1):
            c[counter] += amount

        def candidates(n, I, *_):
            fn = fib(n)
            lo, hi = max(math.ceil(I.lo * fn), 1), min(math.floor(I.hi * fn), fn - 1)
            add("search.find_brute.candidates", max(0, hi - lo + 1))

        def built(cert, *_, **__):
            add("nest.build.stages", len(cert.stages) - 1)
            c["nest.build.max_n"] = max(c["nest.build.max_n"], cert.stages[-1].n)

        self.span(
            search,
            "find_brute",
            "search.find_brute",
            before=candidates,
            after=lambda w, *_: add("search.find_brute.hits", w is not None),
            errors={search.RangeTooLarge: "search.find_brute.range_too_large"},
        )
        self.span(
            search,
            "find_two_scale",
            "search.find_two_scale",
            after=lambda w, *_: add("search.find_two_scale.hits", w is not None),
            errors={search.TwoScaleExhausted: "search.find_two_scale.exhausted"},
        )
        self.span(nest, "find_witness", "search.find_witness")
        self.span(nest, "build", "nest.build", after=built)
        self.span(
            nest,
            "verify_certificate",
            "nest.verify_certificate",
            after=lambda bundle, *_: add("nest.verify_certificate.checks", len(bundle.items)),
        )
        self.span(nest, "certificate_from_json", "nest.certificate_from_json")
        self.span(
            nest,
            "certificate_to_json",
            "nest.certificate_to_json",
            after=lambda text, *_: add("nest.certificate_to_json.bytes", len(text.encode())),
        )
        hooks = {
            "littlewood_lower_bound": dict(
                after=lambda res, *_, **__: add("bounds.littlewood_lower_bound.points", res.budget.x_max)
            ),
            "min_product": dict(after=lambda rec, *_, **__: add("bounds.min_product.points", fib(rec.n) - 1)),
            "check_nonconvergent_gap": dict(
                before=lambda n, x_max, *_: add("bounds.check_nonconvergent_gap.pairs", x_max * (x_max + 3) // 2)
            ),
            "star_discrepancy": dict(before=lambda n, count, *_, **__: add("bounds.star_discrepancy.points", count)),
        }
        for attr in BOUNDS_PUBLIC:
            self.span(bounds, attr, f"bounds.{attr}", **hooks.get(attr, {}))
        self.span(surd.Quad, "sign", "surd.Quad.sign")
        self.span(surd.Quad, "decimal", "surd.Quad.decimal")
        for attr in RENDERERS:
            self.span(cli, attr, "report.render", after=lambda text, *_: add("report.render.bytes", len(text.encode())))
        self.span(cli, "main", lambda argv: f"cli.main.{argv[0]}")
        for module in (fib_module, search, nest, bounds):
            self.count_fib(module)

    # ---- results ----

    def layer_metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                # one thread, so sibling spans never overlap: summing them
                # gives the part of the parent's interval they cover
                child[parent] += end - start
        indices_tried = sum(
            1 for name, _, _, parent, _ in self.spans
            if name == "search.find_witness" and parent >= 0 and self.spans[parent][0] == "nest.build"
        )
        cli_self = sum(
            end - start - child[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name.startswith("cli.main.")
        )
        values = dict(self.counts)
        values["nest.build.indices_tried"] = indices_tried
        values["nest.build.index_yield"] = values.get("nest.build.stages", 0) / indices_tried if indices_tried else 0.0
        values["cli.main.self_s"] = cli_self
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        out = {}
        for metric, _unit in PER_LAYER:
            if metric in values:
                out[metric] = values[metric]
                continue
            name, _, stat = metric.rpartition(".")
            out[metric] = calls[name] if stat == "calls" else busy[name] if stat == "s" else 0
        return out

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin, "end": end - origin, "parent": parent, "op": op}) + "\n")
