"""In-memory spans around the calls the benchmark makes into each layer.

A span is (name, start_ns, end_ns, parent index, request id).  Spans are
appended when they open, so a parent always precedes its children, and are
written out as JSON lines when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover; one client runs one
request at a time, so children never overlap and that is a plain sum.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from types import SimpleNamespace

import spa.cli
from spa.costs import Verdict
from spa.strands import Classifier

# name `spa.cli` imports -> span name (module.function)
LAYERS = {
    "parse": "parser.parse",
    "project": "parser.project",
    "extract": "extraction.extract",
    "cost_of_space": "costs.cost_of_space",
    "simplify": "costs.simplify",
    "render_cost": "costs.render_cost",
    "compare": "costs.compare",
    "eval_cost": "costs.eval_cost",
    "load_config": "config.load_config",
    "edges": "strands.edges",
}

_RECOVERY = (Classifier.C_I, Classifier.C_D)


def _count_extract(counts: Counter, ext) -> None:
    counts["extraction.ops"] += len(ext.ops)
    counts["extraction.recovery_ops"] += sum(
        1 for op in ext.ops if op.classifier in _RECOVERY
    )


def _count_compare(counts: Counter, result) -> None:
    counts["costs.compare.decided"] += result.verdict is not Verdict.INDETERMINATE
    counts["costs.compare.trace_steps"] += len(result.trace)


# counts taken from a layer's result, at the same boundary as its span
_COUNTERS = {
    "extraction.extract": _count_extract,
    "costs.cost_of_space": lambda c, e: c.update({"costs.terms_raw": len(e.terms)}),
    "costs.simplify": lambda c, e: c.update({"costs.terms_simplified": len(e.terms)}),
    "costs.compare": _count_compare,
}

PLAIN = SimpleNamespace(
    main=spa.cli.main, **{attr: getattr(spa.cli, attr) for attr in LAYERS}
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.current = -1
        self.request = 0
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.functions = SimpleNamespace(
            main=self.wrap("cli.main", PLAIN.main),
            **{
                attr: self.wrap(name, getattr(PLAIN, attr))
                for attr, name in LAYERS.items()
            },
        )

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            parent = self.current
            record = [name, 0, 0, parent, self.request]
            self.current = len(self.spans)
            self.spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[2] = perf_counter_ns()
                self.raised[name] += 1
                raise
            finally:
                self.current = parent
            record[2] = perf_counter_ns()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the calls `spa.cli` makes into each layer through spans."""
        for attr in LAYERS:
            setattr(spa.cli, attr, getattr(self.functions, attr))
        try:
            yield self.functions
        finally:
            for attr in LAYERS:
                setattr(spa.cli, attr, getattr(PLAIN, attr))

    def request_span(self, fn):
        """Run fn as one traced request: a root span named `request`."""
        self.request += 1
        return self.wrap("request", fn)

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time (ns) and call count per span name."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        busy: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            busy[name] += end - start - child
            calls[name] += 1
        return busy, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


# (metric, unit, better); every one is printed by a traced run
PER_LAYER = (
    ("extraction.extract.busy_s", "s", "lower"),
    ("extraction.extract.calls", "count", "higher"),
    ("extraction.extract.raised", "count", "lower"),
    ("extraction.ops", "count", "higher"),
    ("extraction.recovery_ops", "count", "higher"),
    ("extraction.ops_per_s", "1/s", "higher"),
    ("parser.parse.busy_s", "s", "lower"),
    ("parser.parse.calls", "count", "higher"),
    ("parser.project.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "higher"),
    ("config.load_config.busy_s", "s", "lower"),
    ("config.load_config.calls", "count", "higher"),
    ("strands.edges.busy_s", "s", "lower"),
    ("strands.edges.raised", "count", "lower"),
    ("costs.cost_of_space.busy_s", "s", "lower"),
    ("costs.simplify.busy_s", "s", "lower"),
    ("costs.render_cost.busy_s", "s", "lower"),
    ("costs.terms_raw", "count", "higher"),
    ("costs.terms_simplified", "count", "higher"),
    ("costs.compare.busy_s", "s", "lower"),
    ("costs.compare.calls", "count", "higher"),
    ("costs.compare.decided_share", "share", "higher"),
    ("costs.compare.trace_steps", "count", "higher"),
    ("costs.eval_cost.busy_s", "s", "lower"),
    ("trace.request_busy_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def layer_metrics(tracer: Tracer, untraced_ns: int, traced_ns: int) -> dict:
    """Per-layer values of a traced run.

    `untraced_ns` and `traced_ns` are the summed latencies of the same
    requests run once without and once with spans.
    """
    busy, calls = tracer.self_times()
    counts = tracer.counts
    s = 1e-9
    extract_s = busy["extraction.extract"] * s
    compares = calls["costs.compare"]
    values = {
        "extraction.extract.busy_s": extract_s,
        "extraction.extract.calls": calls["extraction.extract"],
        "extraction.extract.raised": tracer.raised["extraction.extract"],
        "extraction.ops": counts["extraction.ops"],
        "extraction.recovery_ops": counts["extraction.recovery_ops"],
        "extraction.ops_per_s": counts["extraction.ops"] / extract_s if extract_s else 0.0,
        "parser.parse.busy_s": busy["parser.parse"] * s,
        "parser.parse.calls": calls["parser.parse"],
        "parser.project.busy_s": busy["parser.project"] * s,
        "cli.main.self_s": busy["cli.main"] * s,
        "cli.main.calls": calls["cli.main"],
        "config.load_config.busy_s": busy["config.load_config"] * s,
        "config.load_config.calls": calls["config.load_config"],
        "strands.edges.busy_s": busy["strands.edges"] * s,
        "strands.edges.raised": tracer.raised["strands.edges"],
        "costs.cost_of_space.busy_s": busy["costs.cost_of_space"] * s,
        "costs.simplify.busy_s": busy["costs.simplify"] * s,
        "costs.render_cost.busy_s": busy["costs.render_cost"] * s,
        "costs.terms_raw": counts["costs.terms_raw"],
        "costs.terms_simplified": counts["costs.terms_simplified"],
        "costs.compare.busy_s": busy["costs.compare"] * s,
        "costs.compare.calls": compares,
        "costs.compare.decided_share": counts["costs.compare.decided"] / compares
        if compares
        else 0.0,
        "costs.compare.trace_steps": counts["costs.compare.trace_steps"],
        "costs.eval_cost.busy_s": busy["costs.eval_cost"] * s,
        "trace.request_busy_s": _request_ns(tracer) * s,
        # 1 - rps_traced / rps_untraced over the same requests
        "trace.overhead_share": 1.0 - untraced_ns / traced_ns if traced_ns else 0.0,
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _request_ns(tracer: Tracer) -> int:
    return sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
