#!/usr/bin/env python3
"""Seeded closed-loop benchmark of `spa`, run from the repository root.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

One client sends the next request when the previous one has returned, in
this process and without threads.  The seed fixes every input.  A run
makes the number of whole passes that take about `--seconds` on the
baseline host, so the seed also fixes how many requests are sent and
which of them fail; each pass sends the workload's whole mix with fresh
inputs, so no request repeats an earlier one.  Every output is checked against a reference that does not come from
the code under test.  With `--trace 0` the run reports the end-to-end
metrics over every request that passed its check, with times scaled to a
reference host speed (see `hostspeed.py`); with `--trace 1` it runs
every request once with and once without spans around the calls into each
layer, and reports the per-layer metrics and the tracing overhead.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from hostspeed import NOMINAL_NS, HostSpeed, seconds_at_nominal
from reference import FAILED, OK, WRONG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chain", "cli_small", "compare_eval")
CONFIG = "configs/default.json"
REQUIRED = ("src/spa/__init__.py", "src/spa/cli.py", CONFIG, "README.md", "protocols")
RUN_SECONDS = 30  # BENCHMARK.json's run_seconds, which the baseline used
SETUP_RUNS = 25  # fresh interpreters a run times, spread evenly over it
MIN_SAMPLES = 100  # passed requests an untraced run holds, so ten lie beyond p90
MAX_RUN_S = 150.0  # stop mid-pass past this, so a run ends within 180 s
# Wall seconds of one untraced pass on the baseline host, checks, probes
# and set-up samples included, while its probe took about 8 ms.  A run
# makes a fixed number of passes, so that the same seed always sends the
# same requests and meets the same failures.
PASS_S = {"chain": 6.0, "cli_small": 15.0, "compare_eval": 1.65}
TRACED_COST = 2  # a traced pass sends every request twice

# (metric, unit, better)
END_TO_END = (
    ("requests_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("success_rate", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

_SETUP = """
import sys, time
sys.path.insert(0, sys.argv[1])
from hostspeed import probe
probe()
probe_ns = probe()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import spa, spa.cli
spa.load_config(sys.argv[3])
print(probe_ns, time.perf_counter() - start)
"""


class Setup:
    """Time, in fresh interpreters, to import `spa` and `spa.cli` and load
    the default config, scaled by a probe the interpreter runs just before.
    They read the bytecode this process's own imports left in
    `__pycache__`, as a user's second command would.  The samples are
    spread over the run."""

    def __init__(self, seconds: float):
        self.every = seconds / SETUP_RUNS
        self.times: list[float] = []

    def sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP, str(HERE), str(ROOT / "src"), CONFIG],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        probe_ns, seconds = proc.stdout.split()
        self.times.append(seconds_at_nominal(float(seconds), int(probe_ns)))

    def due(self, elapsed: float) -> None:
        if len(self.times) < SETUP_RUNS and elapsed >= len(self.times) * self.every:
            self.sample()

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def build(name: str, seed: int, workdir: Path):
    if name == "chain":
        from chain import Chain

        return Chain(seed)
    if name == "cli_small":
        from cli_small import CliSmall

        return CliSmall(seed, ROOT, workdir)
    from compare_eval import CompareEval

    return CompareEval(seed)


def timed(call, fns, req):
    start = perf_counter_ns()
    try:
        out = call(fns, req)
    except Exception as exc:  # a traceback is a failed request, not a crash
        exc.add_note(traceback.format_exc())
        out = exc
    return out, perf_counter_ns() - start


class Run:
    """Outcomes of one run, and the latencies of the requests that passed."""

    def __init__(self):
        self.latencies: list[float] = []  # ns, requests that passed
        self.busy_ns = 0.0  # every request
        self.attempted = 0
        self.passes = 0
        self.outcomes: Counter = Counter()
        self.problems: list[str] = []

    def record(self, req, out, ns: float, check) -> None:
        self.attempted += 1
        self.busy_ns += ns
        status, problem = check(req, out)
        self.outcomes[status] += 1
        if status == OK:
            self.latencies.append(ns)
        if problem and len(self.problems) < 5:
            notes = getattr(out, "__notes__", ())  # the traceback, for a raise
            self.problems.append(f"{status}: {problem}" + "".join("\n" + n for n in notes))


def preflight(run: Run, tracer) -> None:
    """README examples, checked before measuring; traced in a traced run so
    that every layer has spans in every traced run."""
    from cli_small import CliSmall, check, preflight as requests
    from tracing import PLAIN

    for req in requests(ROOT):
        if tracer is None:
            out, ns = timed(CliSmall.call, PLAIN, req)
        else:
            with tracer.installed() as fns:
                out, ns = timed(tracer.request_span(CliSmall.call), fns, req)
        run.record(req, out, ns, check)


def planned_passes(workload: str, seconds: float, traced: bool) -> int:
    """Passes that take about `seconds` on the baseline host."""
    per_pass = PASS_S[workload] * (TRACED_COST if traced else 1)
    return max(1, round(seconds / per_pass))


def measure(workload, passes: int, tracer, setup: Setup | None,
            speed: HostSpeed | None) -> tuple[Run, int, int]:
    """`passes` whole passes, and more until an untraced run holds
    `MIN_SAMPLES`; the seed fixes both, so it fixes every count the run
    reports.  An untraced run scales each latency to the reference host
    speed; a traced run sends each request untraced and traced,
    alternating which goes first, and keeps its times as measured."""
    from tracing import PLAIN

    run = Run()
    untraced = traced = 0
    start = perf_counter()
    while (
        run.passes < max(1, passes)
        or (tracer is None and len(run.latencies) < MIN_SAMPLES)
    ):
        for i, req in enumerate(workload.requests(run.passes)):
            elapsed = perf_counter() - start
            if elapsed > MAX_RUN_S:
                break
            if tracer is None:
                setup.due(elapsed)
                speed.update()
                out, ns = timed(workload.call, PLAIN, req)
                speed.add(ns, lambda ns, req=req, out=out: run.record(req, out, ns, workload.check))
                continue
            for with_spans in (i % 2 == 1, i % 2 == 0):
                if with_spans:
                    with tracer.installed() as fns:
                        out, ns = timed(tracer.request_span(workload.call), fns, req)
                    traced += ns
                else:
                    out, ns = timed(workload.call, PLAIN, req)
                    untraced += ns
                run.record(req, out, ns, workload.check)
        if tracer is None:
            speed.update(force=True)  # scales and records the pass's last samples
        if perf_counter() - start > MAX_RUN_S:
            break
        run.passes += 1
    return run, untraced, traced


def run_one(args) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spa

    if Path(spa.__file__).resolve().parent != (ROOT / "src" / "spa").resolve():
        print(f"error: imported spa from {spa.__file__}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics

    setup, speed = (None, None) if args.trace else (Setup(args.seconds), HostSpeed())
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        workload = build(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        checked = Run()
        preflight(checked, tracer)
        passes = planned_passes(args.workload, args.seconds, bool(args.trace))
        run, untraced_ns, traced_ns = measure(workload, passes, tracer, setup, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = run.attempted
    failed = run.outcomes[FAILED] + run.outcomes[WRONG]
    correct = (
        not run.outcomes[WRONG]
        and (workload.failures_expected or not run.outcomes[FAILED])
        and bool(run.latencies)
        and checked.outcomes[OK] == checked.attempted
    )
    if tracer is not None:
        metrics = layer_metrics(tracer, untraced_ns, traced_ns)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        lat = sorted(run.latencies) or [0]
        values = {
            "requests_per_s": run.outcomes[OK] / (run.busy_ns * 1e-9),
            "latency_p50_ms": percentile(lat, 0.50) * 1e-6,
            "latency_p90_ms": percentile(lat, 0.90) * 1e-6,
            "success_rate": run.outcomes[OK] / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup.median(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {run.passes}  "
          f"requests {n}  failed {failed}  error_rate {failed / n:.6f}")
    if tracer is None:
        print(f"  host speed: probe median {speed.median_probe_ms():.3f} ms, "
              f"times scaled to a probe of {NOMINAL_NS * 1e-6:.3f} ms")
        if len(run.latencies) < MIN_SAMPLES:
            print(f"warning: {len(run.latencies)} requests passed; fewer than ten lie beyond p90",
                  file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6f} {metric['unit']}")
    if tracer is not None:
        base = metrics["trace.request_busy_s"]["value"]
        shares = (
            ("extraction.extract", ("extraction.extract.busy_s",)),
            ("costs.compare + costs.eval_cost", ("costs.compare.busy_s", "costs.eval_cost.busy_s")),
            ("cli.main self", ("cli.main.self_s",)),
        )
        for label, names in shares:
            part = sum(metrics[m]["value"] for m in names)
            print(f"  share of {base:.3f} s request time in {label}: {part / base:.1%}")
    for problem in checked.problems + run.problems:
        print(f"  {problem}", file=sys.stderr)
    if not correct:
        print("error: an output check failed, or a request failed where none may "
              "(see above)", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode not in (0, 1) or not lines:
                print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a spa checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
