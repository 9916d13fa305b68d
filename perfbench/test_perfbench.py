"""Tests of the benchmark's own references and plumbing.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

from spa import extract, parse, project  # noqa: E402

from chain import Chain, chain_text, expected_counts  # noqa: E402
from cli_small import CliRequest, check, random_protocol, tagged  # noqa: E402
from compare_eval import CompareEval  # noqa: E402
from reference import (  # noqa: E402
    FAILED,
    OK,
    WRONG,
    Pricer,
    expected_multiplicities,
    multiplicities,
    readme_examples,
)
from hostspeed import NOMINAL_NS, HostSpeed, probe  # noqa: E402
from tracing import Tracer  # noqa: E402

# counted by hand from the chain's message shape
HAND_COUNTED = {
    (2, 2): {
        "A": {"C_N": 2, "C_C": 5, "C_E": 1, "C_H": 1, "C_PK": 1},
        "B": {"C_N": 2, "C_C": 5, "C_E": 1, "C_H": 1, "C_PK": 1, "C_D": 1, "C_I": 2},
    },
    (3, 4): {
        "A": {"C_N": 8, "C_C": 18, "C_E": 2, "C_H": 2, "C_PK": 2, "C_D": 1, "C_I": 2},
        "B": {"C_N": 4, "C_C": 9, "C_E": 1, "C_H": 1, "C_PK": 1, "C_D": 1, "C_I": 2},
    },
    (4, 8): {
        "A": {"C_N": 16, "C_C": 34, "C_E": 2, "C_H": 2, "C_PK": 2, "C_D": 1, "C_I": 2},
        "B": {"C_N": 16, "C_C": 34, "C_E": 2, "C_H": 2, "C_PK": 2, "C_D": 2, "C_I": 4},
    },
}


@pytest.mark.parametrize("n, w", sorted(HAND_COUNTED))
def test_chain_closed_form_matches_hand_counts_and_extraction(n, w):
    closed = expected_counts(n, w)
    assert closed == {role: Counter(c) for role, c in HAND_COUNTED[n, w].items()}
    for strand in project(parse(chain_text(n, w))).strands:
        ops = Counter(op.classifier.value for op in extract(strand).ops)
        assert ops == closed[strand.participant.label]


def test_cost_multiplicities_follow_op_counts():
    # B at n=2, w=2: f_sk counts C_E + C_D; L_P counts every transmission
    want = {"f_sk": 2, "f_pk": 1, "f_h": 1, "f_ng": 2, "L_C": 5, "f_s": 2, "L_P": 15}
    assert expected_multiplicities(HAND_COUNTED[2, 2]["B"]) == want
    line = "f_pk(|m|) + f_ng(|n|) + 4*L_C + f_h(2|n| + |r| + S_asym(|m|)) + 8*L_P"
    assert multiplicities(line) == {"f_pk": 1, "f_ng": 1, "L_C": 4, "f_h": 1, "L_P": 8}


def test_pricer_reproduces_readme_eval():
    config = json.loads((ROOT / "configs/default.json").read_text())
    pricer = Pricer(config)
    assert pricer.term("f_h", "2|n| + |r| + |m| + S_asym(|m|)") == pytest.approx(3.18)
    assert pricer.term("f_pk", "S_hash") == pytest.approx(450.0)


def test_readme_examples_are_found():
    examples = readme_examples((ROOT / "README.md").read_text())
    commands = [argv[0] for argv, _ in examples]
    assert {"check", "cost", "compare", "eval"} <= set(commands)
    compare = next(out for argv, out in examples if argv[0] == "compare")
    assert compare.startswith("verdict: Greater\n")


def test_inputs_depend_only_on_the_seed_and_are_fresh_every_pass():
    chain = [Chain(3).requests(k) for k in (0, 1)]
    assert [r.text for r in chain[0]] == [r.text for r in Chain(3).requests(0)]
    assert not {r.text for r in chain[0]} & {r.text for r in chain[1]}
    assert Counter((r.n, r.w) for r in chain[0]) == Counter((r.n, r.w) for r in chain[1])
    a, b = CompareEval(3).requests(0), CompareEval(3).requests(0)
    assert [(p.left, p.right, p.verdict) for p in a] == [(p.left, p.right, p.verdict) for p in b]
    later = CompareEval(3)
    later.requests(0)
    assert {(p.left, p.right) for p in later.requests(1)} != {(p.left, p.right) for p in a}
    texts = [random_protocol(random.Random(7), "p", 3, 4).text() for _ in range(2)]
    assert texts[0] == texts[1]
    proto = random_protocol(random.Random(7), "p", 3, 4)
    parse(proto.text())  # the package accepts what the generator writes
    assert tagged("knows A: X1, {X10, NX}sk(X2);", "p3x") == "knows A: Xp3x1, {Xp3x10, NXp3x}sk(Xp3x2);"
    renamed = parse(tagged(proto.text(), "p3x"))
    assert [len(s.ops) for s in map(extract, project(renamed).strands)] == [
        len(s.ops) for s in map(extract, project(parse(proto.text())).strands)
    ]


def test_tagged_chain_keeps_the_closed_form():
    for strand in project(parse(chain_text(5, 4, "p7x"))).strands:
        ops = Counter(op.classifier.value for op in extract(strand).ops)
        assert ops == expected_counts(5, 4)[strand.participant.label]


class _Flaky:
    """Every third request raises."""

    failures_expected = False

    def requests(self, number):
        return list(range(30))

    @staticmethod
    def call(fns, req):
        if req % 3 == 0:
            raise RecursionError("deep")
        return req

    @staticmethod
    def check(req, out):
        return (FAILED, "raised") if isinstance(out, BaseException) else (OK, "")


def test_failed_requests_stay_out_of_the_latencies():
    from run import MIN_SAMPLES, measure

    class NoSetup:
        def due(self, elapsed):
            pass

    run, _, _ = measure(_Flaky(), 0, None, NoSetup(), HostSpeed())
    # whole passes of 30 until MIN_SAMPLES requests have passed
    assert run.attempted == 30 * run.passes
    assert (run.outcomes[FAILED], len(run.latencies)) == (10 * run.passes, 20 * run.passes)
    assert len(run.latencies) - 20 < MIN_SAMPLES <= len(run.latencies)


def test_the_seed_fixes_what_a_run_sends():
    from run import planned_passes, measure

    class NoSetup:
        def due(self, elapsed):
            pass

    assert [planned_passes(w, 30, False) for w in ("chain", "cli_small", "compare_eval")] == [5, 2, 18]
    assert [planned_passes(w, 30, True) for w in ("chain", "cli_small", "compare_eval")] == [2, 1, 9]
    assert planned_passes("chain", 1, True) == 1
    runs = [measure(_Flaky(), 6, None, NoSetup(), HostSpeed())[0] for _ in range(2)]
    assert [(r.attempted, r.outcomes[FAILED]) for r in runs] == [(180, 60)] * 2


def _refused_protocol():
    rng = random.Random(0)
    while True:
        proto = random_protocol(rng, "p", 2, 4)
        if isinstance(proto.oracle["A"], str):
            return proto


def test_outcomes_are_classified():
    proto = _refused_protocol()
    cls = proto.oracle["A"]
    req = CliRequest(("cost", "p.spa", "--role", "A"), "cost", proto, extracts=("A",))
    assert check(req, (3, "", f"{cls} (A): held elsewhere\n"))[0] == OK
    assert check(req, (0, "f_ng(|n|) + L_P\n", ""))[0] == WRONG
    assert check(req, (1, "", "IOError: gone\n"))[0] == FAILED
    assert check(req, RecursionError("deep"))[0] == FAILED


def test_ambiguous_match_is_a_failure():
    rng = random.Random(0)
    proto = next(
        p for p in (random_protocol(rng, "p", 3, 4) for _ in range(100))
        if not isinstance(p.oracle["A"], str)
    )
    req = CliRequest(("model", "p.spa", "--role", "A", "--format", "dot"), "model_role_dot", proto, extracts=("A",))
    status, _ = check(req, (3, "", "AmbiguousMatch: payload n is awaited on 2 strands\n"))
    assert status == FAILED


def test_host_speed_scales_by_the_probes_around_a_sample():
    speed, scaled = HostSpeed(), []
    speed.update()
    speed.add(1000, scaled.append)
    speed.update()  # too soon to probe again
    assert (len(speed.probes), scaled) == (1, [])
    speed.update(force=True)
    assert scaled == [1000 * NOMINAL_NS / (sum(speed.probes) / 2)]
    assert 0 < probe()


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.request_span(lambda: [inner() for _ in range(3)])
    outer()
    busy, calls = tracer.self_times()
    (_, start, end, _, _), = [s for s in tracer.spans if s[0] == "request"]
    assert calls == {"request": 1, "inner": 3}
    assert busy["request"] + busy["inner"] == end - start
    assert all(span[4] == 1 for span in tracer.spans)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_metrics_the_runs_print():
    from run import END_TO_END, RUN_SECONDS, WORKLOADS
    from tracing import PER_LAYER

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
