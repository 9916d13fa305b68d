"""Acceptance gate: one timed pass/fail line per criterion.

Run with `pytest -q -s tests/test_acceptance.py` to see the lines.
"""

import math
import random
import time
from collections import Counter

from spa import (
    compare,
    cost_of_space,
    eval_cost,
    extract,
    parse,
    project,
    render_cost,
    simplify,
)
from spa.costs import Verdict
from spa.errors import Ungeneratable, Unrecoverable
from spa.oracle import op_count_oracle
from spa.sizes import HashSize, delta, normalize, ssum
from spa.strands import Classifier, render_kstrand
from spa.terms import FuncName, TEnc, TPair, render_tterm

from .generators import (
    ASSUMPTION_SETS,
    decisive_pair,
    random_cost_expr,
    random_eval_model,
    random_spec,
    random_tterm,
    sound_model,
)
from .helpers import (
    ANDREW,
    CORPUS,
    KEY_WRAP,
    X509_MODIFIED,
    X509_ORIGINAL,
    expand_additivity,
    read,
    run_cli,
)


def _report(num: int, desc: str, budget: float, fn) -> None:
    start = time.perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < budget else "FAIL"
        print(f"criterion {num} ({desc}): {status} [{elapsed:.2f}s]")
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


def _strands(path):
    spec = parse(read(path))
    return {s.participant.label: s for s in project(spec).strands}


def test_criterion_1_golden_cost_original():
    def check():
        code, out, _ = run_cli("cost", X509_ORIGINAL, "--role", "A", "--simplified")
        assert code == 0
        assert out == (
            "f_pk(|m|) + f_ng(|n|) + 4*L_C + "
            "f_h(2|n| + |r| + |m| + S_asym(|m|)) + f_pk(S_hash) + 8*L_P\n"
        )

    _report(1, "golden simplified cost, original", 1.0, check)


def test_criterion_2_golden_cost_modified():
    def check():
        code, out, _ = run_cli("cost", X509_MODIFIED, "--role", "A", "--simplified")
        assert code == 0
        assert out == (
            "f_pk(|m|) + f_ng(|n|) + 4*L_C + "
            "f_h(|n| + |r| + |m| + S_asym(|m|)) + f_pk(|n| + S_hash) + 8*L_P\n"
        )

    _report(2, "golden simplified cost, modified", 1.0, check)


def test_criterion_3_comparison_verdict():
    def check():
        code, out, _ = run_cli("compare", X509_ORIGINAL, X509_MODIFIED,
                               "--role", "A")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "verdict: Less"
        assert lines[1] == "residual: f_h(|n|) < f_pk(|n|)"

    _report(3, "comparison verdict and residual", 1.0, check)


def test_criterion_4_golden_strand_models():
    def check():
        strands = _strands(ANDREW)
        assert render_kstrand(strands["A"]) == (
            "⟨{A, B, N_a, K_AB}, A, ⟨+(A, N_a), -{N_a, K, B}_sk(K_AB), "
            "+{N_a}_sk(K), -N_b⟩⟩"
        )
        assert render_kstrand(strands["B"]) == (
            "⟨{B, A, N_b, K_AB, K}, B, ⟨-(A, N_a), +{N_a, K, B}_sk(K_AB), "
            "-{N_a}_sk(K), +N_b⟩⟩"
        )
        erased = [
            render_tterm(ev.payload)
            for ev in extract(strands["A"]).process.seq
        ]
        assert erased == ["(r, n)", "{n, k, r}_sk", "{n}_sk", "n"]

    _report(4, "golden strand models and erasure", 1.0, check)


def test_criterion_5_operation_reconstruction():
    def check():
        ext = extract(_strands(KEY_WRAP)["B"])
        assert ext.op_counts() == Counter(
            {Classifier.C_K: 1, Classifier.C_C: 2, Classifier.C_E: 1}
        )
        cost = simplify(cost_of_space(ext.space()))
        assert render_cost(cost) == (
            "f_kg(|k|) + 2*L_C + f_sk(|n| + |k| + |r|) + 4*L_P"
        )

    _report(5, "operation multiset and cost", 1.0, check)


def _outcome(fn, strand):
    try:
        return dict(fn(strand))
    except (Ungeneratable, Unrecoverable) as exc:
        return type(exc).__name__


def test_criterion_6_oracle_equivalence():
    def check():
        for path in CORPUS:
            for strand in _strands(path).values():
                assert dict(extract(strand).op_counts()) == dict(
                    op_count_oracle(strand)
                )
        rng = random.Random(0x5EED6)
        for _ in range(500):
            spec = random_spec(rng, max_atoms=4, depth=3)
            for strand in project(spec).strands:
                lhs = _outcome(lambda s: extract(s).op_counts(), strand)
                rhs = _outcome(op_count_oracle, strand)
                assert lhs == rhs, render_kstrand(strand)

    _report(6, "oracle equivalence, corpus + 500 random", 30.0, check)


def test_criterion_7_evaluation_preservation():
    def check():
        rng = random.Random(0x5EED7)
        for _ in range(1000):
            e = random_cost_expr(rng)
            m = random_eval_model(rng)
            base = eval_cost(e, m)
            for rewritten in (simplify(e), expand_additivity(simplify(e))):
                value = eval_cost(rewritten, m)
                assert math.isclose(value, base, rel_tol=1e-9, abs_tol=1e-9)

    _report(7, "evaluation preserved by rewrites, 1000 pairs", 10.0, check)


def test_criterion_8_comparator_soundness():
    def check():
        rng = random.Random(0x5EED8)
        for assume in ASSUMPTION_SETS:
            models = [sound_model(rng, assume) for _ in range(100)]
            for _ in range(200):
                a, b, side = decisive_pair(rng, assume)
                if side == "less" and rng.random() < 0.5:
                    a, b, side = b, a, "greater"
                res = compare(a, b, assume)
                expected = {
                    "equal": Verdict.EQUAL,
                    "less": Verdict.LESS,
                    "greater": Verdict.GREATER,
                }[side]
                assert res.verdict is expected, (side, res.trace)
                for m in models:
                    va, vb = eval_cost(a, m), eval_cost(b, m)
                    if res.verdict is Verdict.EQUAL:
                        assert math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9)
                    elif res.verdict is Verdict.LESS:
                        assert va < vb
                    else:
                        assert va > vb

    _report(8, "comparator soundness, 1000 pairs x 100 models", 60.0, check)


def test_criterion_9_size_algebra_laws():
    def check():
        rng = random.Random(0x5EED9)
        for _ in range(1000):
            a = random_tterm(rng)
            b = random_tterm(rng)
            assert normalize(delta(TPair(a, b))) == ssum([delta(a), delta(b)])
            assert delta(TEnc(a, FuncName.H)) == HashSize()
            assert delta(TEnc(a, FuncName.SK)) == delta(a)
            e = delta(a)
            assert normalize(e) == normalize(normalize(e))

    _report(9, "size-algebra laws, 1000 terms", 5.0, check)
