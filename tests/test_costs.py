"""Cost algebra: construction, simplification, expansion, evaluation,
comparison."""

import copy
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import spa.costs
from spa import sizes
from spa.costs import (
    DEFAULT_ASSUMPTIONS,
    EXPANDABLE,
    Affine,
    App,
    AssumptionSet,
    CostExpr,
    CostFunc,
    CostModel,
    LambdaC,
    LambdaP,
    Overhead,
    Verdict,
    _expand,
    _saturating_match,
    _transitive_closure,
    cost_expr,
    expand_one,
    render_cost_term,
)
from spa.errors import ShapeViolation, Ungeneratable, Unrecoverable
from spa.sizes import ZERO, HashSize, SizeModel, Sum, TypeSize, render_size, ssum
from spa.strands import Classifier, KStrand, StrandSpace, TStrand
from spa.terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTerm,
    TEnc,
    TPair,
)

from .generators import (
    ASSUMPTION_SETS,
    chain_spec,
    decisive_pair,
    denormal_cost_expr,
    hashed_terms,
    random_cost_expr,
    random_eval_model,
    random_spec,
)
from .helpers import CORPUS, KEY_WRAP, ROOT, X509_ORIGINAL, expand_additivity, read
from .naive_compare import naive_compare
from .naive_sizes import naive_cost_of_space

SR, SN, SK_, SM = (TypeSize(tt) for tt in BasicTT)
PA = Atom(AtomKind.PARTICIPANT, "A")


def _sizes():
    return {BasicTT.R: 8, BasicTT.N: 16, BasicTT.K: 16, BasicTT.M: 100}


def app(func, *units):
    return App(func, (ssum(list(units)),))


def strand_of(path, label):
    spec = parse(read(path))
    for s in project(spec).strands:
        if s.participant.label == label:
            return s
    raise AssertionError(label)


def test_cost_expr_merges():
    e = cost_expr([LambdaC(), LambdaC(), (LambdaP(), 2)])
    assert e.terms == ((LambdaC(), 2), (LambdaP(), 2))


def test_cost_expr_validated():
    with pytest.raises(ValueError):
        CostExpr(((LambdaC(), 0),))
    with pytest.raises(ValueError):
        CostExpr(((LambdaC(), 1), (LambdaC(), 2)))
    with pytest.raises(ValueError):
        App(CostFunc.F_C, (SN,))  # wrong arity
    with pytest.raises(ValueError):
        App(CostFunc.F_H, (SN, SR))


def test_raw_cost_key_wrap():
    cost = cost_of_space(extract(strand_of(KEY_WRAP, "B")).space())
    assert render_cost(cost) == (
        "f_kg(|k|) + f_c(|n|, |k|) + f_c(|n| + |k|, |r|) + "
        "f_sk(|n| + |k| + |r|) + f_p(|k|) + f_p(|n| + |k|) + "
        "2*f_p(|n| + |k| + |r|)"
    )


def test_simplified_cost_key_wrap():
    cost = cost_of_space(extract(strand_of(KEY_WRAP, "B")).space())
    assert render_cost(simplify(cost)) == (
        "f_kg(|k|) + 2*L_C + f_sk(|n| + |k| + |r|) + 4*L_P"
    )


def test_simplified_cost_x509():
    cost = cost_of_space(extract(strand_of(X509_ORIGINAL, "A")).space())
    assert render_cost(simplify(cost)) == (
        "f_pk(|m|) + f_ng(|n|) + 4*L_C + f_h(2|n| + |r| + |m| + S_asym(|m|)) + "
        "f_pk(S_hash) + 8*L_P"
    )


def test_canonical_order_classes():
    scrambled = cost_expr([
        (Overhead(-1), 1),
        (LambdaP(), 2),
        app(CostFunc.F_H, HashSize(), SN),
        (LambdaC(), 1),
        app(CostFunc.F_SK, SN, SR),
        app(CostFunc.F_NG, SN),
        app(CostFunc.F_KG, SK_),
    ])
    got = render_cost(simplify(scrambled))
    assert got == (
        "f_kg(|k|) + f_ng(|n|) + L_C + f_sk(|n| + |r|) + "
        "f_h(S_hash + |n|) + 2*L_P - Ov_h"
    )


def test_pricing_matches_memo_free_reference():
    specs = [chain_spec(n, w) for w in (4, 8) for n in range(1, 25)]
    specs += [parse(read(path)) for path in CORPUS]
    rng = random.Random(0x5123)
    specs += [random_spec(rng) for _ in range(300)]
    priced = 0
    for spec in specs:
        for s in project(spec).strands:
            try:
                space = extract(s).space()
            except (Ungeneratable, Unrecoverable):
                continue
            # raw expressions: same terms, same order, same multiplicities
            assert cost_of_space(space) == naive_cost_of_space(space)
            priced += 1
    assert priced >= 400


def op(classifier, *events):
    return TStrand(classifier, PA, tuple(SignedTerm(sign, t) for sign, t in events))


def priced(*strands):
    space = StrandSpace(strands)
    cost = cost_of_space(space)
    assert cost == naive_cost_of_space(space)
    return render_cost(cost)


def test_groups_that_price_alike_merge_at_the_first():
    n = Basic(BasicTT.N)
    nn = TPair(n, n)
    left, right = TPair(nn, n), TPair(n, nn)  # ((n, n), n) and (n, (n, n))
    assert priced(
        op(Classifier.C_D, (-1, TEnc(nn, FuncName.SK)), (1, nn)),
        op(Classifier.C_PVK, (-1, n), (1, TEnc(n, FuncName.PVK))),
        op(Classifier.C_E, (-1, nn), (1, TEnc(nn, FuncName.SK))),
        op(Classifier.C_C, (-1, nn), (-1, n), (1, left)),
        op(Classifier.C_PK, (-1, n), (1, TEnc(n, FuncName.PK))),
        op(Classifier.C_C, (-1, n), (-1, nn), (1, right)),
        op(Classifier.C_D, (-1, TEnc(nn, FuncName.SK)), (1, nn)),
    ) == (
        # C_D and C_E share f_sk(2|n|), C_PVK and C_PK share f_pk(|n|);
        # (n, n) and {n, n}_sk are both processed as f_p(2|n|), and both
        # bracketings of three nonces as f_p(3|n|)
        "3*f_sk(2|n|) + 2*f_pk(|n|) + f_c(2|n|, |n|) + f_c(|n|, 2|n|) + "
        "3*f_p(2|n|) + 2*f_p(S_asym(|n|)) + 2*f_p(3|n|)"
    )


def test_equal_payloads_price_alike_whether_or_not_interned():
    def rn():
        return TPair(Basic(BasicTT.R), Basic(BasicTT.N))

    # every payload is a fresh object: equal, never identical
    strands = [op(Classifier.C_N, (1, Basic(BasicTT.N))) for _ in range(3)]
    strands += [op(Classifier.C_H, (-1, rn()), (1, TEnc(rn(), FuncName.H))) for _ in range(2)]
    assert priced(*strands) == (
        "3*f_ng(|n|) + 2*f_h(|r| + |n|) + 3*f_p(|n|) + 2*f_p(S_hash)"
    )


def test_malformed_strand_after_a_well_formed_twin_is_refused():
    n, k = Basic(BasicTT.N), Basic(BasicTT.K)
    good = op(Classifier.C_E, (-1, n), (1, TEnc(n, FuncName.SK)))
    # same classifier and input as `good`, but the output wraps another term
    bad = op(Classifier.C_E, (-1, n), (1, TEnc(k, FuncName.SK)))
    cost_of_space(StrandSpace((good, good)))
    with pytest.raises(ShapeViolation, match="C_E: position 2"):
        cost_of_space(StrandSpace((good, bad)))
    with pytest.raises(ShapeViolation, match="C_N: position 1"):
        cost_of_space(StrandSpace((
            op(Classifier.C_N, (1, n)), op(Classifier.C_N, (-1, n)),
        )))
    # a knowledge strand, or anything else that is not a typed strand
    kstrand = KStrand((PA,), PA, (SignedTerm(1, PA),))
    for space in (StrandSpace((good, kstrand)), StrandSpace((good, n))):
        with pytest.raises(TypeError, match="not a typed strand"):
            cost_of_space(space)
        with pytest.raises(TypeError, match="not a typed strand"):
            naive_cost_of_space(space)


def test_shared_sequence_is_validated_under_each_classifier():
    n = Basic(BasicTT.N)
    seq = (SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.SK)))
    wrap = TStrand(Classifier.C_E, PA, seq)
    cost_of_space(StrandSpace((wrap, wrap, TStrand(Classifier.C_E, PA, seq))))
    with pytest.raises(ShapeViolation, match="C_H: position 2"):
        cost_of_space(StrandSpace((wrap, TStrand(Classifier.C_H, PA, seq))))


def test_shared_and_unshared_sequences_price_strand_by_strand():
    n, k, m = (Basic(tt) for tt in (BasicTT.N, BasicTT.K, BasicTT.M))

    def seqs():
        # fresh sequence objects on every call: equal to the last call's, not identical
        nk = TPair(n, k)
        return [
            (Classifier.C_N, (SignedTerm(1, Basic(BasicTT.N)),)),
            (Classifier.C_E, (SignedTerm(-1, nk), SignedTerm(1, TEnc(nk, FuncName.SK)))),
            (Classifier.C_D, (SignedTerm(-1, TEnc(nk, FuncName.SK)), SignedTerm(1, nk))),
            (Classifier.C_C, (SignedTerm(-1, n), SignedTerm(-1, k), SignedTerm(1, nk))),
            (Classifier.C_I, (SignedTerm(-1, nk), SignedTerm(1, n), SignedTerm(1, k))),
            (Classifier.C_H, (SignedTerm(-1, m), SignedTerm(1, TEnc(m, FuncName.H)))),
        ]

    rng = random.Random(0x5AE)
    process = TStrand(Classifier.C_P, PA, (SignedTerm(1, n),))
    chain = [s for spec in (chain_spec(5, 2), chain_spec(8, 3)) for s in project(spec).strands]
    for _ in range(200):
        shared = seqs()
        strands = [process]
        for _ in range(rng.randrange(1, 30)):
            classifier, seq = rng.choice(shared if rng.random() < 0.7 else seqs())
            strands.append(TStrand(classifier, PA, seq))
        strands += extract(rng.choice(chain)).ops[: rng.randrange(40)]
        rng.shuffle(strands)
        space = StrandSpace(tuple(strands))
        # same terms, same order, same multiplicities
        assert cost_of_space(space) == naive_cost_of_space(space)


def test_each_shared_sequence_is_validated_once(monkeypatch):
    calls = 0
    validate = spa.costs.validate_op_strand

    def counted(s):
        nonlocal calls
        calls += 1
        return validate(s)

    monkeypatch.setattr(spa.costs, "validate_op_strand", counted)
    per_role = set()
    for n in (4, 12, 24):
        for s in project(chain_spec(n, 4)).strands:
            ops = extract(s).ops
            calls = 0
            cost_of_space(StrandSpace(ops))
            assert calls == len({id(op) for op in ops})
            per_role.add((s.participant.label, calls))
    # one call per distinct shape, however long the chain
    assert per_role == {("A", 23), ("B", 18)}


def typed_subterms(t, into: set) -> set:
    if t not in into:
        into.add(t)
        for child in (getattr(t, name, None) for name in ("left", "right", "body")):
            if child is not None:
                typed_subterms(child, into)
    return into


def test_pricing_is_linear_in_distinct_subterms(monkeypatch):
    # A sends a 256-component list: its 255 concatenations take nested
    # inputs, so memo-free sizing sums about k^2 times
    nonces = ", ".join(f"N{i}" for i in range(256))
    spec = parse(
        f"protocol wide {{ roles A, B; nonce {nonces}; knows A: B, {nonces}; "
        f"knows B: A; A -> B: {nonces}; }}"
    )
    space = extract(project(spec).strands[0]).space()
    distinct: set = set()
    for s in space.strands:
        for ev in s.seq:
            typed_subterms(ev.payload, distinct)
    calls = 0
    real_ssum = sizes.ssum

    def counting_ssum(parts):
        nonlocal calls
        calls += 1
        return real_ssum(parts)

    monkeypatch.setattr(sizes, "ssum", counting_ssum)
    cost_of_space(space)
    assert 0 < calls <= 2 * len(distinct), (calls, len(distinct))


def test_simplify_folds_constants():
    e = cost_expr([
        App(CostFunc.F_C, (SN, SR)),
        App(CostFunc.F_P, (SN,)),
        App(CostFunc.F_P, (SR,)),
    ])
    assert render_cost(simplify(e)) == "L_C + 2*L_P"


def test_equal_arguments_are_one_application():
    # a lone unit has one form, so two applications of a function to it are
    # one term before any simplification; the sum form of it is refused
    with pytest.raises(ValueError, match="not a normal sum"):
        Sum(((1, SN),))
    a = App(CostFunc.F_H, (SN,))
    b = App(CostFunc.F_H, (ssum([SN]),))
    assert a is b
    assert render_cost(simplify(cost_expr([a, b]))) == "2*f_h(|n|)"


def test_non_normal_sum_is_refused_before_compare():
    # f_sk(3|n| - |r|) against 0 used to raise "multiplicities must be
    # positive" from inside compare; the argument cannot be built now
    with pytest.raises(ValueError, match="not a normal sum"):
        cost_expr([App(CostFunc.F_SK, (Sum(((3, SN), (-1, SR))),))])


def test_equal_coefficient_units_keep_occurrence_order():
    # |n| + |r| and |r| + |n| are distinct normal forms by design: unit
    # order inside a sum records how the term was built
    assert render_size(ssum([SN, SR])) == "|n| + |r|"
    assert render_size(ssum([SR, SN])) == "|r| + |n|"


def test_expand_one():
    term = app(CostFunc.F_H, SN, SN, SR)
    parts = expand_one(term)
    assert (App(CostFunc.F_H, (SN,)), 2) in parts
    assert (App(CostFunc.F_H, (SR,)), 1) in parts
    assert (Overhead(-1), 2) in parts
    assert expand_one(app(CostFunc.F_H, SN)) is None  # single unit
    assert expand_one(App(CostFunc.F_C, (SN, SR))) is None  # not expandable


def test_expand_additivity_golden():
    e = cost_expr([(app(CostFunc.F_H, SN, SN, SR), 2), LambdaC()])
    got = render_cost(expand_additivity(e))
    assert got == "4*f_h(|n|) + 2*f_h(|r|) + L_C - 4*Ov_h"


def test_render_cost_zero_and_signs():
    assert render_cost(CostExpr(())) == "0"
    e = cost_expr([(Overhead(-1), 2)])
    assert render_cost(e) == "-2*Ov_h"
    e = cost_expr([LambdaC(), Overhead(1)])
    assert render_cost(e) == "L_C + Ov_h"


def model(ov=0.25, **overrides):
    funcs = {f: Affine(1.0, 0.1) for f in EXPANDABLE}
    funcs.update(overrides)
    return CostModel(
        funcs=funcs,
        lambda_c=0.1,
        lambda_p=0.05,
        ov_h=ov,
        size_model=SizeModel(
            sizes=_sizes(), s_hash=20, blk_in=117, blk_out=128, pad=11,
        ),
    )


def test_eval_single_hash():
    # alpha 1, beta 0.1 over a 16-byte nonce
    m = model()
    assert math.isclose(eval_cost(cost_expr([app(CostFunc.F_H, SN)]), m), 2.6)


def test_eval_constants_and_overhead():
    m = model()
    e = cost_expr([LambdaC(), (LambdaP(), 2), (Overhead(-1), 3)])
    assert math.isclose(eval_cost(e, m), 0.1 + 0.1 - 0.75)
    # unfolded concatenation and processing cost the constants too
    e = cost_expr([App(CostFunc.F_C, (SN, SR)), App(CostFunc.F_P, (SN,))])
    assert math.isclose(eval_cost(e, m), 0.15)


def test_affine_and_model_validation():
    with pytest.raises(ValueError):
        Affine(-1, 0)
    with pytest.raises(ValueError):
        CostModel(funcs={CostFunc.F_H: Affine(1, 1)}, lambda_c=0, lambda_p=0,
                  ov_h=0, size_model=model().size_model)
    with pytest.raises(ValueError):
        model(ov=-1)


def test_assumption_set_rejects_cycles():
    with pytest.raises(ValueError):
        AssumptionSet(dominance=((CostFunc.F_PK, CostFunc.F_H),
                                 (CostFunc.F_H, CostFunc.F_PK)))
    with pytest.raises(ValueError):
        AssumptionSet(dominance=((CostFunc.F_PK, CostFunc.F_PK),))


def test_closure_is_transitive():
    a = AssumptionSet(dominance=((CostFunc.F_PK, CostFunc.F_H),
                                 (CostFunc.F_H, CostFunc.F_S)))
    assert (CostFunc.F_PK, CostFunc.F_S) in a.closure()


def _hall(small: dict, big: dict, pairs) -> bool:
    # every set of small terms has at least as many big copies among its
    # partners in `pairs` as it has copies itself
    groups = (g for r in range(1, len(small) + 1) for g in itertools.combinations(small, r))
    return all(
        sum(small[s] for s in group) <= sum(big[b] for b in {b for s, b in pairs if s in group})
        for group in groups
    )


def test_saturating_match_exactly_when_hall_holds():
    rng = random.Random(0x4A11)
    matched = 0
    for _ in range(2000):
        small = {("s", i): rng.randint(1, 3) for i in range(rng.randint(1, 4))}
        big = {("b", j): rng.randint(1, 3) for j in range(rng.randint(1, 4))}
        p = rng.random()
        edges = {(s, b) for s in small for b in big if rng.random() < p}
        match = _saturating_match(small, big, lambda b, s: (s, b) in edges)
        assert (match is not None) == _hall(small, big, edges)
        if match is None:
            continue
        matched += 1
        assert set(match) <= edges
        assert {s for s, _ in match} == set(small)
        assert _hall(small, big, match)
        for b, copies in big.items():
            assert sum(1 for _, b2 in match if b2 == b) <= copies
    assert 400 < matched < 1600


def test_closure_is_reachability_and_only_cycles_are_refused():
    rng = random.Random(0xC105)
    refused = 0
    for _ in range(2000):
        nodes = rng.sample(list(CostFunc), rng.randint(2, 5))
        pairs = tuple(dict.fromkeys(
            (rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 6))
        ))
        reach = set()
        for a in nodes:
            stack = [d for c, d in pairs if c is a]
            while stack:
                b = stack.pop()
                if (a, b) not in reach:
                    reach.add((a, b))
                    stack.extend(d for c, d in pairs if c is b)
        assert _transitive_closure(pairs) == reach
        # acyclic exactly when nodes without a greater one can be peeled off
        # until none is left
        left = set(nodes)
        while peel := {b for b in left if not any(c in left and d is b for c, d in pairs)}:
            left -= peel
        try:
            AssumptionSet(dominance=pairs)
        except ValueError:
            refused += 1
            assert left
        else:
            assert not left
    assert 400 < refused < 1600


def test_compare_equal_modulo_order():
    a = cost_expr([app(CostFunc.F_H, SN), LambdaC()])
    b = cost_expr([LambdaC(), app(CostFunc.F_H, SN)])
    res = compare(a, b)
    assert res.verdict is Verdict.EQUAL
    assert res.left_residual == CostExpr(()) and res.right_residual == CostExpr(())


def test_compare_subset_is_less():
    a = cost_expr([app(CostFunc.F_H, SN)])
    b = cost_expr([app(CostFunc.F_H, SN), LambdaC()])
    assert compare(a, b).verdict is Verdict.LESS
    assert compare(b, a).verdict is Verdict.GREATER


def test_compare_dominance():
    a = cost_expr([app(CostFunc.F_H, SN)])
    b = cost_expr([app(CostFunc.F_PK, SN)])
    res = compare(a, b)
    assert res.verdict is Verdict.LESS
    assert res.residual_line() == "f_h(|n|) < f_pk(|n|)"
    assert compare(b, a).verdict is Verdict.GREATER


def test_compare_no_rule_is_indeterminate():
    a = cost_expr([app(CostFunc.F_SK, SN)])
    b = cost_expr([app(CostFunc.F_H, SN)])
    res = compare(a, b)
    assert res.verdict is Verdict.INDETERMINATE
    assert res.residual_line() == "f_sk(|n|) ? f_h(|n|)"


def test_compare_additivity_makes_equal():
    a = cost_expr([app(CostFunc.F_H, SN, SN)])
    b = cost_expr([(app(CostFunc.F_H, SN), 2)])
    assert compare(a, b).verdict is Verdict.EQUAL


def test_overhead_residue_blocks_verdict():
    keep = AssumptionSet(ignore_overhead=False)
    a = cost_expr([app(CostFunc.F_H, SN, SN)])
    b = cost_expr([(app(CostFunc.F_H, SN), 2)])
    res = compare(a, b, keep)
    assert res.verdict is Verdict.INDETERMINATE
    assert any("overhead" in step for step in res.trace)


def test_trace_ends_with_verdict():
    res = compare(cost_expr([LambdaC()]), cost_expr([LambdaC()]))
    assert res.trace[-1] == "verdict: Equal"
    assert any(step.startswith("cancel") for step in res.trace)


def test_compare_simplifies_inputs():
    raw = cost_expr([App(CostFunc.F_C, (SN, SR))])
    folded = cost_expr([LambdaC()])
    assert compare(raw, folded).verdict is Verdict.EQUAL


def _role_costs() -> list:
    """Raw cost of every role of every bundled protocol that extracts."""
    out = []
    for path in CORPUS:
        for strand in project(parse(read(path))).strands:
            try:
                out.append(cost_of_space(extract(strand).space()))
            except (Ungeneratable, Unrecoverable):
                pass
    return out


def _compare_cases():
    rng = random.Random(0xC0A2)
    for assume in ASSUMPTION_SETS:
        for _ in range(60):
            a, b = random_cost_expr(rng), random_cost_expr(rng)
            shared = list(random_cost_expr(rng).terms)
            yield a, b, assume
            yield cost_expr(list(a.terms) + shared), cost_expr(shared + list(b.terms)), assume
            yield denormal_cost_expr(rng, a), denormal_cost_expr(rng, a), assume
            x, y, _ = decisive_pair(rng, assume)
            yield x, y, assume
            yield y, x, assume
    roles = _role_costs()
    for assume in ASSUMPTION_SETS:
        for a in roles:
            for b in roles:
                yield a, b, assume
                yield simplify(a), simplify(b), assume


def test_compare_matches_eager_reference():
    # every kind of step shows up in some trace
    kinds = {"cancel", "expand", "drop overhead", "overhead residue", "left residual",
             "right residual", "dominance", "verdict"}
    seen = set()
    cases = 0
    for a, b, assume in _compare_cases():
        res = compare(a, b, assume)
        verdict, left, right, trace = naive_compare(a, b, assume)
        assert res.verdict is verdict
        assert res.left_residual.terms == left.terms
        assert res.right_residual.terms == right.terms
        assert res.trace == trace
        assert isinstance(res.trace, tuple)
        seen.update(k for k in kinds for line in trace if line.startswith(k))
        cases += 1
    assert seen == kinds and cases > 2000


def test_compare_builds_only_its_residuals(monkeypatch):
    # each side is canonicalized once into compare's working dicts, and no
    # application is rebuilt: every argument is normal already
    made = {CostExpr: [], App: []}
    for cls, out in made.items():
        def counted(cls, *args, _new=cls.__new__, _out=out, **kwargs):
            value = _new(cls, *args, **kwargs)
            _out.append(value)
            return value

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    exprs, apps = made[CostExpr], made[App]
    cases = list(_compare_cases())
    for a, b, assume in cases:
        before = len(exprs)
        res = compare(a, b, assume)
        assert exprs[before:] == [res.left_residual, res.right_residual]
    for a, _, _ in cases:
        e = simplify(a)
        before = len(apps)
        assert simplify(e) is e
        assert len(apps) == before
    f_h_n = App(CostFunc.F_H, (SN,))
    e = cost_expr([f_h_n, App(CostFunc.F_C, (SN, SR)), (f_h_n, 2)])
    before = len(apps)
    assert simplify(e).terms == ((f_h_n, 3), (LambdaC(), 1))
    assert apps[before:] == []


def test_dominance_lines_read_as_the_verdict():
    # the dominating term comes first under Greater, as in the residual line
    seen = set()
    for a, b, assume in _compare_cases():
        res = compare(a, b, assume)
        left = {render_cost_term(t) for t, _ in res.left_residual.terms}
        right = {render_cost_term(t) for t, _ in res.right_residual.terms}
        for line in res.trace:
            if line.startswith("dominance: "):
                op = "<" if res.verdict is Verdict.LESS else ">"
                first, second = line[len("dominance: "):].split(f" {op} ")
                assert first in left and second in right, (line, res.residual_line())
                seen.add(res.verdict)
    assert seen == {Verdict.LESS, Verdict.GREATER}
    res = compare(cost_expr([app(CostFunc.F_PK, SN)]), cost_expr([app(CostFunc.F_H, SN)]))
    assert res.residual_line() == "f_pk(|n|) > f_h(|n|)"
    assert res.trace == ("dominance: f_pk(|n|) > f_h(|n|)", "verdict: Greater")


def test_trace_rendered_only_when_read(monkeypatch):
    rendered = []
    render = spa.costs.render_cost_term

    def counted(*args):
        rendered.append(args)
        return render(*args)

    monkeypatch.setattr(spa.costs, "render_cost_term", counted)
    shared = app(CostFunc.F_H, SN)
    a = cost_expr([shared, app(CostFunc.F_SK, SN, SR), app(CostFunc.F_H, SR)])
    b = cost_expr([shared, app(CostFunc.F_SK, SN), app(CostFunc.F_SK, SR),
                   app(CostFunc.F_PK, SR)])
    res = compare(a, b, AssumptionSet())
    assert rendered == []
    assert res.verdict is Verdict.LESS
    trace = res.trace
    assert rendered and trace == naive_compare(a, b, AssumptionSet())[3]
    assert any(line.startswith("expand") for line in trace)
    assert any(line.startswith("dominance") for line in trace)


def test_simplify_keeps_simplified_terms():
    rng = random.Random(0x51A)
    for _ in range(300):
        once = simplify(denormal_cost_expr(rng, random_cost_expr(rng)))
        twice = simplify(once)
        assert twice == once
        assert all(t is u for (t, _), (u, _) in zip(once.terms, twice.terms))


_PICKLE_HASHED = (
    "import pickle, sys; from tests.generators import hashed_terms; "
    "sys.stdout.buffer.write(pickle.dumps(hashed_terms()))"
)


def _pickled_elsewhere(source: str = _PICKLE_HASHED) -> list:
    # another interpreter gives its objects other identity hashes, so a hash
    # carried over in the pickle would not match this process's
    src = str(Path(spa.costs.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", source], check=True, capture_output=True,
        cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return pickle.loads(out)


@pytest.mark.parametrize("how", ["built", "copy", "deepcopy", "pickle", "subprocess"])
def test_cached_hashes_are_rebuilt_not_carried(how):
    # cost terms are hash-consed and hash by identity: however a term is
    # made again, it is the canonical object, so it finds its dict entry
    fresh = hashed_terms()
    made = {
        "built": hashed_terms,
        "copy": lambda: [copy.copy(t) for t in hashed_terms()],
        "deepcopy": lambda: copy.deepcopy(hashed_terms()),
        "pickle": lambda: pickle.loads(pickle.dumps(hashed_terms())),
        "subprocess": _pickled_elsewhere,
    }[how]()
    table = {t: i for i, t in enumerate(fresh)}
    for i, (t, twin) in enumerate(zip(made, fresh)):
        assert t == twin and hash(t) == hash(twin)
        assert t is twin
        assert table[t] == i and {t: i}[twin] == i


def _order_from_scratch(term) -> tuple:
    """A cost term's canonical-order key, worked out from the class order
    the `costs` docstring states: (class, function position)."""
    if isinstance(term, App):
        if term.func in (CostFunc.F_C, CostFunc.F_P):  # as the constant it folds into
            return _order_from_scratch(LambdaC() if term.func is CostFunc.F_C else LambdaP())
        arg = term.args[0]
        if isinstance(arg, TypeSize):
            group = 0
        else:
            group = 3 if "S_hash" in render_size(arg) else 2
        return (group, list(CostFunc).index(term.func))
    if isinstance(term, LambdaC):
        return (1, -1)
    if isinstance(term, LambdaP):
        return (4, -1)
    assert isinstance(term, Overhead)
    return (5, -term.sign)


def _cost_terms(values) -> list:
    out = []
    for value in values:
        if isinstance(value, CostExpr):
            out.extend(term for term, _ in value.terms)
        elif isinstance(value, spa.costs.CostTerm):
            out.append(value)
    return out


def test_order_key_is_stored_at_construction():
    rng = random.Random(0x0DE)
    exprs = _role_costs() + [random_cost_expr(rng) for _ in range(500)]
    exprs += [simplify(e) for e in exprs]
    terms = _cost_terms(exprs)
    terms += [t for e in exprs for t in _expand(e.terms, [], "")]
    groups = set()
    for term in terms:
        assert term._order == _order_from_scratch(term), render_cost_term(term)
        groups.add(term._order[0])
    assert groups == {0, 1, 2, 3, 4, 5}


_PICKLE_COSTS = (
    "import pickle, random, sys; "
    "from tests.generators import hashed_terms, random_cost_expr; "
    "values = hashed_terms() + [random_cost_expr(random.Random(i)) for i in range(100)]; "
    "sys.stdout.buffer.write(pickle.dumps(values))"
)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "subprocess"])
def test_order_key_survives_round_trips(how):
    # the key is not a field and never pickles: a term built again from its
    # fields, here or in another interpreter, works it out again
    def made():
        return hashed_terms() + [random_cost_expr(random.Random(i)) for i in range(100)]

    values = {
        "copy": lambda: [copy.copy(v) for v in made()],
        "deepcopy": lambda: copy.deepcopy(made()),
        "pickle": lambda: pickle.loads(pickle.dumps(made())),
        "subprocess": lambda: _pickled_elsewhere(_PICKLE_COSTS),
    }[how]()
    terms = _cost_terms(values)
    assert len(terms) > 200
    for term in terms:
        assert term._order == _order_from_scratch(term), render_cost_term(term)


def test_assumption_closure_is_kept_but_not_compared():
    dominance = ((CostFunc.F_PK, CostFunc.F_H), (CostFunc.F_H, CostFunc.F_S))
    a = AssumptionSet(dominance=dominance, max_bytes=512.0)
    assert a.closure() is a.closure()
    assert a.closure() == frozenset(dominance + ((CostFunc.F_PK, CostFunc.F_S),))
    assert a == AssumptionSet(dominance=dominance, max_bytes=512.0)
    assert hash(a) == hash(AssumptionSet(dominance=dominance, max_bytes=512.0))
    assert "closure" not in repr(a)
    for back in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert back == a and hash(back) == hash(a)
        assert back.closure() == a.closure()


def test_dominance_covers_lambda_constants():
    a = AssumptionSet(dominance=((CostFunc.F_C, CostFunc.F_P),))
    res = compare(cost_expr([LambdaP()]), cost_expr([LambdaC()]), a)
    assert res.verdict is Verdict.LESS


def _verdict(g, f, assume=DEFAULT_ASSUMPTIONS) -> Verdict:
    return compare(cost_expr([g]), cost_expr([f]), assume).verdict


def test_dominance_is_by_function():
    fh_n, fh_r = app(CostFunc.F_H, SN), app(CostFunc.F_H, SR)
    fpk_n, fpk_r = app(CostFunc.F_PK, SN), app(CostFunc.F_PK, SR)
    assert _verdict(fpk_n, fh_n) is Verdict.GREATER
    assert _verdict(fpk_r, fh_n) is Verdict.GREATER  # any sizes
    assert _verdict(fh_n, fpk_r) is Verdict.LESS
    # one function on two units, or no declared pair: nothing orders them
    assert _verdict(fh_r, fh_n) is Verdict.INDETERMINATE
    assert _verdict(fpk_n, fh_n, AssumptionSet(dominance=())) is Verdict.INDETERMINATE


def test_wider_argument_is_greater_by_expansion():
    wide, narrow = app(CostFunc.F_H, SN, SR), app(CostFunc.F_H, SN)
    res = compare(cost_expr([wide]), cost_expr([narrow]))
    assert res.verdict is Verdict.GREATER
    assert res.residual_line() == "f_h(|r|) > 0"
    # kept, the overhead the expansion leaves cannot be discharged
    res = compare(cost_expr([wide]), cost_expr([narrow]), AssumptionSet(ignore_overhead=False))
    assert res.verdict is Verdict.INDETERMINATE
    assert res.residual_line() == "f_h(|r|) - Ov_h ? 0"


def test_application_to_zero_is_not_dominated():
    # f_h(|n|) exceeds f_h(0) only when beta_h > 0, which a config may deny
    res = compare(cost_expr([app(CostFunc.F_H, SN)]), cost_expr([app(CostFunc.F_H)]))
    assert res.verdict is Verdict.INDETERMINATE
    assert res.residual_line() == "f_h(|n|) ? f_h(0)"


def test_expanded_arguments_are_single_units():
    # dominance by function alone rests on this: what `compare` matches
    # applies each function to one unit that is not a sum, or to zero
    rng = random.Random(0xA1)
    apps = 0
    for e in _role_costs() + [random_cost_expr(rng) for _ in range(500)]:
        for term in _expand(simplify(e).terms, [], ""):
            if isinstance(term, App):
                (arg,) = term.args
                assert arg is ZERO or not isinstance(arg, Sum), render_cost_term(term)
                apps += 1
    assert apps > 1000


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_compare_reflexive_equal(seed):
    rng = random.Random(seed)
    e = random_cost_expr(rng)
    res = compare(e, e)
    assert res.verdict is Verdict.EQUAL
    assert res.left_residual == CostExpr(())


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_cancellation_neutrality(seed):
    # adding the same term to both sides never changes the verdict
    rng = random.Random(seed)
    a, b = random_cost_expr(rng), random_cost_expr(rng)
    extra = (random_cost_expr(rng).terms or ((LambdaC(), 1),))[0]
    before = compare(a, b).verdict
    after = compare(
        cost_expr(list(a.terms) + [extra]),
        cost_expr(list(b.terms) + [extra]),
    ).verdict
    assert before is after


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_eval_preserved_by_rewrites(seed):
    rng = random.Random(seed)
    e = random_cost_expr(rng)
    m = random_eval_model(rng)
    base = eval_cost(e, m)
    for rewritten in (simplify(e), expand_additivity(simplify(e))):
        assert math.isclose(eval_cost(rewritten, m), base, rel_tol=1e-9, abs_tol=1e-9)
