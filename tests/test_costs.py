"""Cost algebra: construction, simplification, expansion, evaluation,
comparison."""

import copy
import gc
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
import weakref
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
    _render_step,
    _saturating_match,
    _transitive_closure,
    cost_expr,
    render_cost_term,
)
from spa.config import parse_config
from spa.errors import ShapeViolation, Ungeneratable, Unrecoverable
from spa.sizes import AsymSize, HashSize, SizeModel, Sum, TypeSize, render_size, ssum
from spa.strands import Classifier, KStrand, StrandSpace, TStrand
from spa.terms import (
    _TABLES,
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
from .helpers import (
    CORPUS,
    DEFAULT_CONFIG,
    KEY_WRAP,
    ROOT,
    X509_ORIGINAL,
    expand_additivity,
    read,
    role_costs,
    stack_depth,
)
from .naive_compare import naive_compare
from .naive_eval import naive_eval_cost, naive_eval_terms
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


def test_only_overhead_takes_a_negative_multiplicity():
    # dominance reads multiplicities as counts: were negative applications
    # accepted, compare of -f_pk(|n|) against -f_h(|n|) would answer
    # Greater, though every model that prices f_pk above f_h orders them Less
    for term in (app(CostFunc.F_H, SN), LambdaC(), LambdaP()):
        with pytest.raises(ValueError, match="^multiplicities must be nonzero, and negative "
                                             "only on Ov_h$"):
            CostExpr(((term, -1),))
        with pytest.raises(ValueError, match="negative only on Ov_h"):
            cost_expr([(term, -2)])
        with pytest.raises(ValueError, match="negative only on Ov_h"):
            cost_expr([(term, 1), (term, -2)])
    for term in (app(CostFunc.F_H, SN), LambdaC(), LambdaP(), Overhead()):
        with pytest.raises(ValueError, match="^multiplicities must be nonzero"):
            CostExpr(((term, 0),))
    assert render_cost(CostExpr(((LambdaC(), 1), (Overhead(), -2)))) == "L_C - 2*Ov_h"


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
        (Overhead(), -1),
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
    cost_of_space(StrandSpace((good, good)))
    # same classifier and input as `good`, but the output wraps another
    # term: a strand's shape is checked when it is built, twin or not
    with pytest.raises(ShapeViolation, match="C_E: position 2"):
        op(Classifier.C_E, (-1, n), (1, TEnc(k, FuncName.SK)))
    op(Classifier.C_N, (1, n))
    with pytest.raises(ShapeViolation, match="C_N: position 1"):
        op(Classifier.C_N, (-1, n))
    # a knowledge strand is a strand, but has no price; anything else is
    # not a strand, and no strand space holds it
    kstrand = KStrand((PA,), PA, (SignedTerm(1, PA),))
    space = StrandSpace((good, kstrand))
    with pytest.raises(TypeError, match="not a typed strand"):
        cost_of_space(space)
    with pytest.raises(TypeError, match="not a typed strand"):
        naive_cost_of_space(space)
    with pytest.raises(TypeError, match=r"^StrandSpace\.strands must be tuple\[KStrand \| TStrand, "
                                        r"\.\.\.\], not Basic in tuple$"):
        StrandSpace((good, n))


def test_shared_sequence_is_validated_under_each_classifier():
    n = Basic(BasicTT.N)
    seq = (SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.SK)))
    wrap = TStrand(Classifier.C_E, PA, seq)
    cost_of_space(StrandSpace((wrap, wrap, TStrand(Classifier.C_E, PA, seq))))
    with pytest.raises(ShapeViolation, match="C_H: position 2"):
        TStrand(Classifier.C_H, PA, seq)


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
    # an operation strand's shape is checked when `extract` builds it, once
    # per strand object; pricing checks nothing again
    calls = 0

    class Counted(dict):
        # in `spa.strands`, only `TStrand._check` reads the table, once per
        # operation strand it checks
        def __getitem__(self, classifier):
            nonlocal calls
            calls += 1
            return super().__getitem__(classifier)

    monkeypatch.setattr(spa.strands, "OPS", Counted(spa.strands.OPS))
    per_role = set()
    for n in (4, 12, 24):
        for s in project(chain_spec(n, 4)).strands:
            ops = None  # no strand of the last extraction stays alive
            live = {key for key, ref in _TABLES[TStrand].items() if ref() is not None}
            calls = 0
            ops = extract(s).ops
            shapes = set(ops)
            built = [op for op in shapes if (op.classifier, op.participant, op.seq) not in live]
            assert calls == len(built)
            per_role.add((s.participant.label, len(shapes)))
            cost_of_space(StrandSpace(ops))
            assert calls == len(built)
    # one strand per distinct shape, however long the chain
    assert per_role == {("A", 23), ("B", 18)}


def typed_subterms(t, into: set) -> set:
    if t not in into:
        into.add(t)
        for child in (getattr(t, name, None) for name in ("left", "right", "body")):
            if child is not None:
                typed_subterms(child, into)
    return into


def counting_ssum(monkeypatch) -> list:
    """Count `sizes.ssum` calls from here on: the list's one item."""
    calls = [0]
    real_ssum = sizes.ssum

    def counted(parts):
        calls[0] += 1
        return real_ssum(parts)

    monkeypatch.setattr(sizes, "ssum", counted)
    return calls


def test_pricing_is_linear_in_distinct_subterms(monkeypatch):
    # A sends a 256-component list of nonces and data: its 255
    # concatenations take nested inputs, so sizing every input afresh sums
    # about k^2 times.  No other test builds this typed shape, so none of
    # its pairs is sized before this call
    parts = ", ".join(f"N{i}, D{i}" for i in range(128))
    nonces = ", ".join(f"N{i}" for i in range(128))
    data = ", ".join(f"D{i}" for i in range(128))
    spec = parse(
        f"protocol wide {{ roles A, B; nonce {nonces}; data {data}; "
        f"knows A: B, {parts}; knows B: A; A -> B: {parts}; }}"
    )
    space = extract(project(spec).strands[0]).space()
    distinct: set = set()
    for s in space.strands:
        for ev in s.seq:
            typed_subterms(ev.payload, distinct)
    pairs = [t for t in distinct if isinstance(t, TPair)]
    assert len(pairs) == 255 and not any(hasattr(t, "_size") for t in pairs)
    calls = counting_ssum(monkeypatch)
    cost_of_space(space)
    # each pair is sized by one sum, once
    assert calls[0] == len(pairs) <= 2 * len(distinct), (calls, len(distinct))


def test_pricing_a_space_again_sizes_nothing(monkeypatch):
    # sizes are kept on their typed terms, so pricing a space a second time
    # reads them all
    for spec in [chain_spec(12, 4)] + [parse(read(path)) for path in CORPUS]:
        for s in project(spec).strands:
            space = extract(s).space()
            first = cost_of_space(space)
            calls = counting_ssum(monkeypatch)
            assert cost_of_space(space) is first
            assert calls[0] == 0
            monkeypatch.undo()


def test_simplify_folds_constants():
    e = cost_expr([
        App(CostFunc.F_C, (SN, SR)),
        App(CostFunc.F_P, (SN,)),
        App(CostFunc.F_P, (SR,)),
    ])
    assert render_cost(simplify(e)) == "L_C + 2*L_P"


def test_overheads_of_either_sign_cancel():
    # the sign is the multiplicity's, so +Ov_h and -Ov_h are one term
    lc = cost_expr([LambdaC()])
    assert simplify(cost_expr([LambdaC(), (Overhead(), 1), (Overhead(), -1)])) is simplify(lc)
    assert cost_expr([(Overhead(), 2), LambdaC(), (Overhead(), -2)]) is lc
    assert cost_expr([(Overhead(), 2), (Overhead(), -3)]).terms == ((Overhead(), -1),)


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


def test_expand_splits_a_sum():
    term = app(CostFunc.F_H, SN, SN, SR)
    steps = []
    out = _expand([(term, 1)], steps, "left")
    [(kind, label, expanded, parts)] = steps
    assert (kind, label, expanded) == ("expand", "left", term)
    assert (App(CostFunc.F_H, (SN,)), 2) in parts
    assert (App(CostFunc.F_H, (SR,)), 1) in parts
    assert (Overhead(), -2) in parts
    assert out == dict(parts)
    kept = [
        app(CostFunc.F_H, SN),  # single unit
        App(CostFunc.F_C, (SN, SR)),  # not expandable
        App(CostFunc.F_H, (Sum(()),)),  # the empty sum, size zero
    ]
    for term in kept:
        steps = []
        assert _expand([(term, 3)], steps, "left") == {term: 3}
        assert steps == []


def test_expansion_builds_no_overhead_term(monkeypatch):
    # every expansion leaves the one live Ov_h behind, with a negative
    # multiplicity, not a fresh call to the constructor
    built = []
    real = Overhead.__new__

    def counted(cls):
        built.append(cls)
        return real(cls)

    monkeypatch.setattr(Overhead, "__new__", staticmethod(counted))
    steps = []
    _expand([(app(func, SN, SN, SR, HashSize()), 1) for func in EXPANDABLE], steps, "left")
    assert built == []
    assert [step[2].func for step in steps] == list(EXPANDABLE)
    assert all(step[3][-1] == (Overhead(), -3) for step in steps)


def test_expand_additivity_golden():
    e = cost_expr([(app(CostFunc.F_H, SN, SN, SR), 2), LambdaC()])
    got = render_cost(expand_additivity(e))
    assert got == "4*f_h(|n|) + 2*f_h(|r|) + L_C - 4*Ov_h"


def test_every_step_kind_renders():
    # one step of each kind compare records, as it records it; a kind it
    # does not record is refused
    fh_n, fh_r, fpk_n = app(CostFunc.F_H, SN), app(CostFunc.F_H, SR), app(CostFunc.F_PK, SN)
    parts = [(fh_n, 2), (fh_r, 1), (Overhead(), -2)]
    steps = [
        (("cancel", fh_n, 3), "cancel: 3*f_h(|n|)"),
        (("cancel", Overhead(), -1), "cancel: Ov_h"),
        (("expand", "right", app(CostFunc.F_H, SN, SN, SR), parts),
         "expand right: f_h(2|n| + |r|) -> 2*f_h(|n|) + f_h(|r|) - 2*Ov_h"),
        (("drop overhead", "left", Overhead(), -4), "drop overhead (left): 4*Ov_h"),
        (("drop overhead", "right", Overhead(), 1), "drop overhead (right): Ov_h"),
        (("residue",), "overhead residue cannot be discharged"),
        (("empty", "left"), "left residual empty; right residual is strictly positive"),
        (("empty", "right"), "right residual empty; left residual is strictly positive"),
        (("dominance", fh_n, "<", fpk_n), "dominance: f_h(|n|) < f_pk(|n|)"),
        (("verdict", Verdict.INDETERMINATE), "verdict: Indeterminate"),
    ]
    for step, line in steps:
        assert _render_step(step) == line
    assert {step[0] for step, _ in steps} == {
        "cancel", "expand", "drop overhead", "residue", "empty", "dominance", "verdict"}
    with pytest.raises(ValueError, match="^unknown trace step 'bogus'$"):
        _render_step(("bogus", fh_n))


def test_render_cost_term_refuses_what_is_not_a_cost_term():
    with pytest.raises(TypeError, match="^not a cost term: "):
        render_cost_term(SN)


def test_render_cost_zero_and_signs():
    assert render_cost(CostExpr(())) == "0"
    e = cost_expr([(Overhead(), -2)])
    assert render_cost(e) == "-2*Ov_h"
    e = cost_expr([LambdaC(), Overhead()])
    assert render_cost(e) == "L_C + Ov_h"
    e = cost_expr([(Overhead(), -1), LambdaC()])
    assert render_cost(e) == "-Ov_h + L_C"


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
    e = cost_expr([LambdaC(), (LambdaP(), 2), (Overhead(), -3)])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "10**400"])
def test_model_constructors_refuse_non_finite_numbers(bad):
    # `x < 0` is false for NaN, so a sign test alone let NaN through and
    # eval_cost returned nan; an int beyond the float range is below inf,
    # and eval_cost raised OverflowError on it
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Affine(bad, 1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Affine(1, bad)
    for name in ("lambda_c", "lambda_p", "ov_h"):
        good = model()
        kwargs = {"funcs": good.funcs, "lambda_c": 0.1, "lambda_p": 0.05, "ov_h": 0.25,
                  "size_model": good.size_model, name: bad}
        with pytest.raises(ValueError, match="finite and nonnegative"):
            CostModel(**kwargs)
    good = {"sizes": _sizes(), "s_hash": 20, "blk_in": 117, "blk_out": 128, "pad": 11}
    cases = [{**good, name: bad} for name in ("s_hash", "blk_in", "blk_out", "pad")]
    cases += [{**good, "sizes": {**_sizes(), tt: bad}} for tt in BasicTT]
    for kwargs in cases:
        with pytest.raises(ValueError, match="finite and positive"):
            SizeModel(**kwargs)
    with pytest.raises(ValueError, match="max_bytes must be finite and positive"):
        AssumptionSet(max_bytes=bad)
    # zero stays accepted where the bound is nonnegative
    zero = CostModel(funcs={f: Affine(0, 0) for f in EXPANDABLE}, lambda_c=0, lambda_p=0,
                     ov_h=0, size_model=model().size_model)
    assert eval_cost(cost_expr([app(CostFunc.F_H, SN), LambdaC(), Overhead()]), zero) == 0


@pytest.mark.parametrize(
    "change, overflowing",
    [
        # the two configs of test_cli's overflow test: an S_asym block count
        # too large to be an integer, then finite sizes whose sums are not
        ({"s_asym": {"blk_in": 2e-300, "blk_out": 128, "pad": 1e-300}, "sizes": {"m": 1e10}},
         {"f_pk(S_asym(|m|))"}),
        ({"sizes": {"r": 1e308, "n": 1e308}},
         {"f_sk(|r| + |n|)", "f_h(S_asym(|r| + |n|))"}),
    ],
    ids=["asym-blocks", "sum"],
)
def test_eval_cost_overflow_is_non_finite_and_raises_nothing(change, overflowing):
    # eval_size raised OverflowError on an infinite block count, while a
    # sum that overflowed came back as inf
    data = json.loads(Path(DEFAULT_CONFIG).read_text(encoding="utf-8"))
    for key, value in change.items():
        data[key].update(value)
    m, _ = parse_config(data)
    terms = [app(CostFunc.F_SK, SR, SN), App(CostFunc.F_H, (AsymSize(ssum([SR, SN])),)),
             App(CostFunc.F_PK, (AsymSize(SM),))]
    assert {render_cost_term(t) for t in terms} >= overflowing
    for term in terms:
        value = eval_cost(cost_expr([term]), m)
        assert isinstance(value, float)
        assert math.isfinite(value) is (render_cost_term(term) not in overflowing)
    assert not math.isfinite(eval_cost(cost_expr(terms), m))


@pytest.mark.parametrize("mult", [True, 1.0, 2.0, 1.5],
                         ids=["bool", "float", "float-2", "fraction"])
def test_cost_expr_refuses_non_int_multiplicities(mult):
    # cost_expr sums multiplicities before it builds, and True + 0 is the
    # int 1, so it checks each one itself; the live int expression, held
    # here, is not what it answers
    live = ((LambdaC(), 1), (Overhead(), int(mult)))
    held = CostExpr(live)
    bad = ((LambdaC(), 1), (Overhead(), mult))
    with pytest.raises(TypeError, match=f"^cost_expr multiplicities must be int, not "
                                        f"{type(mult).__name__}$"):
        cost_expr(bad)
    assert cost_expr(live) is held
    # cost_expr skips a zero multiplicity, but not one that only equals zero
    assert cost_expr([(LambdaC(), 0)]).terms == ()
    with pytest.raises(TypeError, match="^cost_expr multiplicities must be int, not float$"):
        cost_expr([(LambdaC(), 0.0)])


def test_models_are_read_only():
    # a model keeps a table of the values it computed, so no field may be
    # rebound and the dicts a caller passed in are copied, not kept; the
    # copies are read-only views
    funcs = {f: Affine(1.0, 0.1) for f in EXPANDABLE}
    sizes_in = _sizes()
    sm = SizeModel(sizes=sizes_in, s_hash=20, blk_in=117, blk_out=128, pad=11)
    m = CostModel(funcs=funcs, lambda_c=0.1, lambda_p=0.05, ov_h=0.25, size_model=sm)
    e = cost_expr([app(CostFunc.F_H, SN, SR), App(CostFunc.F_PK, (AsymSize(SN),)),
                   LambdaC(), LambdaP(), (Overhead(), -1)])
    before = eval_cost(e, m)
    for obj in (m, sm, funcs[CostFunc.F_H]):
        for name in [*type(obj).__slots__, "_values", "bogus"]:
            with pytest.raises(AttributeError, match="^cannot assign to field"):
                setattr(obj, name, 1.0)
            with pytest.raises(AttributeError, match="^cannot delete field"):
                delattr(obj, name)
    funcs[CostFunc.F_H] = Affine(100.0, 100.0)
    sizes_in[BasicTT.N] = 1000
    with pytest.raises(TypeError):
        m.funcs[CostFunc.F_H] = Affine(0, 0)
    with pytest.raises(TypeError):
        sm.sizes[BasicTT.N] = 1
    assert m.funcs[CostFunc.F_H].alpha == 1.0 and sm.sizes[BasicTT.N] == 16
    assert eval_cost(e, m) == before == naive_eval_cost(e, m)


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
        flow = _saturating_match(small, big, {(b, s) for s, b in edges})
        assert (flow is not None) == _hall(small, big, edges)
        if flow is None:
            continue
        matched += 1
        assert set(flow) <= edges and min(flow.values()) > 0
        assert _hall(small, big, flow)
        for s, copies in small.items():
            assert sum(n for (s2, _), n in flow.items() if s2 == s) == copies
        for b, copies in big.items():
            assert sum(n for (_, b2), n in flow.items() if b2 == b) <= copies
    assert 400 < matched < 1600


def test_matching_time_does_not_grow_with_multiplicity():
    # each augmenting path pushes its bottleneck, so ten million units of
    # f_h under as many of f_pk take one path, not ten million
    n = (TypeSize(BasicTT.N),)
    units = 10**7
    lesser = CostExpr(((App(CostFunc.F_H, n), units),))
    greater = CostExpr(((App(CostFunc.F_PK, n), units),))
    start = time.perf_counter()
    res = compare(lesser, greater)
    assert time.perf_counter() - start < 1.0
    assert res.verdict is Verdict.LESS
    assert res._flow == {(CostFunc.F_H, CostFunc.F_PK): units}


def _per_function(side: dict) -> dict:
    counts: dict = {}
    for term, mult in side.items():
        counts[term.func] = counts.get(term.func, 0) + mult
    return counts


_ARGS = (SN, SR, HashSize(), AsymSize(SN), AsymSize(SR))


def _random_residual(rng: random.Random) -> dict:
    side = {}
    for _ in range(rng.randint(1, 8)):
        func = rng.choice(list(CostFunc))
        if func is CostFunc.F_C:
            term = LambdaC()
        elif func is CostFunc.F_P:
            term = LambdaP()
        else:
            term = App(func, (rng.choice(_ARGS),))
        side[term] = side.get(term, 0) + rng.randint(1, 3)
    return side


def test_matching_per_function_agrees_with_matching_terms():
    # dominance reads only functions, so terms of one function share their
    # edges, and a saturating match of terms exists exactly when one of
    # per-function counts does; handing the per-function flow out to terms
    # pairs every small term, each with a big term that dominates it
    rng = random.Random(0xC1A55)
    matched = 0
    for _ in range(3000):
        relation = {(g, f) for g in CostFunc for f in CostFunc if rng.random() < 0.3}
        small, big = _random_residual(rng), _random_residual(rng)
        terms = {(b, s) for b in big for s in small if (b.func, s.func) in relation}
        by_term = _saturating_match(small, big, terms)
        by_func = _saturating_match(_per_function(small), _per_function(big), relation)
        assert (by_term is None) == (by_func is None)
        if by_func is not None:
            pairs = spa.costs._hand_out(by_func, tuple(small.items()), tuple(big.items()))
            assert {s for s, _ in pairs} == set(small)
            assert all((b, s) in terms for s, b in pairs)
        matched += by_term is not None
    assert 300 < matched < 2700


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
    roles = role_costs()
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
    # application is rebuilt: every argument is normal already.  compare
    # itself builds no CostExpr; reading the residuals builds the two the
    # eager reference returns, once
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
        _, left, right, _ = naive_compare(a, b, assume)
        before = len(exprs)
        res = compare(a, b, assume)
        assert exprs[before:] == []
        assert (res.left_residual, res.right_residual) == (left, right)
        assert exprs[before:] == [left, right]
        assert (res.left_residual, res.right_residual) == (left, right)
        assert len(exprs) == before + 2
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


def test_only_compare_matches_and_only_function_counts(monkeypatch):
    # compare matches per-function counts, at most once each way; the
    # dominance lines are read off the flow it kept, so reading the trace
    # matches nothing
    keys = []
    match = spa.costs._saturating_match

    def recorded(small, big, closure):
        keys.append({type(node) for side in (small, big) for node in side})
        return match(small, big, closure)

    monkeypatch.setattr(spa.costs, "_saturating_match", recorded)
    explained = 0
    for a, b, assume in _compare_cases():
        keys.clear()
        res = compare(a, b, assume)
        assert len(keys) <= 2 and all(k == {CostFunc} for k in keys)
        keys.clear()
        trace = res.trace
        explained += any(line.startswith("dominance: ") for line in trace)
        left, right = res.left_residual, res.right_residual
        assert res.trace is trace and res.trace == trace
        assert res.left_residual is left and res.right_residual is right
        assert keys == []
    assert explained > 100


def test_dominance_lines_pair_residual_terms_the_closure_orders():
    # each line names a term of the lesser residual and one of the greater
    # that dominates it, once per pair, and every lesser term has a line
    explained = 0
    for a, b, assume in _compare_cases():
        res = compare(a, b, assume)
        lines = [line[len("dominance: "):] for line in res.trace
                 if line.startswith("dominance: ")]
        if not lines:
            continue
        explained += 1
        less = res.verdict is Verdict.LESS
        lesser, greater = res.left_residual.terms, res.right_residual.terms
        if not less:
            lesser, greater = greater, lesser
        lesser = {render_cost_term(t): t for t, _ in lesser}
        greater = {render_cost_term(t): t for t, _ in greater}
        pairs = []
        for line in lines:
            first, second = line.split(" < " if less else " > ")
            s, b = (lesser[first], greater[second]) if less else (lesser[second], greater[first])
            assert (b.func, s.func) in assume.closure(), line
            pairs.append((s, b))
        assert len(set(pairs)) == len(pairs)
        assert {s for s, _ in pairs} == set(lesser.values())
    assert explained > 100


def test_trace_of_a_large_residual_is_read_off_the_flow():
    # 1,200 distinct terms each side: matching them term by term recursed
    # once per term and took minutes; the pairs come off one flow entry
    args = [AsymSize(Sum(((i, SN),))) for i in range(2, 1202)]
    hashes = cost_expr([App(CostFunc.F_H, (arg,)) for arg in args])
    sealed = cost_expr([App(CostFunc.F_PK, (arg,)) for arg in args])
    lines = [(render_cost_term(App(CostFunc.F_H, (arg,))),
              render_cost_term(App(CostFunc.F_PK, (arg,)))) for arg in args]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 900)
    try:
        start = time.perf_counter()
        less, greater = compare(hashes, sealed), compare(sealed, hashes)
        traces = less.trace, greater.trace
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert (less.verdict, greater.verdict) == (Verdict.LESS, Verdict.GREATER)
    assert traces[0] == (*(f"dominance: {h} < {pk}" for h, pk in lines), "verdict: Less")
    assert traces[1] == (*(f"dominance: {pk} > {h}" for h, pk in lines), "verdict: Greater")
    assert len(traces[0]) == 1201 and elapsed < 1.0


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
    return (5, -1)


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
    exprs = role_costs() + [random_cost_expr(rng) for _ in range(500)]
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
    # the closure is set by `_check`, so a set that another interpreter
    # pickled and this one has not built gets it when it is unpickled
    source = (
        "import pickle, sys; from spa.costs import AssumptionSet, CostFunc as F; "
        "sys.stdout.buffer.write(pickle.dumps(AssumptionSet(dominance=("
        "(F.F_NG, F.F_KG), (F.F_KG, F.F_S), (F.F_S, F.F_C)))))"
    )
    back = _pickled_elsewhere(source)
    assert back.closure() == _transitive_closure(back.dominance)
    assert len(back.closure()) == 6


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


def test_additivity_with_the_overhead_kept_is_equal():
    # f_h(|n| + |r|) + Ov_h is f_h(|n|) + f_h(|r|) under every model: the
    # overhead the expansion leaves cancels the one the left side holds
    a = cost_expr([app(CostFunc.F_H, SN, SR), Overhead()])
    b = cost_expr([app(CostFunc.F_H, SN), app(CostFunc.F_H, SR)])
    for left, right in ((a, b), (b, a)):
        res = compare(left, right, AssumptionSet(ignore_overhead=False))
        assert res.verdict is Verdict.EQUAL
        assert res.residual_line() == "0 = 0"
    res = compare(a, b, AssumptionSet(ignore_overhead=False))
    assert res.trace == (
        "expand left: f_h(|n| + |r|) -> f_h(|n|) + f_h(|r|) - Ov_h",
        "cancel: f_h(|n|)",
        "cancel: f_h(|r|)",
        "verdict: Equal",
    )


def test_overhead_cancels_only_against_its_own_sign():
    # what is left of a cancelled term stays on the side it came from
    narrow = cost_expr([(app(CostFunc.F_H, SN), 2), (Overhead(), -1)])
    wide = cost_expr([app(CostFunc.F_H, SN, SN, SR)])
    res = compare(wide, narrow, AssumptionSet(ignore_overhead=False))
    assert res.trace[1:] == ("cancel: 2*f_h(|n|)", "cancel: Ov_h",
                             "overhead residue cannot be discharged", "verdict: Indeterminate")
    assert res.residual_line() == "f_h(|r|) - Ov_h ? 0"
    # of opposite signs, nothing cancels: both stay, and are dropped apart
    plus = cost_expr([app(CostFunc.F_H, SR), Overhead()])
    res = compare(wide, plus)
    assert res.trace[1:] == ("cancel: f_h(|r|)", "drop overhead (left): 2*Ov_h",
                             "drop overhead (right): Ov_h",
                             "right residual empty; left residual is strictly positive",
                             "verdict: Greater")


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
    for e in role_costs() + [random_cost_expr(rng) for _ in range(500)]:
        for term in _expand(simplify(e).terms, [], ""):
            if isinstance(term, App):
                (arg,) = term.args
                assert arg is Sum(()) or not isinstance(arg, Sum), render_cost_term(term)
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


def _draws(seed: int, n: int = 500) -> list:
    # criterion 7's draws: random expressions, each with its own model
    rng = random.Random(seed)
    return [(random_cost_expr(rng), random_eval_model(rng)) for _ in range(n)]


@pytest.mark.parametrize("sharing", ["shared", "fresh"])
def test_eval_matches_the_memo_free_reference_exactly(sharing):
    # a model's table changes when a value is computed, never which float it
    # is: every value equals the reference's bit for bit (hex tells -0.0
    # from 0.0), on first evaluation and read back from the table
    draws = _draws(0x5EED7)
    shared = draws[0][1]
    for e, m in draws:
        model = shared if sharing == "shared" else m
        for rewritten in (e, simplify(e), expand_additivity(simplify(e)), e):
            want = naive_eval_cost(rewritten, model).hex()
            assert eval_cost(rewritten, model).hex() == want
    if sharing == "shared":
        assert len(shared._values) > 500  # the one table kept every term


def test_interleaved_models_keep_their_own_values():
    # two models pricing the same terms, evaluated in turn: each table holds
    # only its own model's values
    draws = _draws(0x1E7, 200)
    m1, m2 = draws[0][1], draws[1][1]
    for e, _ in draws:
        for m in (m1, m2, m2, m1):
            assert eval_cost(e, m).hex() == naive_eval_cost(e, m).hex()
    assert set(m1._values) == set(m2._values)
    for m in (m1, m2):
        for term, value in m._values.items():
            assert value == naive_eval_terms(((term, 1),), m)


def test_a_model_table_dies_with_its_model():
    # no value outlives its model: a term only the table held is freed
    term = App(CostFunc.F_PK, (AsymSize(Sum(((7, SM), (3, SK_)))),))
    m = random_eval_model(random.Random(7))
    eval_cost(cost_expr([term]), m)
    assert term in m._values
    dead = weakref.ref(term)
    del term, m
    gc.collect()
    assert dead() is None


def test_a_model_keeps_at_most_a_full_table_of_terms():
    # a caller that keeps one model and prices ever new expressions keeps
    # alive, through the model, only the terms in its table: a full table
    # is emptied, and what it held is freed
    limit = spa.costs._TABLE_LIMIT
    m = model()
    dead = []
    for i in range(limit + 100):
        e = cost_expr([App(CostFunc.F_H, (Sum(((i + 2, SN),)),))])
        assert eval_cost(e, m) == naive_eval_cost(e, m)
        assert len(m._values) == i % limit + 1
        dead.append(weakref.ref(e.terms[0][0]))
    del e
    gc.collect()
    kept = [ref() for ref in dead if ref() is not None]
    assert kept == list(m._values) == [ref() for ref in dead[limit:]]


def test_equal_models_are_one_object():
    # models are hash-consed: built again from equal numbers, or from the
    # read-only views another model exposes, a model is the live one and
    # shares its table of values
    m = model()
    e = cost_expr([app(CostFunc.F_H, SN, SR), LambdaC(), (Overhead(), -1)])
    want = eval_cost(e, m)
    again = CostModel(funcs=m.funcs, lambda_c=0.1, lambda_p=0.05, ov_h=0.25,
                      size_model=SizeModel(sizes=m.size_model.sizes, s_hash=20, blk_in=117,
                                           blk_out=128, pad=11))
    assert again is model() is m and again.size_model is m.size_model
    assert again.funcs[CostFunc.F_H] is Affine(1.0, 0.1)
    assert again._values is m._values and all(term in m._values for term, _ in e.terms)
    assert eval_cost(e, again) == want
    other = model(ov=0.5)
    assert other is not m and other._values is not m._values


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_models_round_trip_through_their_constructors(how):
    # a copy, deep copy or pickle of a model is the model itself, and its
    # prices, size model and table of values with it
    funcs = {f: Affine(1.0 + i, 0.1 * i) for i, f in enumerate(EXPANDABLE)}
    sm = SizeModel(sizes=_sizes(), s_hash=20, blk_in=117, blk_out=128, pad=11)
    m = CostModel(funcs=funcs, lambda_c=0.1, lambda_p=0.05, ov_h=0.25, size_model=sm)
    e = cost_expr([app(CostFunc.F_H, SN, SR), App(CostFunc.F_PK, (AsymSize(SN),)),
                   LambdaC(), LambdaP(), (Overhead(), -1)])
    want = eval_cost(e, m)
    table = dict(m._values)
    back = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    }[how]([m, sm, funcs[CostFunc.F_H]])
    assert back[0] is m and back[1] is sm and back[2] is funcs[CostFunc.F_H]
    assert m._values == table and eval_cost(e, back[0]) == want
    # what a pickle holds is the constructor's arguments, the views as dicts
    assert type(m.__reduce__()[1][0]) is dict and m.__reduce__()[0] is CostModel
