"""`compare_eval`: known-answer cost pairs for the comparator.

One request is `compare(a, b, assume)` plus `eval_cost` of both sides under
one model that satisfies `assume`, which is what `spa compare --config`
does after extraction.  Pairs are built so that their verdict is known: a
side equal up to order, a side with extra positive terms, dominated terms
matched one-to-one by dominating ones, or an application over a strictly
wider sum.  Each of the five assumption sets gets the same number of pairs;
four in five are small (at most twelve terms a side) and one in five is
wide, keeping tens of terms after cancellation so that additivity expansion
and the matching do real work.  Kinds and widths rotate rather than being
drawn, so the mix, and with it the run's cost, varies little by seed.
Every pass draws new pairs and models, so no request repeats an earlier
input.
Numeric values are checked against an evaluator in this file.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from spa.costs import (
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
    cost_expr,
)
from spa.sizes import AsymSize, HashSize, SizeModel, Sum, TypeSize, ssum
from spa.terms import BasicTT

from reference import FAILED, OK, WRONG

# the five assumption sets of acceptance criterion 8
ASSUMPTION_SETS = (
    AssumptionSet(),
    AssumptionSet(ignore_overhead=False),
    AssumptionSet(
        dominance=(
            (CostFunc.F_PK, CostFunc.F_H),
            (CostFunc.F_H, CostFunc.F_SK),
            (CostFunc.F_SK, CostFunc.F_NG),
        ),
        max_bytes=1024.0,
    ),
    AssumptionSet(
        ignore_overhead=False,
        dominance=((CostFunc.F_C, CostFunc.F_P), (CostFunc.F_PK, CostFunc.F_C)),
    ),
    AssumptionSet(dominance=()),
)
PAIRS_PER_SET = 300
WIDE_EVERY = 5  # one pair in five is wide
SMALL_KINDS = ("equal", "subset", "dominated", "wider")
WIDE_KINDS = ("subset", "dominated", "wider")
WIDE_EXTRAS = range(15, 26)
MODELS_PER_SET = 8

_UNITS = [TypeSize(b) for b in BasicTT] + [HashSize()] + [AsymSize(TypeSize(b)) for b in BasicTT]
# largest value a unit takes under the size models drawn below
_WORST = {u: 32.0 for u in _UNITS[:4]} | {HashSize(): 64.0} | {u: 512.0 for u in _UNITS[5:]}
_ALL_FUNCS = EXPANDABLE + (CostFunc.F_C, CostFunc.F_P)


@dataclass(frozen=True)
class KnownPair:
    left: CostExpr
    right: CostExpr
    assume: AssumptionSet
    model: CostModel
    verdict: Verdict
    left_value: float  # from this file's evaluator
    right_value: float


# -- expressions with a known order ----------------------------------------


def _bounded_sum(rng: random.Random, cap: float):
    """A sum of units whose value stays within [1, cap] under the models."""
    parts = []
    budget = cap
    for _ in range(rng.randint(1, 5)):
        unit = rng.choice(_UNITS)
        coeff = rng.randint(1, 3)
        if coeff * _WORST[unit] <= budget:
            parts += [unit] * coeff
            budget -= coeff * _WORST[unit]
    return ssum(parts or [TypeSize(BasicTT.N)])


def _term(rng: random.Random, func: CostFunc, assume: AssumptionSet, single: bool = False):
    if func is CostFunc.F_C:
        return LambdaC()
    if func is CostFunc.F_P:
        return LambdaP()
    # expansion leaves overhead behind unless overhead is ignored
    if single or not assume.ignore_overhead:
        return App(func, (rng.choice(_UNITS),))
    return App(func, (_bounded_sum(rng, assume.max_bytes),))


def _shared(rng: random.Random, assume: AssumptionSet, count: int) -> list:
    return [
        (_term(rng, rng.choice(_ALL_FUNCS), assume), rng.randint(1, 3))
        for _ in range(count)
    ]


def known_pair(rng: random.Random, assume: AssumptionSet, kind: str, extras: int, shared: int):
    """(left, right, verdict) with the verdict fixed by construction:
    `shared` terms on both sides plus `extras` that decide the order."""
    base = _shared(rng, assume, shared)
    left, right = list(base), list(base)
    if kind == "dominated" and not assume.dominance:
        kind = "subset"
    if kind == "wider" and not assume.ignore_overhead:
        kind = "subset"
    if kind == "equal":
        rng.shuffle(right)
    elif kind == "subset":
        right += _shared(rng, assume, extras)
    elif kind == "dominated":
        # one dominating instance per dominated one, single units so that
        # expansion cannot change the instance counts
        pairs = tuple(assume.closure())
        for _ in range(extras):
            greater, lesser = rng.choice(pairs)
            left.append((_term(rng, lesser, assume, single=True), 1))
            right.append((_term(rng, greater, assume, single=True), 1))
    else:
        for _ in range(extras):
            func = rng.choice(EXPANDABLE)
            narrow = _bounded_sum(rng, assume.max_bytes / 2)
            left.append((App(func, (narrow,)), 1))
            right.append((App(func, (ssum([narrow, rng.choice(_UNITS)]),)), 1))
    verdict = Verdict.EQUAL if kind == "equal" else Verdict.LESS
    a, b = cost_expr(left), cost_expr(right)
    if verdict is Verdict.LESS and rng.random() < 0.5:
        return b, a, Verdict.GREATER
    return a, b, verdict


# -- models satisfying an assumption set -----------------------------------


def _levels(assume: AssumptionSet) -> dict:
    closure = assume.closure()

    def level(f) -> int:
        below = [lesser for greater, lesser in closure if greater is f]
        return 1 + max(map(level, below)) if below else 0

    return {f: level(f) for f in CostFunc}


def sound_model(rng: random.Random, assume: AssumptionSet) -> CostModel:
    """Dominance levels are a factor wider than 2 * max_bytes apart, so one
    application of a dominating function exceeds any value a dominated one
    takes on sizes up to max_bytes."""
    band = 2 * assume.max_bytes + 16
    levels = _levels(assume)
    ranked = {f for pair in assume.closure() for f in pair}
    ov = 0.0 if assume.ignore_overhead else rng.uniform(0.1, 1.0)

    def constant(func: CostFunc) -> float:
        if func in ranked:
            return rng.uniform(1, 2) * band ** levels[func]
        return rng.uniform(0.5, 5)

    return CostModel(
        funcs={f: Affine(ov, rng.uniform(1, 2) * band ** levels[f]) for f in EXPANDABLE},
        lambda_c=constant(CostFunc.F_C),
        lambda_p=constant(CostFunc.F_P),
        ov_h=ov,
        size_model=SizeModel(
            sizes={b: rng.uniform(1, 32) for b in BasicTT},
            s_hash=rng.uniform(8, 64),
            blk_in=rng.uniform(50, 120),
            blk_out=rng.uniform(64, 256),
            pad=rng.uniform(1, 40),
        ),
    )


def _size(e, sm: SizeModel) -> float:
    if isinstance(e, TypeSize):
        return sm.sizes[e.tt]
    if isinstance(e, HashSize):
        return sm.s_hash
    if isinstance(e, AsymSize):
        return math.ceil((_size(e.arg, sm) + sm.pad) / sm.blk_in) * sm.blk_out
    assert isinstance(e, Sum)
    return sum(coeff * _size(unit, sm) for coeff, unit in e.items)


def value(e: CostExpr, m: CostModel) -> float:
    total = 0.0
    for term, mult in e.terms:
        if isinstance(term, LambdaC):
            v = m.lambda_c
        elif isinstance(term, LambdaP):
            v = m.lambda_p
        elif isinstance(term, Overhead):
            v = term.sign * m.ov_h
        else:
            f = m.funcs[term.func]
            v = f.alpha + f.beta * _size(term.args[0], m.size_model)
        total += mult * v
    return total


# -- the workload -----------------------------------------------------------


class CompareEval:
    name = "compare_eval"
    failures_expected = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def requests(self, number: int) -> list[KnownPair]:
        """Pass `number`: pairs and models drawn afresh, in the same mix."""
        rng = self.rng
        pool = []
        for assume in ASSUMPTION_SETS:
            models = [sound_model(rng, assume) for _ in range(MODELS_PER_SET)]
            for i in range(PAIRS_PER_SET):
                j = i // WIDE_EVERY
                if i % WIDE_EVERY == 0:
                    kind = WIDE_KINDS[j % len(WIDE_KINDS)]
                    extras = WIDE_EXTRAS[j % len(WIDE_EXTRAS)]
                    shared = rng.randint(6, 10)
                else:
                    kind = SMALL_KINDS[i % len(SMALL_KINDS)]
                    extras, shared = rng.randint(1, 3), rng.randint(0, 4)
                a, b, verdict = known_pair(rng, assume, kind, extras, shared)
                m = models[i % MODELS_PER_SET]
                pool.append(KnownPair(a, b, assume, m, verdict, value(a, m), value(b, m)))
        rng.shuffle(pool)
        return pool

    @staticmethod
    def call(fns, pair: KnownPair):
        result = fns.compare(pair.left, pair.right, pair.assume)
        return (
            result.verdict,
            fns.eval_cost(pair.left, pair.model),
            fns.eval_cost(pair.right, pair.model),
        )

    @staticmethod
    def check(pair: KnownPair, outcome) -> tuple[str, str]:
        if isinstance(outcome, BaseException):
            return FAILED, f"raised {outcome!r}"
        verdict, va, vb = outcome
        if verdict is not pair.verdict:
            return WRONG, f"verdict {verdict.value}, known answer {pair.verdict.value}"
        for got, want in ((va, pair.left_value), (vb, pair.right_value)):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                return WRONG, f"eval_cost {got!r} != {want!r}"
        holds = {
            Verdict.EQUAL: math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9),
            Verdict.LESS: va < vb,
            Verdict.GREATER: va > vb,
        }[verdict]
        if not holds:
            return WRONG, f"{verdict.value} but the model prices {va!r} vs {vb!r}"
        return OK, ""
