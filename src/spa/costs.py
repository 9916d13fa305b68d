"""Symbolic operation costs: construction, simplification, additivity
expansion, numeric evaluation, and assumption-driven comparison.

A cost expression is an ordered multiset of cost terms: applications of the
per-operation cost functions, the concatenation and processing constants L_C
and L_P, and signed overhead constants Ov_h.  Canonical order groups terms
as: applications to a single type size, L_C, remaining applications without
S_hash in the argument, applications with S_hash, L_P, overhead; ties break
by the function enumeration, then first occurrence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidOpStrand, ShapeViolation
from .sizes import (
    SizeExpr,
    SizeModel,
    Sum,
    TypeSize,
    addend_count,
    as_multiset,
    contains_hash,
    delta,
    eval_size,
    normalize,
    render_size,
)
from .strands import OPS, Classifier, CostFunc, StrandSpace, TStrand, validate_op_strand


_FUNC_RANK = {f: i for i, f in enumerate(CostFunc)}

# functions whose argument obeys the additivity law
EXPANDABLE = (
    CostFunc.F_SK,
    CostFunc.F_PK,
    CostFunc.F_H,
    CostFunc.F_KG,
    CostFunc.F_NG,
    CostFunc.F_S,
)


class CostTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class App(CostTerm):
    func: CostFunc
    args: tuple[SizeExpr, ...]

    def __post_init__(self):
        want = 2 if self.func is CostFunc.F_C else 1
        if len(self.args) != want:
            raise ValueError(f"{self.func.value} takes {want} argument(s)")


# L_C and L_P are the flat constants f_c and f_p fold into.  Each names the
# function it folds as a class attribute, not a field, so evaluation and
# dominance treat a folded term and a raw application alike.
@dataclass(frozen=True, slots=True)
class LambdaC(CostTerm):
    func = CostFunc.F_C


@dataclass(frozen=True, slots=True)
class LambdaP(CostTerm):
    func = CostFunc.F_P


_FOLDED = {cls.func: cls() for cls in (LambdaC, LambdaP)}


@dataclass(frozen=True, slots=True)
class Overhead(CostTerm):
    func = None  # no function applied
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@dataclass(frozen=True, slots=True)
class CostExpr:
    terms: tuple[tuple[CostTerm, int], ...]  # (term, multiplicity >= 1)

    def __post_init__(self):
        if any(mult < 1 for _, mult in self.terms):
            raise ValueError("multiplicities must be positive")
        if len({term for term, _ in self.terms}) != len(self.terms):
            raise ValueError("terms must be distinct")


ZERO_COST = CostExpr(())


def cost_expr(items) -> CostExpr:
    """Merge (term, multiplicity) or bare terms in first-occurrence order."""
    merged: dict[CostTerm, int] = {}
    for item in items:
        term, mult = item if isinstance(item, tuple) else (item, 1)
        if mult == 0:
            continue
        merged[term] = merged.get(term, 0) + mult
    return CostExpr(tuple(merged.items()))


def _term_key(term: CostTerm):
    if isinstance(term, App):
        rank = _FUNC_RANK[term.func]
        if term.func is CostFunc.F_C:
            return (1, rank)
        if term.func is CostFunc.F_P:
            return (4, rank)
        if len(term.args) == 1 and isinstance(term.args[0], TypeSize):
            return (0, rank)
        if any(contains_hash(a) for a in term.args):
            return (3, rank)
        return (2, rank)
    if isinstance(term, LambdaC):
        return (1, -1)
    if isinstance(term, LambdaP):
        return (4, -1)
    return (5, -term.sign)


def _canonical(items) -> CostExpr:
    merged = cost_expr(items)
    ordered = sorted(merged.terms, key=lambda tm: _term_key(tm[0]))
    return CostExpr(tuple(ordered))


def cost_of_space(space: StrandSpace) -> CostExpr:
    """Raw cost of a participant's typed-strand space.

    Each operation strand contributes the cost term of its `strands.OPS`
    row, the row's cost function applied to the sizes of the payloads at
    its sized positions, and one processing term f_p per positive node it
    carries.  Process strands are free.  Operation terms come first (strand
    order), then processing terms.

    A term depends only on its strand's classifier and typed inputs (a
    row's condition fixes the outputs from the inputs; C_K and C_N output
    one basic type each), or on the payload it processes.  So every strand
    is validated, then strands are counted by (classifier, received
    payloads) and positive payloads by typed term, and each group is priced
    once, in first-seen order.  `cost_expr` merges groups that price alike
    (C_E and C_D on one body, say) at the first one's position, so the
    result equals pricing strand by strand.  Interned payloads (see
    `type_erase`) compare by identity when grouped, and every typed subterm
    is sized once per call.
    """
    ops: dict[tuple, list] = {}  # (classifier, *inputs) -> [first strand, count]
    procs: dict = {}  # positive typed payload -> count
    for s in space.strands:
        if not isinstance(s, TStrand):
            raise InvalidOpStrand(f"not a typed strand: {s!r}")
        if s.classifier is Classifier.C_P:
            continue
        try:
            validate_op_strand(s)
        except ShapeViolation as exc:
            raise InvalidOpStrand(str(exc)) from exc
        key = (s.classifier,)
        for ev in s.seq:
            if ev.sign > 0:
                procs[ev.payload] = procs.get(ev.payload, 0) + 1
            else:
                key += (ev.payload,)
        group = ops.get(key)
        if group is None:
            ops[key] = [s, 1]
        else:
            group[1] += 1
    memo: dict = {}
    return cost_expr(
        [(_op_cost(s, memo), n) for s, n in ops.values()]
        + [(App(CostFunc.F_P, (delta(t, memo),)), n) for t, n in procs.items()]
    )


def _op_cost(s: TStrand, memo: dict) -> CostTerm:
    op = OPS[s.classifier]
    return App(op.cost, tuple([delta(s.seq[i - 1].payload, memo) for i in op.sized]))


def simplify(e: CostExpr) -> CostExpr:
    """Fold concatenation and processing applications into their constants,
    normalize arguments, merge like terms, order canonically."""
    out = []
    for term, mult in e.terms:
        if isinstance(term, App):
            term = _FOLDED.get(term.func) or App(
                term.func, tuple(normalize(a) for a in term.args)
            )
        out.append((term, mult))
    return _canonical(out)


def expand_one(term: App) -> list[tuple[CostTerm, int]] | None:
    """Split a single application over a multi-addend sum argument, or None
    when the law does not apply."""
    if term.func not in EXPANDABLE or len(term.args) != 1:
        return None
    arg = term.args[0]
    if not isinstance(arg, Sum):
        return None
    k = addend_count(arg)
    if k < 2:
        return None
    parts: list[tuple[CostTerm, int]] = [
        (App(term.func, (unit,)), coeff) for coeff, unit in arg.items
    ]
    parts.append((Overhead(-1), k - 1))
    return parts


def _expand(terms, trace: list[str] | None = None, label: str = "") -> dict:
    """Apply `expand_one` to every term, merging the results in
    first-occurrence order; each rewrite is logged to `trace` if given."""
    out: dict = {}
    for term, mult in terms:
        parts = expand_one(term) if isinstance(term, App) else None
        if parts is None:
            out[term] = out.get(term, 0) + mult
            continue
        if trace is not None:
            units = " + ".join(render_cost_term(t, m) for t, m in parts[:-1])
            trace.append(
                f"expand {label}: {render_cost_term(term)} -> {units} - "
                f"{render_cost_term(*parts[-1])}"
            )
        for t, m in parts:
            out[t] = out.get(t, 0) + m * mult
    return out


def expand_additivity(e: CostExpr) -> CostExpr:
    """Rewrite every application over a sum into per-addend applications
    minus the per-term overhead."""
    return _canonical(_expand(e.terms).items())


def render_cost_term(term: CostTerm, mult: int = 1) -> str:
    if isinstance(term, App):
        body = f"{term.func.value}({', '.join(render_size(a) for a in term.args)})"
    elif isinstance(term, LambdaC):
        body = "L_C"
    elif isinstance(term, LambdaP):
        body = "L_P"
    elif isinstance(term, Overhead):
        body = "Ov_h"
    else:
        raise TypeError(f"not a cost term: {term!r}")
    return body if mult == 1 else f"{mult}*{body}"


def render_cost(e: CostExpr) -> str:
    if not e.terms:
        return "0"
    pieces = []
    for i, (term, mult) in enumerate(e.terms):
        negative = isinstance(term, Overhead) and term.sign < 0
        body = render_cost_term(term, mult)
        if i == 0:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


@dataclass(frozen=True, slots=True)
class Affine:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("affine coefficients must be nonnegative")

    def __call__(self, x: float) -> float:
        return self.alpha + self.beta * x


@dataclass(frozen=True, slots=True)
class AssumptionSet:
    ignore_overhead: bool = True
    dominance: tuple = ((CostFunc.F_PK, CostFunc.F_H), (CostFunc.F_PK, CostFunc.F_SK))
    monotone: bool = True
    max_bytes: float = 4096.0

    def __post_init__(self):
        closure = _transitive_closure(self.dominance)
        if any(g is f for g, f in closure):
            raise ValueError("dominance must be irreflexive and acyclic")

    def closure(self) -> frozenset:
        return _transitive_closure(self.dominance)


def _transitive_closure(pairs) -> frozenset:
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b is c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset(closure)


DEFAULT_ASSUMPTIONS = AssumptionSet()


@dataclass(frozen=True, slots=True)
class CostModel:
    funcs: dict  # CostFunc -> Affine, for the six size-dependent functions
    lambda_c: float
    lambda_p: float
    ov_h: float
    size_model: SizeModel

    def __post_init__(self):
        if set(self.funcs) != set(EXPANDABLE):
            raise ValueError("funcs must cover exactly the size-dependent functions")
        if self.lambda_c < 0 or self.lambda_p < 0 or self.ov_h < 0:
            raise ValueError("constants must be nonnegative")


def eval_cost(e: CostExpr, model: CostModel) -> float:
    total = 0.0
    for term, mult in e.terms:
        func = term.func
        if func is CostFunc.F_C:
            value = model.lambda_c
        elif func is CostFunc.F_P:
            value = model.lambda_p
        elif func is None:
            value = term.sign * model.ov_h
        else:
            value = model.funcs[func](eval_size(term.args[0], model.size_model))
        total += mult * value
    return total


class Verdict(enum.Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True, slots=True)
class CompareResult:
    verdict: Verdict
    left_residual: CostExpr
    right_residual: CostExpr
    trace: tuple[str, ...]

    def residual_line(self) -> str:
        op = {
            Verdict.LESS: "<",
            Verdict.GREATER: ">",
            Verdict.EQUAL: "=",
            Verdict.INDETERMINATE: "?",
        }[self.verdict]
        return f"{render_cost(self.left_residual)} {op} {render_cost(self.right_residual)}"


def _cancel(left: dict, right: dict, trace: list[str], stage: str):
    for term in list(left):
        if term in right:
            mult = min(left[term], right[term])
            trace.append(f"{stage}: {render_cost_term(term, mult)}")
            left[term] -= mult
            right[term] -= mult
            if left[term] == 0:
                del left[term]
            if right[term] == 0:
                del right[term]


def _to_expr(side: dict) -> CostExpr:
    return _canonical(list(side.items()))


def _strictly_dominates(g: CostTerm, f: CostTerm, assume: AssumptionSet, closure) -> bool:
    """True when g's value strictly exceeds f's in every admissible model."""
    gf, ff = g.func, f.func
    if gf is None or ff is None:
        return False
    if (gf, ff) in closure:
        return True
    if (
        assume.monotone
        and gf is ff
        and isinstance(g, App)
        and isinstance(f, App)
        and len(g.args) == 1
        and len(f.args) == 1
    ):
        small = as_multiset(f.args[0])
        big = as_multiset(g.args[0])
        if all(big.get(u, 0) >= c for u, c in small.items()) and sum(
            big.values()
        ) > sum(small.values()):
            return True
    return False


def _saturating_match(small: dict, big: dict, dominates) -> list | None:
    """Injective assignment of every instance in `small` to a dominating
    instance in `big`; None when impossible.  Capacitated bipartite matching
    by augmenting paths."""
    small_terms = list(small)
    big_terms = list(big)
    edges = {
        s: [b for b in big_terms if dominates(b, s)] for s in small_terms
    }
    flow = {(s, b): 0 for s in small_terms for b in edges[s]}
    used = {b: 0 for b in big_terms}

    def augment(s, visited) -> bool:
        for b in edges[s]:
            if b in visited:
                continue
            visited.add(b)
            if used[b] < big[b]:
                flow[(s, b)] += 1
                used[b] += 1
                return True
            for s2 in small_terms:
                if flow.get((s2, b), 0) > 0 and augment(s2, visited):
                    flow[(s2, b)] -= 1
                    flow[(s, b)] += 1
                    return True
        return False

    for s in small_terms:
        for _ in range(small[s]):
            if not augment(s, set()):
                return None
    return [(s, b) for (s, b), n in flow.items() if n > 0]


def compare(a: CostExpr, b: CostExpr, assume: AssumptionSet = DEFAULT_ASSUMPTIONS) -> CompareResult:
    """Decide the order of two simplified cost expressions.

    Pipeline: cancel structurally equal terms, expand additivity on the
    residuals, cancel again, drop overhead when assumed insignificant, then
    discharge what remains through dominance or monotone subsumption.
    Returns Indeterminate rather than guessing.
    """
    trace: list[str] = []
    left = {term: mult for term, mult in simplify(a).terms}
    right = {term: mult for term, mult in simplify(b).terms}

    _cancel(left, right, trace, "cancel")
    left = _expand(left.items(), trace, "left")
    right = _expand(right.items(), trace, "right")
    _cancel(left, right, trace, "cancel")

    if assume.ignore_overhead:
        for side, label in ((left, "left"), (right, "right")):
            for term in [t for t in side if isinstance(t, Overhead)]:
                trace.append(
                    f"drop overhead ({label}): {render_cost_term(term, side[term])}"
                )
                del side[term]

    verdict = _decide(left, right, assume, trace)
    trace.append(f"verdict: {verdict.value}")
    return CompareResult(verdict, _to_expr(left), _to_expr(right), tuple(trace))


def _decide(left: dict, right: dict, assume: AssumptionSet, trace: list[str]) -> Verdict:
    if not left and not right:
        return Verdict.EQUAL
    if any(isinstance(t, Overhead) for t in left) or any(
        isinstance(t, Overhead) for t in right
    ):
        trace.append("overhead residue cannot be discharged")
        return Verdict.INDETERMINATE
    closure = assume.closure()

    def dominates(g, f):
        return _strictly_dominates(g, f, assume, closure)

    if not left:
        trace.append("left residual empty; right residual is strictly positive")
        return Verdict.LESS
    if not right:
        trace.append("right residual empty; left residual is strictly positive")
        return Verdict.GREATER
    match = _saturating_match(left, right, dominates)
    if match is not None:
        for s, b in match:
            trace.append(f"dominance: {render_cost_term(s)} < {render_cost_term(b)}")
        return Verdict.LESS
    match = _saturating_match(right, left, dominates)
    if match is not None:
        for s, b in match:
            trace.append(f"dominance: {render_cost_term(s)} > {render_cost_term(b)}")
        return Verdict.GREATER
    return Verdict.INDETERMINATE
