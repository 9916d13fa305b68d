"""Symbolic operation costs: construction, simplification, additivity
expansion, numeric evaluation, and assumption-driven comparison.

A cost expression is an ordered multiset of cost terms: applications of the
per-operation cost functions, the concatenation and processing constants L_C
and L_P, and signed overhead constants Ov_h.  Canonical order groups terms
as: applications to a single type size, L_C, remaining applications without
S_hash in the argument, applications with S_hash, L_P, overhead; ties break
by the function enumeration, then first occurrence.

Cost terms are hash-consed like terms and size expressions (see `terms`):
equal cost terms are one object, so merging, cancelling and expanding key
dicts on them by identity, and simplifying a simplified expression gives
back the terms it was given.  `compare` records its steps as data and
renders them into the trace only when `CompareResult.trace` is read.
"""

from __future__ import annotations

import enum
from functools import cache

from .sizes import (
    SizeModel,
    Sum,
    TypeSize,
    contains_hash,
    delta,
    eval_size,
    normalize,
    render_size,
)
from .strands import OPS, Classifier, CostFunc, StrandSpace, TStrand, validate_op_strand
from .terms import Value, _hash_consed


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


class CostTerm(Value):
    __slots__ = ()


@_hash_consed
class App(CostTerm):
    __slots__ = {"func": "a CostFunc", "args": "a tuple of SizeExprs"}

    def _check(self):
        want = 2 if self.func is CostFunc.F_C else 1
        if len(self.args) != want:
            raise ValueError(f"{self.func.value} takes {want} argument(s)")


# L_C and L_P are the flat constants f_c and f_p fold into.  Each names the
# function it folds as a class attribute, not a field, so evaluation and
# dominance treat a folded term and a raw application alike.
@_hash_consed
class LambdaC(CostTerm):
    __slots__ = ()
    func = CostFunc.F_C


@_hash_consed
class LambdaP(CostTerm):
    __slots__ = ()
    func = CostFunc.F_P


_FOLDED = {cls.func: cls() for cls in (LambdaC, LambdaP)}


@_hash_consed
class Overhead(CostTerm):
    __slots__ = {"sign": "+1 or -1"}
    func = None  # no function applied

    def _check(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


@_hash_consed
class CostExpr(Value):
    __slots__ = {"terms": "a tuple of distinct (CostTerm, multiplicity >= 1) pairs"}

    def _check(self):
        if any(mult < 1 for _, mult in self.terms):
            raise ValueError("multiplicities must be positive")
        if len({term for term, _ in self.terms}) != len(self.terms):
            raise ValueError("terms must be distinct")


def _merged(items) -> dict:
    merged: dict[CostTerm, int] = {}
    for item in items:
        term, mult = item if isinstance(item, tuple) else (item, 1)
        if mult == 0:
            continue
        merged[term] = merged.get(term, 0) + mult
    return merged


def cost_expr(items) -> CostExpr:
    """Merge (term, multiplicity) or bare terms in first-occurrence order."""
    return CostExpr(tuple(_merged(items).items()))


def _item_key(item: tuple):
    """Canonical-order key of a (term, multiplicity) pair."""
    term = item[0]
    if isinstance(term, App):
        rank = _FUNC_RANK[term.func]
        arg = term.args[0]  # f_c and f_p are folded before ordering
        if isinstance(arg, TypeSize):
            return (0, rank)
        return (3 if contains_hash(arg) else 2, rank)
    if isinstance(term, LambdaC):
        return (1, -1)
    if isinstance(term, LambdaP):
        return (4, -1)
    return (5, -term.sign)


def _canonical(items) -> CostExpr:
    return CostExpr(tuple(sorted(_merged(items).items(), key=_item_key)))


def cost_of_space(space: StrandSpace) -> CostExpr:
    """Raw cost of a participant's typed-strand space.

    Each operation strand contributes the cost term of its `strands.OPS`
    row, the row's cost function applied to the sizes of the payloads at
    its sized positions, and one processing term f_p per positive node it
    carries.  Process strands are free.  Operation terms come first (strand
    order), then processing terms.

    One strand object may stand at several positions of a space, as
    `extract`'s operations of one shape do.  Each strand object is
    validated and priced once, with its number of positions as
    multiplicity, and every typed subterm is sized once per call.
    `cost_expr` merges equal terms at their first position, so the result
    equals pricing strand by strand.
    """
    groups: dict[TStrand, int] = {}  # strand -> its number of positions
    for s in space.strands:
        if not isinstance(s, TStrand):
            raise TypeError(f"not a typed strand: {s!r}")
        if s.classifier is Classifier.C_P:
            continue
        if s not in groups:
            validate_op_strand(s)
            groups[s] = 0
        groups[s] += 1
    memo: dict = {}
    ops = []
    procs: dict = {}  # positive typed payload -> count
    for s, n in groups.items():
        ops.append((_op_cost(s, memo), n))
        for ev in s.seq:
            if ev.sign > 0:
                procs[ev.payload] = procs.get(ev.payload, 0) + n
    return cost_expr(
        ops + [(App(CostFunc.F_P, (delta(t, memo),)), n) for t, n in procs.items()]
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
            folded = _FOLDED.get(term.func)
            if folded is not None:
                term = folded
            else:
                term = App(term.func, tuple(map(normalize, term.args)))
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
    k = sum(coeff for coeff, _ in arg.items)
    if k < 2:
        return None
    parts: list[tuple[CostTerm, int]] = [
        (App(term.func, (unit,)), coeff) for coeff, unit in arg.items
    ]
    parts.append((Overhead(-1), k - 1))
    return parts


def _expand(terms, steps: list, label: str) -> dict:
    """Apply `expand_one` to every term, merging the results in
    first-occurrence order; each rewrite is recorded in `steps`."""
    out: dict = {}
    for term, mult in terms:
        parts = expand_one(term) if isinstance(term, App) else None
        if parts is None:
            out[term] = out.get(term, 0) + mult
            continue
        steps.append(("expand", label, term, parts))
        for t, m in parts:
            out[t] = out.get(t, 0) + m * mult
    return out


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


class Affine:
    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        if alpha < 0 or beta < 0:
            raise ValueError("affine coefficients must be nonnegative")
        self.alpha = alpha
        self.beta = beta

    def __call__(self, x: float) -> float:
        return self.alpha + self.beta * x


@_hash_consed
class AssumptionSet(Value):
    __slots__ = ("ignore_overhead", "dominance", "max_bytes")
    _defaults = (True, ((CostFunc.F_PK, CostFunc.F_H), (CostFunc.F_PK, CostFunc.F_SK)),
                 4096.0)

    def _check(self):
        if any(g is f for g, f in self.closure()):
            raise ValueError("dominance must be irreflexive and acyclic")
        if not self.max_bytes > 0:
            raise ValueError("max_bytes must be positive")

    def closure(self) -> frozenset:
        return _transitive_closure(self.dominance)


@cache
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


class CostModel:
    __slots__ = ("funcs", "lambda_c", "lambda_p", "ov_h", "size_model")

    def __init__(self, funcs: dict, lambda_c: float, lambda_p: float, ov_h: float,
                 size_model: SizeModel):
        if set(funcs) != set(EXPANDABLE):
            raise ValueError("funcs must cover exactly the size-dependent functions")
        if lambda_c < 0 or lambda_p < 0 or ov_h < 0:
            raise ValueError("constants must be nonnegative")
        self.funcs = funcs  # CostFunc -> Affine, for the six size-dependent functions
        self.lambda_c = lambda_c
        self.lambda_p = lambda_p
        self.ov_h = ov_h
        self.size_model = size_model


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
    __hash__ = object.__hash__  # members are singletons; see terms.AtomKind

    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INDETERMINATE = "Indeterminate"


_VERDICT_OP = {
    Verdict.LESS: "<",
    Verdict.GREATER: ">",
    Verdict.EQUAL: "=",
    Verdict.INDETERMINATE: "?",
}


def _render_step(step: tuple) -> str:
    """One trace line from a step `compare` recorded: a kind, then data."""
    kind = step[0]
    if kind == "cancel":
        return f"cancel: {render_cost_term(step[1], step[2])}"
    if kind == "expand":
        _, label, term, parts = step
        units = " + ".join(render_cost_term(t, m) for t, m in parts[:-1])
        return (
            f"expand {label}: {render_cost_term(term)} -> {units} - "
            f"{render_cost_term(*parts[-1])}"
        )
    if kind == "drop overhead":
        _, label, term, mult = step
        return f"drop overhead ({label}): {render_cost_term(term, mult)}"
    if kind == "residue":
        return "overhead residue cannot be discharged"
    if kind == "empty":
        full = "right" if step[1] == "left" else "left"
        return f"{step[1]} residual empty; {full} residual is strictly positive"
    if kind == "dominance":
        _, first, op, second = step
        return f"dominance: {render_cost_term(first)} {op} {render_cost_term(second)}"
    if kind == "verdict":
        return f"verdict: {step[1].value}"
    raise ValueError(f"unknown trace step {kind!r}")


class CompareResult:
    __slots__ = ("verdict", "left_residual", "right_residual", "_steps")

    def __init__(self, verdict, left_residual, right_residual, steps):
        self.verdict = verdict
        self.left_residual = left_residual
        self.right_residual = right_residual
        self._steps = steps  # what `compare` did, rendered by `trace`

    @property
    def trace(self) -> tuple[str, ...]:
        """The steps `compare` took, one line each, rendered on every read."""
        return tuple(map(_render_step, self._steps))

    def residual_line(self) -> str:
        op = _VERDICT_OP[self.verdict]
        return f"{render_cost(self.left_residual)} {op} {render_cost(self.right_residual)}"


def _cancel(left: dict, right: dict, steps: list):
    for term in list(left):
        if term in right:
            mult = min(left[term], right[term])
            steps.append(("cancel", term, mult))
            left[term] -= mult
            right[term] -= mult
            if left[term] == 0:
                del left[term]
            if right[term] == 0:
                del right[term]


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
    discharge what remains through dominance between functions.  Returns
    Indeterminate rather than guessing.

    Each step is recorded as a tuple, its kind first ("cancel", "expand",
    "drop overhead", "residue", "empty", "dominance", "verdict") and then
    the terms it concerns; `CompareResult.trace` renders them to text when
    read, so a caller that reads only the verdict pays for no rendering.
    """
    steps: list[tuple] = []
    left = dict(simplify(a).terms)
    right = dict(simplify(b).terms)

    _cancel(left, right, steps)
    left = _expand(left.items(), steps, "left")
    right = _expand(right.items(), steps, "right")
    _cancel(left, right, steps)

    if assume.ignore_overhead:
        for side, label in ((left, "left"), (right, "right")):
            for term in [t for t in side if isinstance(t, Overhead)]:
                steps.append(("drop overhead", label, term, side.pop(term)))

    verdict = _decide(left, right, assume, steps)
    steps.append(("verdict", verdict))
    return CompareResult(
        verdict, _canonical(left.items()), _canonical(right.items()), tuple(steps)
    )


def _decide(left: dict, right: dict, assume: AssumptionSet, steps: list) -> Verdict:
    if not left and not right:
        return Verdict.EQUAL
    if any(isinstance(t, Overhead) for t in left) or any(
        isinstance(t, Overhead) for t in right
    ):
        steps.append(("residue",))
        return Verdict.INDETERMINATE
    closure = assume.closure()

    def dominates(g, f):
        # after expansion every argument is one unit or zero, so only
        # the functions can order two applications
        return (g.func, f.func) in closure

    if not left:
        steps.append(("empty", "left"))
        return Verdict.LESS
    if not right:
        steps.append(("empty", "right"))
        return Verdict.GREATER
    match = _saturating_match(left, right, dominates)
    if match is not None:
        steps.extend(("dominance", s, "<", b) for s, b in match)
        return Verdict.LESS
    match = _saturating_match(right, left, dominates)
    if match is not None:
        # left terms dominate, and each line reads in residual order
        steps.extend(("dominance", b, ">", s) for s, b in match)
        return Verdict.GREATER
    return Verdict.INDETERMINATE
