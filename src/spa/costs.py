"""Symbolic operation costs: construction, simplification, additivity
expansion, numeric evaluation, and assumption-driven comparison.

A cost expression is an ordered multiset of cost terms: applications of the
per-operation cost functions, the concatenation and processing constants L_C
and L_P, and signed overhead constants Ov_h.  Canonical order groups terms
as: applications to a single type size, L_C, remaining applications without
S_hash in the argument, applications with S_hash, L_P, overhead; ties break
by the function enumeration, then first occurrence.  Each cost term stores
its order key in `_order` when it is first built, so sorting reads it.

Cost terms are hash-consed like terms and size expressions (see `terms`):
equal cost terms are one object, so merging, cancelling and expanding key
dicts on them by identity, and simplifying a simplified expression gives
back the terms it was given without rebuilding any.  `compare` builds no
`CostExpr`: it decides dominance by a matching on per-function counts and
keeps that matching and its steps as data.  Its `CompareResult` builds the
residuals and the trace, whose term pairs it reads off the matching, when
first read, and keeps them.

A `CostModel`, like its `Affine` prices and its `SizeModel`, is
hash-consed, and keeps a table from cost term to value.
`eval_cost` values each distinct term once per model, the first time it
meets it, and reads the table after that, so `spa eval`'s per-term lines
and a pair of sides that share terms cost one valuation per term.  Equal
models are one object and share one table, which lives and dies with the
model; nothing is kept at module level.  It keeps the terms it holds
alive, at most `_TABLE_LIMIT` of them: a full table is emptied and fills
again.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cached_property
from operator import attrgetter

from .sizes import (SizeExpr, SizeModel, Sum, TypeSize, _in_range, contains_hash, delta,
                    eval_size, render_size)
from .strands import OPS, Classifier, CostFunc, StrandSpace, TStrand
from .terms import Value, _IdentityEnum


_FUNC_RANK = {f: i for i, f in enumerate(CostFunc)}
# every order key an application can take, built once: terms share them, so
# storing a term's key allocates nothing
_APP_ORDER = {(group, f): (group, rank) for group in (0, 2, 3) for f, rank in _FUNC_RANK.items()}
_ORDER = attrgetter("_order")


class CostTerm(Value):
    # the canonical-order key, set once when the term is first built: not a
    # field, so it neither keys the table nor pickles
    __slots__ = ("_order",)


_set_order = CostTerm._order.__set__


class App(CostTerm):
    __slots__ = {"func": CostFunc, "args": tuple[SizeExpr, ...]}

    def _check(self):
        want = 2 if self.func is CostFunc.F_C else 1
        if len(self.args) != want:
            raise ValueError(f"{self.func.value} takes {want} argument(s)")
        folded = _FOLDED.get(self.func)
        if folded is not None:  # f_c and f_p are folded before any sort
            _set_order(self, folded._order)
            return
        arg = self.args[0]
        group = 0 if isinstance(arg, TypeSize) else 3 if contains_hash(arg) else 2
        _set_order(self, _APP_ORDER[group, self.func])


# L_C and L_P are the flat constants f_c and f_p fold into.  Each names the
# function it folds as a class attribute, not a field, so evaluation and
# dominance treat a folded term and a raw application alike.
class LambdaC(CostTerm):
    __slots__ = {}
    func = CostFunc.F_C
    _order = (1, -1)


class LambdaP(CostTerm):
    __slots__ = {}
    func = CostFunc.F_P
    _order = (4, -1)


_FOLDED = {cls.func: cls() for cls in (LambdaC, LambdaP)}

# the size-dependent functions, whose argument obeys the additivity law and
# which key every CostModel's funcs; in enumeration order, which seeded
# draws over them rely on
EXPANDABLE = tuple(f for f in CostFunc if f not in _FOLDED)
_EXPANDABLE = frozenset(EXPANDABLE)


class Overhead(CostTerm):
    __slots__ = {"sign": int}  # +1 or -1
    func = None  # no function applied

    def _check(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        _set_order(self, (5, -self.sign))


_MINUS_OV = Overhead(-1)  # what each expansion leaves behind


class CostExpr(Value):
    __slots__ = {"terms": tuple[tuple[CostTerm, int], ...]}

    def _check(self):
        if any(mult < 1 for _, mult in self.terms):
            raise ValueError("multiplicities must be positive")
        if len({term for term, _ in self.terms}) != len(self.terms):
            raise ValueError("terms must be distinct")


def cost_expr(items) -> CostExpr:
    """Merge (term, multiplicity) or bare terms in first-occurrence order."""
    merged: dict[CostTerm, int] = {}
    for item in items:
        term, mult = item if isinstance(item, tuple) else (item, 1)
        if type(mult) is not int:  # 0.0 would be skipped, and True merged as 1
            raise TypeError(f"cost_expr multiplicities must be int, not {type(mult).__name__}")
        if mult == 0:
            continue
        merged[term] = merged.get(term, 0) + mult
    return CostExpr(tuple(merged.items()))


def cost_of_space(space: StrandSpace) -> CostExpr:
    """Raw cost of a participant's typed-strand space.

    Each operation strand contributes the cost term of its `strands.OPS`
    row, the row's cost function applied to the sizes of the payloads at
    its sized positions, and one processing term f_p per positive node it
    carries.  Process strands are free.  Operation terms come first (strand
    order), then processing terms.

    One strand object may stand at several positions of a space, as
    `extract`'s operations of one shape do.  Each strand object is priced
    once, with its number of positions as multiplicity, and its shape was
    checked when it was built; `sizes.delta` sizes each typed term once
    while it lives.  Equal terms merge at their first position, so the
    result equals pricing strand by strand.
    """
    terms: dict[CostTerm, int] = {}
    procs: dict = {}  # positive typed payload -> count
    # Counter keeps first-occurrence order
    for s, n in Counter(space.strands).items():
        if not isinstance(s, TStrand):
            raise TypeError(f"not a typed strand: {s!r}")
        if s.classifier is Classifier.C_P:
            continue
        op = OPS[s.classifier]
        term = App(op.cost, tuple([delta(s.seq[i - 1].payload) for i in op.sized]))
        terms[term] = terms.get(term, 0) + n
        for ev in s.seq:
            if ev.sign > 0:
                procs[ev.payload] = procs.get(ev.payload, 0) + n
    for t, n in procs.items():
        term = App(CostFunc.F_P, (delta(t),))
        terms[term] = terms.get(term, 0) + n
    return CostExpr(tuple(terms.items()))


def simplify(e: CostExpr) -> CostExpr:
    """Fold concatenation and processing applications into their constants,
    merge like terms, order canonically."""
    return CostExpr(tuple(_simplified(e.terms).items()))


def _simplified(terms) -> dict:
    """`simplify`'s terms as a dict in canonical order, built without a
    `CostExpr`.  Arguments are normal sums already (see `sizes.Sum`), so
    no application is rebuilt."""
    merged: dict[CostTerm, int] = {}
    for term, mult in terms:
        term = _FOLDED.get(term.func, term)
        merged[term] = merged.get(term, 0) + mult
    return {term: merged[term] for term in sorted(merged, key=_ORDER)}


def _expand(terms, steps: list, label: str) -> dict:
    """The additivity law, f(a + b) = f(a) + f(b) - Ov_h, applied to every
    term: an application of an `EXPANDABLE` function to a sum of k units
    in all becomes one application per unit, with the unit's coefficient,
    and k - 1 times -Ov_h.  A lone unit, the empty sum and every other term
    pass through.  Results merge in first-occurrence order; each rewrite is
    recorded in `steps` as ("expand", label, term, parts)."""
    out: dict = {}
    for term, mult in terms:
        arg = term.args[0] if term.func in _EXPANDABLE else None
        if not isinstance(arg, Sum) or not arg.items:
            out[term] = out.get(term, 0) + mult
            continue
        parts = [(App(term.func, (unit,)), coeff) for coeff, unit in arg.items]
        parts.append((_MINUS_OV, sum(coeff for coeff, _ in arg.items) - 1))
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


class Affine(Value):
    """alpha + beta * size: the price of a size-dependent function."""

    __slots__ = {"alpha": (int, float), "beta": (int, float)}

    def _check(self):
        if not _in_range((self.alpha, self.beta), positive=False):
            raise ValueError("affine coefficients must be finite and nonnegative")


class _Dominance(Value):
    # the transitive closure of an assumption set's dominance pairs, set
    # once when the set is first built: not a field, as `CostTerm._order`
    __slots__ = ("_closure",)


_set_closure = _Dominance._closure.__set__


class AssumptionSet(_Dominance):
    __slots__ = {"ignore_overhead": bool, "dominance": tuple[tuple[CostFunc, CostFunc], ...],
                 "max_bytes": (int, float)}
    _defaults = (True, ((CostFunc.F_PK, CostFunc.F_H), (CostFunc.F_PK, CostFunc.F_SK)),
                 4096.0)

    def _check(self):
        closure = _transitive_closure(self.dominance)
        if any(g is f for g, f in closure):
            raise ValueError("dominance must be irreflexive and acyclic")
        if not _in_range((self.max_bytes,), positive=True):
            raise ValueError("max_bytes must be finite and positive")
        _set_closure(self, closure)

    def closure(self) -> frozenset:
        return self._closure


def _transitive_closure(pairs) -> frozenset:
    # Warshall; a path passes only through functions that some pair leads to
    closure = set(pairs)
    for k in {b for _, b in pairs}:
        into = [a for a, b in closure if b is k]
        closure.update([(a, d) for c, d in closure if c is k for a in into])
    return frozenset(closure)


DEFAULT_ASSUMPTIONS = AssumptionSet()


# Most terms a model's table holds.  A full table starts again, so a caller
# that keeps one model and prices ever new expressions keeps at most this
# many terms alive through it.
_TABLE_LIMIT = 4096


class _Priced(Value):
    # a cost model's table of values, set when the model is first built:
    # not a field, as `_Dominance._closure`
    __slots__ = ("_values",)


_set_values = _Priced._values.__set__


class CostModel(_Priced):
    """Prices of the cost functions, and the size model their arguments are
    valued under.  It keeps a table from each cost term it has valued to
    the value, which keeps that term alive while it is in the table: at
    most `_TABLE_LIMIT` terms, until the model dies."""

    __slots__ = {"funcs": dict[CostFunc, Affine], "lambda_c": (int, float),
                 "lambda_p": (int, float), "ov_h": (int, float), "size_model": SizeModel}

    def _check(self):
        if set(self.funcs) != _EXPANDABLE:
            raise ValueError("funcs must cover exactly the size-dependent functions")
        if not _in_range((self.lambda_c, self.lambda_p, self.ov_h), positive=False):
            raise ValueError("constants must be finite and nonnegative")
        _set_values(self, {})  # cost term -> value, filled by `_eval_terms`


def eval_cost(e: CostExpr, model: CostModel) -> float:
    return _eval_terms(e.terms, model)


def _eval_terms(terms, model: CostModel) -> float:
    """Value of (term, multiplicity) pairs under `model`: `eval_cost`'s rule,
    which `spa eval` also applies to each term on its own.  Each distinct
    term is valued once per model and kept in the model's table."""
    values = model._values
    total = 0.0
    for term, mult in terms:
        value = values.get(term)
        if value is None:  # first met under this model, or since its table filled
            if len(values) >= _TABLE_LIMIT:
                values.clear()
            func = term.func
            if func is CostFunc.F_C:
                value = model.lambda_c
            elif func is CostFunc.F_P:
                value = model.lambda_p
            elif func is None:
                value = term.sign * model.ov_h
            else:
                f = model.funcs[func]
                value = f.alpha + f.beta * eval_size(term.args[0], model.size_model)
            values[term] = value
        total += mult * value
    return total


class Verdict(_IdentityEnum):
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
    """What `compare` decided, and what it kept to explain it: its final
    working dicts, its recorded steps and `_decide`'s flow.  The residuals
    and the trace are cached properties, built on first read and kept."""

    def __init__(self, verdict, left: dict, right: dict, flow: dict, steps):
        self.verdict = verdict
        self._left = left  # the residual sides, term -> multiplicity
        self._right = right
        self._flow = flow  # `_decide`'s per-function matching, (lesser, greater) -> units
        self._steps = steps  # what `compare` did before dominance and the verdict

    @cached_property
    def left_residual(self) -> CostExpr:
        return CostExpr(tuple(_simplified(self._left.items()).items()))

    @cached_property
    def right_residual(self) -> CostExpr:
        return CostExpr(tuple(_simplified(self._right.items()).items()))

    @cached_property
    def trace(self) -> tuple[str, ...]:
        """The steps `compare` took, one line each.  A verdict that dominance
        decided adds its term pairs, read off `_decide`'s flow by `_hand_out`."""
        steps = list(self._steps)
        if self._flow:  # Less or Greater with both residuals nonempty
            left, right = self.left_residual.terms, self.right_residual.terms
            if self.verdict is Verdict.LESS:
                steps += [("dominance", s, "<", b) for s, b in _hand_out(self._flow, left, right)]
            else:  # left terms dominate, and each line reads in residual order
                steps += [("dominance", b, ">", s) for s, b in _hand_out(self._flow, right, left)]
        steps.append(("verdict", self.verdict))
        return tuple(map(_render_step, steps))

    def residual_line(self) -> str:
        op = _VERDICT_OP[self.verdict]
        return f"{render_cost(self.left_residual)} {op} {render_cost(self.right_residual)}"


def _hand_out(flow: dict, lesser: tuple, greater: tuple) -> dict:
    """The term pairs behind a per-function flow, in order of first use: each
    `(f, g): n` in flow order pairs the next n units of the lesser side's f
    terms with the next n of the greater side's g terms, in residual order."""
    queues = ({}, {})
    for side, queue in zip((lesser, greater), queues):
        for term, mult in side:
            queue.setdefault(term.func, deque()).append([term, mult])
    pairs = {}
    for (f, g), n in flow.items():
        small, big = queues[0][f], queues[1][g]
        while n:
            k = min(n, small[0][1], big[0][1])
            pairs[small[0][0], big[0][0]] = None
            n -= k
            for queue in small, big:
                queue[0][1] -= k
                if not queue[0][1]:
                    queue.popleft()
    return pairs


def _cancel(left: dict, right: dict, steps: list):
    for term in list(left):
        if term in right:
            mult = min(left[term], right[term])
            steps.append(("cancel", term, mult))
            for side in left, right:
                side[term] -= mult
                if not side[term]:
                    del side[term]


def _saturating_match(small: dict, big: dict, closure) -> dict | None:
    """Injective assignment of each instance in `small` to one in `big` that
    dominates it, `(b, s) in closure`: the flow `{(s, b): units > 0}`, or
    None when there is none.  Shortest augmenting paths from one small node
    at a time, each pushing its bottleneck (Edmonds and Karp), so the work
    does not grow with multiplicities; a node left with no path fails."""
    edges = {s: [b for b in big if (b, s) in closure] for s in small}
    flow = {(s, b): 0 for s in small for b in edges[s]}
    spare = dict(big)
    for s, units in small.items():
        while units:
            # breadth first over paths s, b1, s2, ..., b; b1 -> s2 is back along flow
            met_small, met_big, queue, path = {s}, set(), deque([(s,)]), None
            while queue and path is None:
                head = queue.popleft()
                for b in edges[head[-1]]:
                    if b not in met_big:
                        met_big.add(b)
                        if spare[b]:
                            path = head + (b,)
                            break
                        fed = [u for u in small if u not in met_small and flow.get((u, b))]
                        met_small.update(fed)
                        queue += [head + (b, u) for u in fed]
            if path is None:
                return None
            back = list(zip(path[2::2], path[1::2]))
            push = min(units, spare[path[-1]], *(flow[e] for e in back))
            for e in zip(path[::2], path[1::2]):
                flow[e] += push
            for e in back:
                flow[e] -= push
            spare[path[-1]] -= push
            units -= push
    return {pair: n for pair, n in flow.items() if n > 0}


def compare(a: CostExpr, b: CostExpr, assume: AssumptionSet = DEFAULT_ASSUMPTIONS) -> CompareResult:
    """Decide the order of two cost expressions, raw or simplified.

    Pipeline: canonicalize each side once, as `simplify` does; cancel
    structurally equal terms, expand additivity on the residuals, cancel
    again, drop overhead when assumed insignificant, then discharge what
    remains through dominance between functions.  Returns Indeterminate
    rather than guessing.

    Each step is recorded as a tuple, its kind first ("cancel", "expand",
    "drop overhead", "residue", "empty", "dominance", "verdict") and then
    the terms it concerns.  Dominance is decided on per-function counts;
    the residual `CostExpr`s and the trace, whose term pairs are read off
    that matching, are built only when `CompareResult` is asked for them.
    """
    steps: list[tuple] = []
    left = _simplified(a.terms)
    right = _simplified(b.terms)

    _cancel(left, right, steps)
    left = _expand(left.items(), steps, "left")
    right = _expand(right.items(), steps, "right")
    _cancel(left, right, steps)

    if assume.ignore_overhead:
        for side, label in ((left, "left"), (right, "right")):
            for term in [t for t in side if isinstance(t, Overhead)]:
                steps.append(("drop overhead", label, term, side.pop(term)))

    verdict, flow = _decide(left, right, assume.closure(), steps)
    return CompareResult(verdict, left, right, flow, steps)


def _per_func(side: dict) -> dict:
    """A side's multiplicities summed per cost function; overhead's under None."""
    counts: dict = {}
    for term, mult in side.items():
        counts[term.func] = counts.get(term.func, 0) + mult
    return counts


def _decide(left: dict, right: dict, closure, steps: list) -> tuple[Verdict, dict]:
    """The verdict on the residual sides, and the per-function flow that
    decided it by dominance, else {}.  After expansion every argument is one
    unit or zero, so only functions order two applications: terms of one
    function share their dominance edges, and a saturating match of terms
    exists exactly when one of per-function counts does (Hall's condition).
    The flow's keys are the dominance pairs the verdict used."""
    if not left and not right:
        return Verdict.EQUAL, {}
    lc, rc = _per_func(left), _per_func(right)
    if None in lc or None in rc:
        steps.append(("residue",))
        return Verdict.INDETERMINATE, {}
    if not left:
        steps.append(("empty", "left"))
        return Verdict.LESS, {}
    if not right:
        steps.append(("empty", "right"))
        return Verdict.GREATER, {}
    if (flow := _saturating_match(lc, rc, closure)) is not None:
        return Verdict.LESS, flow
    if (flow := _saturating_match(rc, lc, closure)) is not None:
        return Verdict.GREATER, flow
    return Verdict.INDETERMINATE, {}
