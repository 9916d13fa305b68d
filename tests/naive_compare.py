"""Eager reference comparator for the differential tests.

`naive_compare` is a copy of `compare` before it recorded its steps as
data: it renders every trace line as it goes, `naive_simplify` rebuilds
every application and sum it is given (normalizing through `ssum`), the
canonical order is the old key with its generic argument scan, and the
dominance closure is worked out again on every call.  It writes the
additivity law out again too: an application over a sum of k units in all
becomes one application per unit and Ov_h with multiplicity 1 - k, and an
Ov_h that merges to zero goes.  It cancels a term only where both sides
hold it with one sign, by the smaller magnitude.  It shares with
the library only merging (`cost_expr`), term rendering and the matching on
per-function counts (`_saturating_match`), which it must share for the two
traces' dominance pairs to be comparable.  It sums those counts itself,
and hands the flow out as term pairs unit by unit: each `(f, g): n` in flow
order pairs the next n copies of the lesser side's f terms with the next n
of the greater side's g terms, both in residual order, and a pair shows
once, where it is first used.  It is kept only so that tests can require
the library's `compare` to return the same verdict, residuals and trace.
"""

from __future__ import annotations

from spa.costs import (
    App,
    CostExpr,
    CostFunc,
    LambdaC,
    LambdaP,
    Overhead,
    Verdict,
    _FUNC_RANK,
    _saturating_match,
    _transitive_closure,
    cost_expr,
    render_cost_term,
)
from spa.sizes import Sum, TypeSize, contains_hash, ssum

_FOLD = {CostFunc.F_C: LambdaC(), CostFunc.F_P: LambdaP()}


def _term_key(term):
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
    return (5, 1)


def _canonical(items) -> CostExpr:
    merged = cost_expr(items)
    return CostExpr(tuple(sorted(merged.terms, key=lambda tm: _term_key(tm[0]))))


def naive_simplify(e: CostExpr) -> CostExpr:
    out = []
    for term, mult in e.terms:
        if isinstance(term, App):
            term = _FOLD.get(term.func) or App(
                term.func, tuple(ssum([a]) for a in term.args)
            )
        out.append((term, mult))
    return _canonical(out)


def _expand_all(terms, trace: list, label: str) -> dict:
    out: dict = {}
    for term, mult in terms:
        # f_c and f_p are folded by now: every application left is sized
        arg = term.args[0] if isinstance(term, App) else None
        k = sum(coeff for coeff, _ in arg.items) if isinstance(arg, Sum) else 0
        if k < 2:
            out[term] = out.get(term, 0) + mult
            continue
        parts = [(App(term.func, (unit,)), coeff) for coeff, unit in arg.items]
        units = " + ".join(render_cost_term(t, m) for t, m in parts)
        trace.append(
            f"expand {label}: {render_cost_term(term)} -> {units} - "
            f"{render_cost_term(Overhead(), k - 1)}"
        )
        for t, m in parts + [(Overhead(), 1 - k)]:
            out[t] = out.get(t, 0) + m * mult
    return {t: m for t, m in out.items() if m != 0}


def _cancel_equal(left: dict, right: dict, trace: list):
    for term in list(left):
        if term in right and (left[term] < 0) == (right[term] < 0):
            mult = min(abs(left[term]), abs(right[term]))
            trace.append(f"cancel: {render_cost_term(term, mult)}")
            if left[term] < 0:
                mult = -mult
            left[term] -= mult
            right[term] -= mult
            if left[term] == 0:
                del left[term]
            if right[term] == 0:
                del right[term]


def naive_compare(a: CostExpr, b: CostExpr, assume):
    """(verdict, left residual, right residual, trace) of comparing a and b."""
    trace: list[str] = []
    left = {term: mult for term, mult in naive_simplify(a).terms}
    right = {term: mult for term, mult in naive_simplify(b).terms}

    _cancel_equal(left, right, trace)
    left = _expand_all(left.items(), trace, "left")
    right = _expand_all(right.items(), trace, "right")
    _cancel_equal(left, right, trace)

    if assume.ignore_overhead:
        for side, label in ((left, "left"), (right, "right")):
            for term in [t for t in side if isinstance(t, Overhead)]:
                trace.append(
                    f"drop overhead ({label}): {render_cost_term(term, abs(side[term]))}"
                )
                del side[term]

    verdict = _verdict_of(left, right, assume, trace)
    trace.append(f"verdict: {verdict.value}")
    return (
        verdict,
        _canonical(list(left.items())),
        _canonical(list(right.items())),
        tuple(trace),
    )


def _verdict_of(left: dict, right: dict, assume, trace: list) -> Verdict:
    if not left and not right:
        return Verdict.EQUAL
    if any(isinstance(t, Overhead) for t in left) or any(
        isinstance(t, Overhead) for t in right
    ):
        trace.append("overhead residue cannot be discharged")
        return Verdict.INDETERMINATE
    closure = _transitive_closure(assume.dominance)
    if not left:
        trace.append("left residual empty; right residual is strictly positive")
        return Verdict.LESS
    if not right:
        trace.append("right residual empty; left residual is strictly positive")
        return Verdict.GREATER
    for verdict, small, big in ((Verdict.LESS, left, right), (Verdict.GREATER, right, left)):
        # expanded applications take one unit each: only functions compare
        flow = _saturating_match(_counts(small), _counts(big), closure)
        if flow is None:
            continue
        lesser, greater = _units(small), _units(big)
        pairs = []
        for (f, g), n in flow.items():
            for _ in range(n):
                pair = (lesser[f].pop(0), greater[g].pop(0))
                if pair not in pairs:
                    pairs.append(pair)
        for s, b in pairs:
            if verdict is Verdict.LESS:
                trace.append(f"dominance: {render_cost_term(s)} < {render_cost_term(b)}")
            else:
                trace.append(f"dominance: {render_cost_term(b)} > {render_cost_term(s)}")
        return verdict
    return Verdict.INDETERMINATE


def _counts(side: dict) -> dict:
    counts: dict = {}
    for term, mult in side.items():
        counts[term.func] = counts.get(term.func, 0) + mult
    return counts


def _units(side: dict) -> dict:
    """Per function, the side's terms in residual order, each repeated as
    often as its multiplicity."""
    units: dict = {}
    for term, mult in _canonical(list(side.items())).terms:
        units.setdefault(term.func, []).extend([term] * mult)
    return units
