"""Memo-free, strand-by-strand reference pricing for the differential tests.

`naive_delta` is a copy of `delta` before it took a memo: every call
re-derives the size of every nested subterm, so pricing a list of k
components, whose k - 1 concatenations take nested inputs, costs O(k^2).
`naive_cost_of_space` is a copy of `cost_of_space` before it grouped
strands: one cost term per operation strand and one f_p term per positive
node, merged by `cost_expr`.  Both are kept only so that tests can require
the library's pricing to return the same cost expressions.
"""

from __future__ import annotations

from spa.costs import App, CostFunc, cost_expr
from spa.errors import ShapeViolation
from spa.sizes import AsymSize, HashSize, TypeSize, ssum
from spa.strands import Classifier, TStrand
from spa.terms import Basic, FuncName, TEnc, TPair


def naive_delta(t):
    """Symbolic size of a typed term."""
    if isinstance(t, Basic):
        return TypeSize(t.tt)
    if isinstance(t, TPair):
        return ssum([naive_delta(t.left), naive_delta(t.right)])
    if isinstance(t, TEnc):
        if t.func is FuncName.SK:
            return naive_delta(t.body)
        if t.func is FuncName.H:
            return HashSize()
        return AsymSize(naive_delta(t.body))
    raise TypeError(f"not a typed term: {t!r}")


def naive_cost_of_space(space):
    """Raw cost of a typed-strand space, priced strand by strand."""
    op_terms = []
    proc_terms = []
    for s in space.strands:
        if not isinstance(s, TStrand):
            raise TypeError(f"not a typed strand: {s!r}")
        if s.classifier is Classifier.C_P:
            continue
        s._check()  # its shape, checked again
        op_terms.append(_op_cost(s))
        for ev in s.seq:
            if ev.sign > 0:
                proc_terms.append(App(CostFunc.F_P, (naive_delta(ev.payload),)))
    return cost_expr(op_terms + proc_terms)


def _op_cost(s):
    c = s.classifier
    if c in (Classifier.C_E, Classifier.C_D):
        body = s.seq[0].payload.body if c is Classifier.C_D else s.seq[0].payload
        return App(CostFunc.F_SK, (naive_delta(body),))
    if c is Classifier.C_H:
        return App(CostFunc.F_H, (naive_delta(s.seq[0].payload),))
    if c in (Classifier.C_PK, Classifier.C_PVK):
        return App(CostFunc.F_PK, (naive_delta(s.seq[0].payload),))
    if c is Classifier.C_K:
        return App(CostFunc.F_KG, (naive_delta(s.seq[0].payload),))
    if c is Classifier.C_N:
        return App(CostFunc.F_NG, (naive_delta(s.seq[0].payload),))
    if c is Classifier.C_C:
        return App(CostFunc.F_C, (
            naive_delta(s.seq[0].payload), naive_delta(s.seq[1].payload),
        ))
    if c is Classifier.C_I:
        return App(CostFunc.F_S, (naive_delta(s.seq[0].payload),))
    raise ShapeViolation(f"cannot cost classifier {c.value}")
