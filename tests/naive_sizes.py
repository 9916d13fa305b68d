"""Memo-free reference sizing for the differential pricing tests.

A copy of `delta` before it took a memo: every call re-derives the size of
every nested subterm, so pricing a list of k components, whose k - 1
concatenations take nested inputs, costs O(k^2).  It is kept only so that
tests can require memoized pricing to return the same cost expressions.
"""

from __future__ import annotations

from spa import ZERO, AsymSize, Basic, FuncName, HashSize, TEmpty, TEnc, TPair, TypeSize, add


def naive_delta(t):
    """Symbolic size of a typed term."""
    if isinstance(t, TEmpty):
        return ZERO
    if isinstance(t, Basic):
        return TypeSize(t.tt)
    if isinstance(t, TPair):
        return add(naive_delta(t.left), naive_delta(t.right))
    if isinstance(t, TEnc):
        if t.func is FuncName.SK:
            return naive_delta(t.body)
        if t.func is FuncName.H:
            return HashSize()
        return AsymSize(naive_delta(t.body))
    raise TypeError(f"not a typed term: {t!r}")
