"""Memo-free reference evaluation for the differential tests.

`naive_eval_terms` is a copy of `_eval_terms` before cost models kept a
table of values, with the affine step `Affine.__call__` did written out:
every call walks every term's size expression again.  `naive_eval_size`
is a copy of `eval_size`, so that the reference does not change when the
library does.  They are kept only so that tests can require the library's
evaluation to return exactly the same floats.
"""

from __future__ import annotations

import math

from spa.costs import CostFunc
from spa.sizes import AsymSize, HashSize, Sum, TypeSize


def naive_eval_size(e, model) -> float:
    if isinstance(e, TypeSize):
        return float(model.sizes[e.tt])
    if isinstance(e, HashSize):
        return float(model.s_hash)
    if isinstance(e, AsymSize):
        x = naive_eval_size(e.arg, model)
        return math.ceil((x + model.pad) / model.blk_in) * model.blk_out
    if isinstance(e, Sum):
        return float(sum(coeff * naive_eval_size(unit, model) for coeff, unit in e.items))
    raise TypeError(f"not a size expression: {e!r}")


def naive_eval_terms(terms, model) -> float:
    """Value of (term, multiplicity) pairs under `model`."""
    total = 0.0
    for term, mult in terms:
        func = term.func
        if func is CostFunc.F_C:
            value = model.lambda_c
        elif func is CostFunc.F_P:
            value = model.lambda_p
        elif func is None:
            value = term.sign * model.ov_h
        else:
            f = model.funcs[func]
            value = f.alpha + f.beta * naive_eval_size(term.args[0], model.size_model)
        total += mult * value
    return total


def naive_eval_cost(e, model) -> float:
    return naive_eval_terms(e.terms, model)
