"""Symbolic sizes of typed terms and their numeric evaluation.

A size expression is a type-size symbol (|r|, |n|, |k|, |m|), the hash output
constant S_hash, an asymmetric-ciphertext application S_asym(x), or a flat
coefficient-weighted sum of those units.  Every `Sum` is in normal form,
which its constructor checks: integer coefficients of at least 1 that never
increase, distinct units that are not sums, and never a single unit with
coefficient 1 (that is the bare unit).  The empty sum is size zero; no
typed term has it, as a hash's empty key slot is not a term (see `terms`).
`ssum` builds the normal form of any sum, ordering units by descending
coefficient with first-occurrence ties.

Size expressions are hash-consed like terms (see `terms`): equal size
expressions are one object, so they hash and compare by identity.

`delta` keeps each typed term's size on the term (`TTerm._size`), so a
typed term is sized once while it lives, whoever asks: pricing is linear
in the distinct subterms of a space rather than quadratic in nesting
depth.  A size lives as long as its typed term.

A `SizeModel` is hash-consed too, and keeps a read-only copy of the type
sizes it is given.  It also keeps the value of each of its ten units, |r|,
|n|, |k|, |m|, S_hash and S_asym of each of those, filled by `eval_size`
the first time it values that unit and never at construction; S_asym of
a sum or of another S_asym is computed each time.  `eval_size` runs when a
cost model values an application for the first time, and the cost model
keeps that value.
"""

from __future__ import annotations

import math
import sys

from .terms import Basic, BasicTT, FuncName, TEnc, TPair, TTerm, Value

_set_size = TTerm._size.__set__
_BASIC_TYPES = frozenset(BasicTT)  # the keys of every SizeModel's sizes
_FLOAT_MAX = sys.float_info.max


def _in_range(numbers, positive: bool) -> bool:
    """Whether every number is positive (nonnegative unless `positive`) and
    at most the largest float: NaN, inf and an int beyond a float fail."""
    return all((0 < x if positive else 0 <= x) and x <= _FLOAT_MAX for x in numbers)


class SizeExpr(Value):
    __slots__ = ()


class TypeSize(SizeExpr):
    __slots__ = {"tt": BasicTT}


class HashSize(SizeExpr):
    __slots__ = {}


class AsymSize(SizeExpr):
    __slots__ = {"arg": SizeExpr}


class Sum(SizeExpr):
    __slots__ = {"items": tuple[tuple[int, SizeExpr], ...]}

    def _check(self):
        # a lone unit with coefficient 1 is the bare unit, not a sum
        low = 2 if len(self.items) == 1 else 1
        top = None  # the coefficient before this one
        units = set()
        for coeff, unit in self.items:
            if (
                not low <= coeff <= (top or coeff)
                or unit in units
                or isinstance(unit, Sum)
            ):
                raise ValueError(f"not a normal sum: {self.items!r}")
            top = coeff
            units.add(unit)


def ssum(parts) -> SizeExpr:
    """The normal form of the sum of size expressions (units keep
    first-occurrence order, sorted by descending coefficient; stable)."""
    merged: dict[SizeExpr, int] = {}
    for part in parts:
        if isinstance(part, Sum):
            for coeff, unit in part.items:
                merged[unit] = merged.get(unit, 0) + coeff
        else:
            merged[part] = merged.get(part, 0) + 1
    items = sorted(merged.items(), key=lambda kv: -kv[1])
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return Sum(tuple((coeff, unit) for unit, coeff in items))


def delta(t: TTerm) -> SizeExpr:
    """Symbolic size of a typed term, computed once and kept on the term."""
    try:
        return t._size
    except AttributeError:  # not sized yet, or not a typed term
        pass
    if isinstance(t, Basic):
        e = TypeSize(t.tt)
    elif isinstance(t, TPair):
        e = ssum([delta(t.left), delta(t.right)])
    elif isinstance(t, TEnc):
        # symmetric ciphertexts are as large as their cleartext, digests are
        # constant, asymmetric ciphertexts an opaque function of the cleartext
        if t.func is FuncName.SK:
            e = delta(t.body)
        elif t.func is FuncName.H:
            e = HashSize()
        else:
            e = AsymSize(delta(t.body))
    else:
        raise TypeError(f"not a typed term: {t!r}")
    _set_size(t, e)
    return e


def contains_hash(e: SizeExpr) -> bool:
    if isinstance(e, HashSize):
        return True
    if isinstance(e, AsymSize):
        return contains_hash(e.arg)
    if isinstance(e, Sum):
        return any(contains_hash(unit) for _, unit in e.items)
    return False


def render_size(e: SizeExpr) -> str:
    if isinstance(e, TypeSize):
        return f"|{e.tt.value}|"
    if isinstance(e, HashSize):
        return "S_hash"
    if isinstance(e, AsymSize):
        return f"S_asym({render_size(e.arg)})"
    if isinstance(e, Sum):
        if not e.items:
            return "0"
        parts = []
        for coeff, unit in e.items:
            text = render_size(unit)
            parts.append(text if coeff == 1 else f"{coeff}{text}")
        return " + ".join(parts)
    raise TypeError(f"not a size expression: {e!r}")


class _Valued(Value):
    # a size model's table of unit values, set empty when the model is first
    # built: not a field, as `costs._Priced._values`
    __slots__ = ("_units",)


_set_units = _Valued._units.__set__


class SizeModel(_Valued):
    """The type sizes, the hash size and the asymmetric block layout that
    size expressions are valued under.  It keeps the value of each of its
    ten units that `eval_size` has met, at most ten entries, which live and
    die with the model: equal models, copies and pickles share them."""

    __slots__ = {"sizes": dict[BasicTT, (int, float)], "s_hash": (int, float),
                 "blk_in": (int, float), "blk_out": (int, float), "pad": (int, float)}

    def _check(self):
        if set(self.sizes) != _BASIC_TYPES:
            raise ValueError("sizes must cover r, n, k, m")
        if not _in_range([*self.sizes.values(), self.s_hash, self.blk_in, self.blk_out,
                          self.pad], positive=True):
            raise ValueError("size-model values must be finite and positive")
        if self.blk_in <= self.pad:
            raise ValueError("blk_in must exceed pad")
        _set_units(self, {})  # unit -> value, filled by `eval_size`


def eval_size(e: SizeExpr, model: SizeModel) -> float:
    """The value of a size expression under `model`.  A sum is valued in one
    pass over its items, each unit read from the model's table, or valued
    and kept there when first met; anything that is not a size expression
    is refused, as `render_size` refuses it."""
    values = model._units
    if isinstance(e, Sum):
        parts = []
        for coeff, unit in e.items:
            value = values.get(unit)
            parts.append(coeff * (eval_size(unit, model) if value is None else value))
        # `sum`, not a loop of +=: from Python 3.12 it compensates float
        # rounding, and every value must stay the one it was
        return float(sum(parts))
    # a unit valued before; what is not a size expression is never looked
    # up, so a list or a dict is refused below, not found unhashable
    if isinstance(e, SizeExpr) and (value := values.get(e)) is not None:
        return value
    if isinstance(e, TypeSize):
        value = float(model.sizes[e.tt])
    elif isinstance(e, HashSize):
        value = float(model.s_hash)
    elif isinstance(e, AsymSize):
        blocks = (eval_size(e.arg, model) + model.pad) / model.blk_in
        # math.ceil raises on an infinite block count (a huge argument or a
        # tiny blk_in); the size is then infinite, as a sum of sizes that
        # overflows a float is, so `eval_cost` returns inf for both
        value = (blocks if math.isinf(blocks) else float(math.ceil(blocks))) * model.blk_out
        if isinstance(e.arg, (Sum, AsymSize)):  # not a unit: the table stays at ten
            return value
    else:
        raise TypeError(f"not a size expression: {e!r}")
    values[e] = value
    return value
