"""Symbolic sizes of typed terms and their numeric evaluation.

A size expression is a type-size symbol (|r|, |n|, |k|, |m|), the hash output
constant S_hash, an asymmetric-ciphertext application S_asym(x), or a flat
coefficient-weighted sum of those units.  Every `Sum` is in normal form,
which its constructor checks: integer coefficients of at least 1 that never
increase, distinct units that are not sums, and never a single unit with
coefficient 1 (that is the bare unit).  The empty sum is size zero.  `ssum`
builds the normal form of any sum, ordering units by descending coefficient
with first-occurrence ties.

Size expressions are hash-consed like terms (see `terms`): equal size
expressions are one object, so they hash and compare by identity.

`delta` takes an optional memo dict from typed terms to their sizes.  A
caller that sizes many terms sharing subterms passes one dict to every
call, so each distinct typed subterm is sized once: `cost_of_space` keeps
one per call, which makes pricing linear in the distinct subterms of a
space rather than quadratic in nesting depth.  No memo outlives its caller.
"""

from __future__ import annotations

import math

from .terms import Basic, BasicTT, FuncName, TEmpty, TEnc, TPair, TTerm, Value, _hash_consed


class SizeExpr(Value):
    __slots__ = ()


@_hash_consed
class TypeSize(SizeExpr):
    __slots__ = {"tt": "a BasicTT"}


@_hash_consed
class HashSize(SizeExpr):
    __slots__ = ()


@_hash_consed
class AsymSize(SizeExpr):
    __slots__ = {"arg": "a SizeExpr"}


@_hash_consed
class Sum(SizeExpr):
    __slots__ = {"items": "(coefficient, non-Sum unit) pairs, in normal form"}

    def _check(self):
        # a lone unit with coefficient 1 is the bare unit, not a sum
        low = 2 if len(self.items) == 1 else 1
        top = None  # the coefficient before this one
        units = set()
        for coeff, unit in self.items:
            if (
                type(coeff) is not int
                or not low <= coeff <= (top or coeff)
                or unit in units
                or isinstance(unit, Sum)
            ):
                raise ValueError(f"not a normal sum: {self.items!r}")
            top = coeff
            units.add(unit)


ZERO = Sum(())


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
    if not items:
        return ZERO
    if len(items) == 1 and items[0][1] == 1:
        return items[0][0]
    return Sum(tuple((coeff, unit) for unit, coeff in items))


def delta(t: TTerm, memo: dict | None = None) -> SizeExpr:
    """Symbolic size of a typed term.

    `memo`, when given, maps typed terms already sized to their sizes and is
    extended with every subterm sized here.
    """
    if memo is not None:
        e = memo.get(t)
        if e is not None:
            return e
    if isinstance(t, TEmpty):
        e = ZERO
    elif isinstance(t, Basic):
        e = TypeSize(t.tt)
    elif isinstance(t, TPair):
        e = ssum([delta(t.left, memo), delta(t.right, memo)])
    elif isinstance(t, TEnc):
        # symmetric ciphertexts are as large as their cleartext, digests are
        # constant, asymmetric ciphertexts an opaque function of the cleartext
        if t.func is FuncName.SK:
            e = delta(t.body, memo)
        elif t.func is FuncName.H:
            e = HashSize()
        else:
            e = AsymSize(delta(t.body, memo))
    else:
        raise TypeError(f"not a typed term: {t!r}")
    if memo is not None:
        memo[t] = e
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


class SizeModel:
    __slots__ = ("sizes", "s_hash", "blk_in", "blk_out", "pad")

    def __init__(self, sizes: dict, s_hash: float, blk_in: float, blk_out: float, pad: float):
        if set(sizes) != set(BasicTT):
            raise ValueError("sizes must cover r, n, k, m")
        values = list(sizes.values()) + [s_hash, blk_in, blk_out, pad]
        if any(v <= 0 for v in values):
            raise ValueError("size-model values must be positive")
        if blk_in <= pad:
            raise ValueError("blk_in must exceed pad")
        self.sizes = sizes  # BasicTT -> bytes
        self.s_hash = s_hash
        self.blk_in = blk_in
        self.blk_out = blk_out
        self.pad = pad


def eval_size(e: SizeExpr, model: SizeModel) -> float:
    if isinstance(e, TypeSize):
        return float(model.sizes[e.tt])
    if isinstance(e, HashSize):
        return float(model.s_hash)
    if isinstance(e, AsymSize):
        x = eval_size(e.arg, model)
        return math.ceil((x + model.pad) / model.blk_in) * model.blk_out
    if isinstance(e, Sum):
        return float(sum(coeff * eval_size(unit, model) for coeff, unit in e.items))
    raise TypeError(f"not a size expression: {e!r}")
