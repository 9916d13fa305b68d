"""Term algebra: instance terms, typed terms, signed terms, type erasure.

Instance terms carry atom labels and encryption keys; typed terms keep only
the type structure (r, n, k, m).  Pairing is left-associative throughout:
(a, b, c) is Pair(Pair(a, b), c).  Hashing is Enc with func `h` and an empty
key slot so the encryption constructor stays uniform.

Terms are hash-consed process-wide: each class keeps a table from fields
to the live term with those fields, held weakly, and its constructor
returns that term when there is one.  Equal terms are one object, so
every term hash and comparison is by identity, at C level.  `_hash_consed`
is the one identity rule of the package: size expressions (`sizes`) and
cost terms (`costs`) are built through it too.
"""

from __future__ import annotations

import enum
import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, fields


class AtomKind(enum.Enum):
    # members are singletons, so identity hashing agrees with equality and
    # skips Enum.__hash__, a Python-level hash of the member name
    __hash__ = object.__hash__

    PARTICIPANT = "participant"
    NONCE = "nonce"
    KEY = "key"
    USERDATA = "data"


class FuncName(enum.Enum):
    __hash__ = object.__hash__  # see AtomKind

    SK = "sk"
    PK = "pk"
    PVK = "pvk"
    H = "h"


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# class -> {fields: _Ref to the live term with those fields}
_TABLES: dict[type, dict] = {}


class _Ref(weakref.ref):
    __slots__ = ("table", "key")


def _drop(ref: _Ref, remove=_remove_dead_weakref) -> None:
    # `remove` is bound here, since module teardown may clear the global
    # first.  It is the C helper WeakValueDictionary uses: it deletes the
    # entry only while it holds a dead reference, in one step, so it never
    # drops a term another thread built after this one died.
    remove(ref.table, ref.key)


def _hash_consed(cls):
    """Make constructing a term of cls return the live term with equal
    fields if there is one, so identity equality and `object.__hash__` are
    value equality and a hash of it.  The dataclass's `__init__` (and its
    `__post_init__` checks) fills a new term on a table miss only.  A new
    term enters its table by `setdefault`, one step, so threads that race
    to build a term all get the one that entered first."""
    fill = cls.__init__
    del cls.__init__
    names = [f.name for f in fields(cls)]
    table = _TABLES[cls] = {}

    def __new__(cls, *key, **named):
        if named:  # bound by the dataclass's `__init__`, on a scratch term
            fill(scratch := object.__new__(cls), *key, **named)
            key = scratch.__reduce__()[1]
        ref = table.get(key)
        t = ref and ref()
        if t is None:
            fill(t := object.__new__(cls), *key)
            new = _Ref(t, _drop)
            new.table, new.key = table, key
            while (ref := table.setdefault(key, new)) is not new:
                if (live := ref()) is not None:
                    return live
                _remove_dead_weakref(table, key)
        return t

    cls.__new__ = staticmethod(__new__)
    # pickles and copies are the canonical term
    cls.__reduce__ = lambda t: (cls, tuple(getattr(t, name) for name in names))
    cls.__copy__ = lambda t: t
    cls.__deepcopy__ = lambda t, memo: t
    return cls


class Term:
    """Base class for instance terms."""

    __slots__ = ("__weakref__",)


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class Empty(Term):
    pass


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class Atom(Term):
    kind: AtomKind
    label: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.label):
            raise ValueError(f"bad atom label: {self.label!r}")


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class Pair(Term):
    left: Term
    right: Term


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class Enc(Term):
    body: Term
    func: FuncName
    key: Term

    def __post_init__(self):
        if self.func is FuncName.H:
            if not isinstance(self.key, Empty):
                raise ValueError("hash terms take an empty key")
        else:
            if not (isinstance(self.key, Atom) and self.key.kind is AtomKind.KEY):
                raise ValueError(f"{self.func.value} key must be a key atom")


class BasicTT(enum.Enum):
    __hash__ = object.__hash__  # see AtomKind

    R = "r"
    N = "n"
    K = "k"
    M = "m"


_KIND_TO_BASIC = {
    AtomKind.PARTICIPANT: BasicTT.R,
    AtomKind.NONCE: BasicTT.N,
    AtomKind.KEY: BasicTT.K,
    AtomKind.USERDATA: BasicTT.M,
}


class TTerm:
    """Base class for typed terms."""

    __slots__ = ("__weakref__",)


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class TEmpty(TTerm):
    pass


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class Basic(TTerm):
    tt: BasicTT


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class TPair(TTerm):
    left: TTerm
    right: TTerm


@_hash_consed
@dataclass(frozen=True, slots=True, eq=False)
class TEnc(TTerm):
    body: TTerm
    func: FuncName


@dataclass(frozen=True, slots=True)
class SignedTerm:
    sign: int
    payload: Term

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(self.payload, Empty):
            raise ValueError("signed terms carry nonempty payloads")


@dataclass(frozen=True, slots=True)
class SignedTTerm:
    sign: int
    payload: TTerm

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(self.payload, TEmpty):
            raise ValueError("signed terms carry nonempty payloads")


def pair_of(parts) -> Term:
    """Fold a nonempty sequence of terms into a left-associative pair chain."""
    parts = list(parts)
    if not parts:
        raise ValueError("pair_of needs at least one term")
    out = parts[0]
    for p in parts[1:]:
        out = Pair(out, p)
    return out


def type_erase(t: Term, memo: dict | None = None) -> TTerm:
    """Map an instance term to its typed term: labels and keys are dropped.

    `memo`, when given, maps terms already erased to their results and is
    extended with every subterm erased here, so no term is walked twice.
    """
    if memo is None:
        memo = {}
    e = memo.get(t)
    if e is not None:
        return e
    if isinstance(t, Atom):
        e = Basic(_KIND_TO_BASIC[t.kind])
    elif isinstance(t, Pair):
        e = TPair(type_erase(t.left, memo), type_erase(t.right, memo))
    elif isinstance(t, Enc):
        e = TEnc(type_erase(t.body, memo), t.func)
    elif isinstance(t, Empty):
        e = TEmpty()
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[t] = e
    return e


def atoms_of(t: Term):
    """Yield every atom occurring in t, key positions included, left to right
    (a cipher's body before its key)."""
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Atom):
            yield t
        elif isinstance(t, Pair):
            stack.append(t.right)
            stack.append(t.left)
        elif isinstance(t, Enc):
            stack.append(t.key)
            stack.append(t.body)


def _spine(t) -> list:
    # flatten the left-associative pair spine for display
    out = []
    while isinstance(t, (Pair, TPair)):
        out.append(t.right)
        t = t.left
    out.append(t)
    out.reverse()
    return out


def render_term(t: Term) -> str:
    """Display form: (A, N_a), {N_a, K, B}_sk(K_AB), h(T_a, N_a)."""
    if isinstance(t, Empty):
        return "."
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Pair):
        return "(" + ", ".join(render_term(p) for p in _spine(t)) + ")"
    if isinstance(t, Enc):
        inner = ", ".join(render_term(p) for p in _spine(t.body))
        if t.func is FuncName.H:
            return f"h({inner})"
        return f"{{{inner}}}_{t.func.value}({t.key.label})"
    raise TypeError(f"not a term: {t!r}")


def render_tterm(t: TTerm) -> str:
    """Display form: (r, n), {n, k, r}_sk, {m}_h."""
    if isinstance(t, TEmpty):
        return "."
    if isinstance(t, Basic):
        return t.tt.value
    if isinstance(t, TPair):
        return "(" + ", ".join(render_tterm(p) for p in _spine(t)) + ")"
    if isinstance(t, TEnc):
        inner = ", ".join(render_tterm(p) for p in _spine(t.body))
        return f"{{{inner}}}_{t.func.value}"
    raise TypeError(f"not a typed term: {t!r}")


def render_signed(st) -> str:
    body = render_term(st.payload) if isinstance(st, SignedTerm) else render_tterm(st.payload)
    return ("+" if st.sign > 0 else "-") + body
