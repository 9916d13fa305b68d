"""Term algebra: instance terms, typed terms, signed terms, type erasure.

Instance terms carry atom labels and encryption keys; typed terms keep only
the type structure (r, n, k, m).  Pairing is left-associative throughout:
(a, b, c) is Pair(Pair(a, b), c).  Hashing is Enc with func `h` and an empty
key slot so the encryption constructor stays uniform.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from operator import attrgetter


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


def _hash_once(cls):
    """Hash a frozen dataclass by its fields on first use, then from the
    `_hash` slot its base class declares.  Deep terms are hashed again and
    again as dict keys; filling the slot lazily keeps construction (and so
    parsing) as cheap as before, since many compound terms are never
    hashed."""
    key = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


class Term:
    """Base class for instance terms."""

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class Empty(Term):
    pass


@_hash_once
@dataclass(frozen=True, slots=True)
class Atom(Term):
    kind: AtomKind
    label: str

    def __post_init__(self):
        if not _IDENT_RE.match(self.label):
            raise ValueError(f"bad atom label: {self.label!r}")
        # nearly every atom gets hashed, and hashing here costs less than
        # the slot miss in __hash__
        object.__setattr__(self, "_hash", hash((self.kind, self.label)))


@_hash_once
@dataclass(frozen=True, slots=True)
class Pair(Term):
    left: Term
    right: Term


@_hash_once
@dataclass(frozen=True, slots=True)
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

    __slots__ = ("_hash",)


@dataclass(frozen=True, slots=True)
class TEmpty(TTerm):
    pass


@_hash_once
@dataclass(frozen=True, slots=True)
class Basic(TTerm):
    tt: BasicTT


@_hash_once
@dataclass(frozen=True, slots=True)
class TPair(TTerm):
    left: TTerm
    right: TTerm


@_hash_once
@dataclass(frozen=True, slots=True)
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
    extended with every subterm erased here.  It also hash-conses: equal
    typed terms erased through one memo are one object (see `_intern`).
    """
    if memo is None:
        memo = {}
    e = memo.get(t)
    if e is not None:
        return e
    if isinstance(t, Atom):
        key = _KIND_TO_BASIC[t.kind]
        e = memo.get(key)
        if e is None:
            e = memo[key] = Basic(key)
    elif isinstance(t, Pair):
        return _intern(t, memo, type_erase(t.left, memo), type_erase(t.right, memo))
    elif isinstance(t, Enc):
        return _intern(t, memo, type_erase(t.body, memo))
    elif isinstance(t, Empty):
        e = TEmpty()
    else:
        raise TypeError(f"not a term: {t!r}")
    memo[t] = e
    return e


def _intern(t: Pair | Enc, memo: dict, *parts: TTerm) -> TTerm:
    """The typed term of the pair or cipher t, whose left and right (or body)
    erase to `parts`, already interned through `memo`; recorded there under
    t.  It is looked up by its function and the identities of its parts, so
    interning never hashes or compares a typed term deeply; the memo keeps
    the parts alive, so their identities are not reused while it lives."""
    pair = isinstance(t, Pair)
    key = (id(parts[0]), id(parts[1])) if pair else (id(parts[0]), t.func)
    e = memo.get(key)
    if e is None:
        e = memo[key] = TPair(*parts) if pair else TEnc(parts[0], t.func)
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
