"""Term algebra: instance terms, typed terms, signed terms, type erasure.

Instance terms carry atom labels and encryption keys; typed terms keep only
the type structure (r, n, k, m).  Pairing is left-associative throughout:
(a, b, c) is Pair(Pair(a, b), c).  Hashing is Enc with func `h` and an empty
key slot so the encryption constructor stays uniform.

Terms are hash-consed process-wide: each class keeps a table from fields
to the live term with those fields, held weakly, and its constructor
returns that term when there is one.  Equal terms are one object, so
every term hash and comparison is by identity, at C level.  An instance
term keeps its typed term (`Term._typed`), built from its children's on
the table miss, so `type_erase` reads it.  `_hash_consed` is the one
identity rule of the package.  Every immutable value of the model goes
through it: terms and signed terms here, size expressions (`sizes`),
strands, strand spaces and `Op` rows (`strands`), messages (`parser`),
and cost terms, cost expressions and assumption sets (`costs`).

A hash-consed class derives from `Value` and lists its fields once, in its
`__slots__`, and `_hash_consed` generates its constructor, `__new__`, whose
parameters are those fields, so Python binds positional, keyword and mixed
calls and refuses bad ones.  Defaults of its last fields, if any, are its
`_defaults` tuple.  Fields key the table, so they must be hashable: a list
where a tuple belongs raises `TypeError`.  A call runs in one Python frame
(plus `_check`, where a class checks its fields): a hit is one table
lookup, and a miss fills the new term through its slot descriptors.
Parsing fresh input builds mostly new terms, so it pays for the miss.
"""

from __future__ import annotations

import enum
import re
import weakref
from functools import cache
from types import MappingProxyType
from _weakref import _remove_dead_weakref


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
    __slots__ = ("key",)


# Source of the constructor `_hash_consed` gives every class with a given
# number of fields, made by a factory whose parameters it reads as closure
# cells.  Its parameters after `_cls` are the fields, in `__slots__` order,
# under the generic names `_0`, `_1` and so on; `_hash_consed` renames them
# to the field names in each class's copy of the code, so Python binds
# keywords and words its binding errors by field.  `{fields}` fills a new
# term, `_set0(_t, _0)` and so on, each `_setN` the `__set__` of a field's
# slot descriptor, then it runs `_check(_t)`, the class's `_check`, unless
# that cell is None.  `_drop`, the callback of a term's `_Ref`, removes its
# entry with `_remove`, the C helper WeakValueDictionary uses: it deletes
# the entry only while it holds a dead reference, in one step, so it never
# drops a term another thread built after this one died.
_NEW = """\
def _constructor(_new, _get, _setdefault, _table, _Ref, _remove, _check{cells}):
    def _drop(_ref):
        _remove(_table, _ref.key)

    def __new__(_cls{params}):
        _key = ({key})
        _ref = _get(_key)
        if _ref is not None and (_t := _ref()) is not None:
            return _t
        _t = _new(_cls)
{fields}
        if _check is not None:
            _check(_t)
        _entry = _Ref(_t, _drop)
        _entry.key = _key
        while (_ref := _setdefault(_key, _entry)) is not _entry:
            if (_live := _ref()) is not None:
                return _live
            _remove(_table, _key)
        return _t
    return __new__
"""


@cache
def _constructor(arity: int):
    """The factory of `_NEW` for `arity` fields, compiled once per arity."""
    indices = range(arity)
    src = _NEW.format(
        cells="".join(f", _set{i}" for i in indices),
        params="".join(f", _{i}" for i in indices),
        key="".join(f"_{i}, " for i in indices),
        fields="\n".join(f"        _set{i}(_t, _{i})" for i in indices),
    )
    made = {}
    exec(compile(src, "<hash-consed>", "exec"), {}, made)
    return made["_constructor"]


def _reduce(t):
    return type(t), tuple(getattr(t, name) for name in type(t).__slots__)


def _same(t, memo=None):
    return t


def _repr(t) -> str:
    fields = ", ".join(f"{name}={getattr(t, name)!r}" for name in type(t).__slots__)
    return f"{type(t).__qualname__}({fields})"


def _setattr(t, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(t, name):
    raise AttributeError(f"cannot delete field {name!r}")


_object_setattr = object.__setattr__


class Frozen:
    """Base of the read-only objects that are not hash-consed: the cost and
    size models.  `__init__` sets each field once with `_object_setattr`;
    assigning or deleting a field afterwards raises, as on a term, so
    nothing derived from a model's fields can go stale.

    A subclass lists its constructor's parameters first in its `__slots__`,
    in order, and then its private fields, whose names start with `_`.  A
    copy, deep copy or pickle calls the constructor again with the public
    fields, so a private one, such as a model's table of values, is not
    carried over and starts afresh."""

    __slots__ = ()
    __setattr__, __delattr__ = _setattr, _delattr

    def __reduce__(self):
        args = [getattr(self, name) for name in type(self).__slots__ if name[0] != "_"]
        return type(self), tuple(dict(a) if type(a) is MappingProxyType else a for a in args)


def _hash_consed(cls):
    """Make constructing a term of cls return the live term with equal
    fields if there is one, so identity equality and `object.__hash__` are
    value equality and a hash of it.

    cls lists its fields in its `__slots__`, and its `_defaults`, if any,
    default the last fields.  Its generated constructor has one parameter
    per field: a hit is one lookup, and a miss sets the fields through their
    slot descriptors in the `__new__` frame, then runs `_check`, if cls has
    one.  A new term enters its table by `setdefault`, one step, so threads
    that race to build a term all get the one that entered first; a term
    whose `_check` raised never enters.  A hit skips `_check`, and `True ==
    1 == 1.0`, so a cls whose fields may hold such numbers defines `__new__`
    to refuse them on every call; it calls the generated one, `cls._new`.
    Terms are read-only, show their fields in `repr`, and pickle and copy
    as the canonical term."""
    names = tuple(cls.__slots__)
    table = _TABLES[cls] = {}
    __new__ = _constructor(len(names))(
        object.__new__, table.get, table.setdefault, table, _Ref,
        _remove_dead_weakref, cls.__dict__.get("_check"),
        *[cls.__dict__[name].__set__ for name in names],
    )
    code = __new__.__code__
    __new__.__code__ = code.replace(
        co_varnames=("_cls", *names) + code.co_varnames[1 + len(names):]
    )
    __new__.__qualname__ = f"{cls.__qualname__}.__new__"
    __new__.__defaults__ = cls.__dict__.get("_defaults")
    if "__new__" in cls.__dict__:
        cls._new = staticmethod(__new__)
    else:
        cls.__new__ = staticmethod(__new__)
    cls.__setattr__, cls.__delattr__, cls.__repr__ = _setattr, _delattr, _repr
    # pickles and copies are the canonical term
    cls.__reduce__, cls.__copy__, cls.__deepcopy__ = _reduce, _same, _same
    return cls


class Value:
    """Base class of every hash-consed class: its table holds terms weakly."""

    __slots__ = ("__weakref__",)


class Term(Value):
    """Base class for instance terms.  `_typed`, not a field, is the
    term's typed term, set when the term is first built."""

    __slots__ = ("_typed",)


_set_typed = Term._typed.__set__


@_hash_consed
class Empty(Term):
    __slots__ = ()

    def _check(self):
        _set_typed(self, TEmpty())


@_hash_consed
class Atom(Term):
    __slots__ = {"kind": "an AtomKind", "label": "an identifier"}

    def _check(self):
        if not _IDENT_RE.match(self.label):
            raise ValueError(f"bad atom label: {self.label!r}")
        if type(self.kind) is not AtomKind:
            raise TypeError(f"not an atom kind: {self.kind!r}")
        _set_typed(self, _KIND_TO_BASIC[self.kind])


@_hash_consed
class Pair(Term):
    __slots__ = {"left": "a Term", "right": "a Term"}

    def _check(self):
        try:  # children are built first, so theirs are set
            _set_typed(self, TPair(self.left._typed, self.right._typed))
        except AttributeError:
            raise TypeError(f"pair parts must be terms: {self.left!r}, {self.right!r}") from None


@_hash_consed
class Enc(Term):
    __slots__ = {"body": "a Term", "func": "a FuncName", "key": "a key Atom, or Empty for h"}

    def _check(self):
        if type(self.func) is not FuncName:
            raise TypeError(f"not a cipher function: {self.func!r}")
        if self.func is FuncName.H:
            if not isinstance(self.key, Empty):
                raise ValueError("hash terms take an empty key")
        else:
            if not (isinstance(self.key, Atom) and self.key.kind is AtomKind.KEY):
                raise ValueError(f"{self.func.value} key must be a key atom")
        try:
            _set_typed(self, TEnc(self.body._typed, self.func))
        except AttributeError:
            raise TypeError(f"cipher body must be a term: {self.body!r}") from None


class BasicTT(enum.Enum):
    __hash__ = object.__hash__  # see AtomKind

    R = "r"
    N = "n"
    K = "k"
    M = "m"


class TTerm(Value):
    """Base class for typed terms.  `_size`, not a field, is the term's
    symbolic size, which `sizes.delta` sets when it first sizes the term."""

    __slots__ = ("_size",)


@_hash_consed
class TEmpty(TTerm):
    __slots__ = ()


@_hash_consed
class Basic(TTerm):
    __slots__ = {"tt": "a BasicTT"}


@_hash_consed
class TPair(TTerm):
    __slots__ = {"left": "a TTerm", "right": "a TTerm"}


@_hash_consed
class TEnc(TTerm):
    __slots__ = {"body": "a TTerm", "func": "a FuncName"}


_KIND_TO_BASIC = {kind: Basic(tt) for kind, tt in zip(AtomKind, BasicTT)}  # r, n, k, m


@_hash_consed
class SignedTerm(Value):
    __slots__ = {"sign": "+1 or -1", "payload": "a nonempty Term or TTerm"}

    def __new__(cls, sign, payload):
        if type(sign) is not int:  # True == 1 would find a live term
            raise ValueError("sign must be +1 or -1")
        return cls._new(cls, sign, payload)

    def _check(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if isinstance(self.payload, (Empty, TEmpty)):
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


def type_erase(t: Term) -> TTerm:
    """Map an instance term to its typed term: labels and keys are dropped.
    Every term keeps its typed term from construction (see `Term`)."""
    try:
        return t._typed
    except AttributeError:
        raise TypeError(f"not a term: {t!r}") from None


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
    body = render_term(st.payload) if isinstance(st.payload, Term) else render_tterm(st.payload)
    return ("+" if st.sign > 0 else "-") + body
