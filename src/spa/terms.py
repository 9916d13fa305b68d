"""Term algebra: instance terms, typed terms, signed terms, type erasure.

Instance terms carry atom labels and encryption keys; typed terms keep only
the type structure (r, n, k, m).  Pairing is left-associative throughout:
(a, b, c) is Pair(Pair(a, b), c).  Hashing is Enc with func `h` and
`Empty()` in its key slot, so the encryption constructor stays uniform;
`Empty` is not a term, and no other field takes it.

Terms are hash-consed process-wide: each class keeps a table from fields
to the live term with those fields, held weakly, and its constructor
returns that term when there is one.  Equal terms are one object, so
every term hash and comparison is by identity, at C level.  An instance
term keeps its typed term (`Term._typed`), built from its children's on
the table miss, so `type_erase` reads it.  `_hash_consed` is the one
identity rule of the package.  Every immutable value of the model goes
through it: terms, the empty key slot and signed terms here, size
expressions and size models (`sizes`), strands, strand spaces and `Op`
rows (`strands`), messages (`parser`), and cost terms, cost expressions,
assumption sets, prices and cost models (`costs`).

Deriving from `Value` with a dict `__slots__` that maps each field to its
contract, `{}` for a class without fields, is what makes a class
hash-consed; a tuple `__slots__` makes a plain base.  `Value` passes each
such class to `_hash_consed`, which makes its table at once and, on the
class's first construction, generates its constructor, `__new__`, so a
process compiles only the shapes of the classes it builds.  Its
parameters are those fields, so Python binds positional, keyword and mixed
calls and refuses bad ones, and its checks refuse a field that does not
meet its contract (see `_hash_consed`).  Defaults of its last fields, if
any, are its `_defaults` tuple.  A hit is one table lookup in one Python
frame; a miss fills the new term through its slot descriptors, then
enters it, after `_check` where a class checks structural invariants.
Parsing fresh input builds mostly new terms, so it pays for the miss.
"""

from __future__ import annotations

import enum
import re
import weakref
from functools import cache
from types import GenericAlias, MappingProxyType
from _weakref import _remove_dead_weakref


class _IdentityEnum(enum.Enum):
    # the base of the package's enums: members are singletons, so identity
    # hashing agrees with equality and skips Enum.__hash__, a Python-level
    # hash of the member name
    __hash__ = object.__hash__


class AtomKind(_IdentityEnum):
    PARTICIPANT = "participant"
    NONCE = "nonce"
    KEY = "key"
    USERDATA = "data"


class FuncName(_IdentityEnum):
    SK = "sk"
    PK = "pk"
    PVK = "pvk"
    H = "h"


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# class -> {fields: _Ref to the live term with those fields}
_TABLES: dict[type, dict] = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


# Source of a hash-consed class's constructor, run in a scope of its own
# whose globals are the names it reads besides its parameters.  Those after
# `_cls` are the fields, in `__slots__` order, named `_0`, `_1` and so on;
# `_hash_consed` renames them to the field names in each class's copy of
# the code, so Python binds keywords and words its binding errors by field.
# `{early}` and `{late}` check the fields against their contracts (see
# `_checks`).  `{key}` keys the table on the fields, a mapping field by the
# frozenset of its items.  `{fields}` fills a new term, each `_setN` the
# `__set__` of a field's slot descriptor, a mapping field with a read-only
# copy, and `_enter` (see `_enterer`) enters it.
_NEW = """\
def __new__(_cls{params}):
{early}
    _key = ({key})
    _ref = _get(_key)
    if _ref is not None and (_t := _ref()) is not None:
        return _t
{late}
    _t = _new(_cls)
{fields}
    return _enter(_t, _key)
"""


_compiled = cache(compile)  # classes whose contracts have one shape share a `_NEW`


def _checks(contract, value: str, field: int, kinds: list, indent: str = "    ") -> list:
    """Lines of `_NEW` that raise `_refused(...)`, given the whole field and
    `value`, unless `value`, field number `field` or an item of it, meets
    `contract`: a class, a tuple of classes, or `tuple[X, ...]`,
    `tuple[X, Y]`, `frozenset[X]` or `dict[K, V]` of those.  The Nth class,
    tuple of classes or container type they name is the global `_kN`, the
    Nth of `kinds`.  A `tuple[X, ...]`, a frozenset or a dict is checked by
    a `for` loop, not a comprehension, which would be a function call of
    its own before Python 3.12."""
    fail = f"{indent}    raise _refused(_cls, {field}, _{field}, {value})"
    if type(contract) is not GenericAlias:
        kinds.append(contract)
        classes = contract if type(contract) is tuple else (contract,)
        test = f"not isinstance({value}, _k{len(kinds) - 1})"
        if int in classes and bool not in classes:  # a bool never meets int
            test += f" or {value} is True or {value} is False"
        return [f"{indent}if {test}:", fail]
    origin, args = contract.__origin__, contract.__args__
    if origin is tuple and args[1:] != (...,):
        lines = [f"{indent}if not isinstance({value}, tuple) or len({value}) != {len(args)}:", fail]
        for i, arg in enumerate(args):
            lines += _checks(arg, f"{value}[{i}]", field, kinds, indent)
        return lines
    kinds.append((dict, MappingProxyType) if origin is dict else origin)
    head = [f"{indent}if not isinstance({value}, _k{len(kinds) - 1}):", fail]
    key, item, inner = f"_e{len(indent)}", f"_v{len(indent)}", indent + "    "  # per depth
    if origin is dict:
        return [*head, f"{indent}for {key}, {item} in {value}.items():",
                *_checks(args[0], key, field, kinds, inner),
                *_checks(args[1], item, field, kinds, inner)]
    return [*head, f"{indent}for {item} in {value}:", *_checks(args[0], item, field, kinds, inner)]


def _refused(cls, field: int, value, item) -> TypeError:
    """The refusal of field number `field`, whose value is `value`, for
    `item`, the value itself or the part of it that failed its check."""
    name, contract = list(cls.__slots__.items())[field]
    shown = type(item).__name__
    if item is not value:
        shown += f" in {type(value).__name__}"
    return TypeError(f"{cls.__qualname__}.{name} must be {_shown(contract)}, not {shown}")


def _shown(contract) -> str:
    if type(contract) is GenericAlias:
        return f"{contract.__origin__.__name__}[{', '.join(map(_shown, contract.__args__))}]"
    if type(contract) is tuple:
        return " | ".join(map(_shown, contract))
    return "..." if contract is ... else contract.__name__


def _fields(t) -> tuple:
    # t's fields as its constructor takes them: a mapping field as a dict
    return tuple(dict(v) if type(v) is MappingProxyType else v
                 for v in map(t.__getattribute__, type(t).__slots__))


def _enterer(table, check):
    """The end of a miss for a class whose table is `table`: run `check`,
    the class's `_check` or None, on the new term and enter it under `key`,
    by `setdefault`, one step, so threads that race to build a term all get
    the one that entered first.  `drop`, the callback of a term's `_Ref`,
    removes its entry with `remove`, the C helper WeakValueDictionary uses:
    it deletes the entry only while it holds a dead reference, in one step,
    so it never drops a term another thread built after this one died.  A
    local, not the module global, so terms that die at exit still go."""
    setdefault, remove = table.setdefault, _remove_dead_weakref

    def drop(ref):
        remove(table, ref.key)

    def enter(t, key):
        if check is not None:
            check(t)
        entry = _Ref(t, drop)
        entry.key = key
        while (ref := setdefault(key, entry)) is not entry:
            if (live := ref()) is not None:
                return live
            remove(table, key)
        return t
    return enter


def _hash_consed(cls):
    """Make constructing a term of cls return the live term with equal
    fields if there is one, so identity equality and `object.__hash__` are
    value equality and a hash of it.  `Value.__init_subclass__` calls it on
    each class that derives from `Value` with a dict `__slots__`.

    cls maps each field to its contract in its `__slots__`: a class, a
    tuple of classes (any one of them), or `tuple[X, ...]`, `tuple[X, Y]`,
    `frozenset[X]` or `dict[K, V]` of those.  A value meets a contract by
    `isinstance`, except that a bool never meets int or float and a dict's
    read-only view meets `dict[K, V]`; one that does not is a one-line
    `TypeError` naming the class, the field, the contract and the type
    passed, or the type of the item that failed and of the field's value
    (`not Empty in tuple`).  A list where a tuple belongs is one too.  The
    generated constructor checks each field inline: one that may hold a
    number or a mapping before the lookup, as `True == 1 == 1.0` and a
    mapping's items build the key, and any other on a miss, before
    `_check`, as no value of another type equals a live one.  A mapping
    field is keyed by the frozenset of its items and stored as a read-only
    copy.  A term whose check raised never enters its table.

    The table is made here, and the constructor on the class's first
    construction, so a process compiles only the shapes of the classes it
    builds.  Until then `__new__` is a stub that generates the constructor,
    enters it by `setdefault`, one step, so racing first constructions all
    run the one that entered first, installs it in its own place unless
    another `__new__` has replaced it since, and forwards the call."""
    table = _TABLES[cls] = {}
    made = {}  # cls -> its constructor, once generated

    def __new__(_cls, /, *args, **kwargs):
        if (new := made.get(cls)) is None:
            new = made.setdefault(cls, _constructor(cls, table))
        if cls.__dict__["__new__"] is stub:
            cls.__new__ = staticmethod(new)
        return new(_cls, *args, **kwargs)

    stub = cls.__new__ = staticmethod(__new__)


def _constructor(cls, table):
    """Generate cls's constructor, whose table is `table` (see
    `_hash_consed`)."""
    contracts = cls.__slots__
    names = tuple(contracts)
    mappings = [type(c) is GenericAlias and c.__origin__ is dict for c in contracts.values()]
    early, late, kinds = [], [], []
    for i, contract in enumerate(contracts.values()):
        start = len(kinds)
        lines = _checks(contract, f"_{i}", i, kinds)
        # True == 1 == 1.0, so a field that may hold a number is checked
        # before the lookup; no other value equals a live one of another type
        numbers = any({int, float, bool}.intersection(k if type(k) is tuple else (k,))
                      for k in kinds[start:])
        (early if numbers or mappings[i] else late).extend(lines)
    scope = {"_new": object.__new__, "_get": table.get, "_refused": _refused,
             "_proxy": MappingProxyType, "_enter": _enterer(table, cls.__dict__.get("_check")),
             **{f"_k{i}": kind for i, kind in enumerate(kinds)},
             **{f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(names)}}
    indices = range(len(names))
    exec(_compiled(_NEW.format(
        params="".join(f", _{i}" for i in indices),
        key="".join(f"frozenset(_{i}.items()), " if mappings[i] else f"_{i}, " for i in indices),
        early="\n".join(early), late="\n".join(late),
        fields="\n".join(f"    _set{i}(_t, _proxy(dict(_{i})))" if mappings[i]
                          else f"    _set{i}(_t, _{i})" for i in indices),
    ), "<hash-consed>", "exec"), scope)
    __new__ = scope["__new__"]
    code = __new__.__code__
    __new__.__code__ = code.replace(
        co_varnames=("_cls", *names) + code.co_varnames[1 + len(names):]
    )
    __new__.__qualname__ = f"{cls.__qualname__}.__new__"
    __new__.__defaults__ = cls.__dict__.get("_defaults")
    return __new__


class Value:
    """Base class of every hash-consed class: its table holds terms weakly.

    Deriving from `Value` with a dict `__slots__`, `{}` for a class without
    fields, is what makes a class hash-consed (see `_hash_consed`): its
    table is made when the class is, and its constructor is compiled on its
    first construction.  One with a tuple `__slots__` is a plain base of
    such classes.  Terms are read-only, show their fields in `repr`, and
    pickle and copy as the canonical term.  A subclass of a hash-consed
    class would share its table, so none may be made."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if any(base in _TABLES for base in cls.__mro__[1:]):
            raise TypeError(f"{cls.__qualname__}: a hash-consed class cannot be subclassed")
        if type(cls.__dict__.get("__slots__")) is dict:
            _hash_consed(cls)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        if type(self) not in _TABLES:  # an instance of a plain base has no fields
            return object.__repr__(self)
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(type(self).__slots__, _fields(self)))
        return f"{type(self).__qualname__}({fields})"

    # pickles and copies are the canonical term
    def __reduce__(self):
        return type(self), _fields(self)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo=None):
        return self


class Term(Value):
    """Base class for instance terms.  `_typed`, not a field, is the
    term's typed term, set when the term is first built."""

    __slots__ = ("_typed",)


_set_typed = Term._typed.__set__


class Empty(Value):
    """A hash's key slot, `Enc(body, FuncName.H, Empty())`; not a term."""

    __slots__ = {}


class Atom(Term):
    __slots__ = {"kind": AtomKind, "label": str}

    def _check(self):
        if not _IDENT_RE.match(self.label):
            raise ValueError(f"bad atom label: {self.label!r}")
        _set_typed(self, _KIND_TO_BASIC[self.kind])


class Pair(Term):
    __slots__ = {"left": Term, "right": Term}

    def _check(self):  # children are built first, so theirs are set
        _set_typed(self, TPair(self.left._typed, self.right._typed))


class Enc(Term):
    __slots__ = {"body": Term, "func": FuncName, "key": (Atom, Empty)}

    def _check(self):
        if self.func is FuncName.H:
            if not isinstance(self.key, Empty):
                raise ValueError("hash terms take an empty key")
        elif not (isinstance(self.key, Atom) and self.key.kind is AtomKind.KEY):
            raise ValueError(f"{self.func.value} key must be a key atom")
        _set_typed(self, TEnc(self.body._typed, self.func))


class BasicTT(_IdentityEnum):
    R = "r"
    N = "n"
    K = "k"
    M = "m"


class TTerm(Value):
    """Base class for typed terms.  `_size`, not a field, is the term's
    symbolic size, which `sizes.delta` sets when it first sizes the term."""

    __slots__ = ("_size",)


class Basic(TTerm):
    __slots__ = {"tt": BasicTT}


class TPair(TTerm):
    __slots__ = {"left": TTerm, "right": TTerm}


class TEnc(TTerm):
    __slots__ = {"body": TTerm, "func": FuncName}


_KIND_TO_BASIC = {kind: Basic(tt) for kind, tt in zip(AtomKind, BasicTT)}  # r, n, k, m


class SignedTerm(Value):
    __slots__ = {"sign": int, "payload": (Term, TTerm)}

    def _check(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


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


def _spine(t) -> list:
    # flatten the left-associative pair spine for display
    out = []
    while isinstance(t, (Pair, TPair)):
        out.append(t.right)
        t = t.left
    out.append(t)
    out.reverse()
    return out


def render_term(t: Term | TTerm) -> str:
    """Display form of an instance term, (A, N_a), {N_a, K, B}_sk(K_AB),
    h(T_a, N_a), or of a typed term, (r, n), {n, k, r}_sk, {m}_h."""
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Basic):
        return t.tt.value
    if isinstance(t, (Pair, TPair)):
        return "(" + ", ".join(render_term(p) for p in _spine(t)) + ")"
    if isinstance(t, (Enc, TEnc)):
        inner = ", ".join(render_term(p) for p in _spine(t.body))
        if isinstance(t, TEnc):
            return f"{{{inner}}}_{t.func.value}"
        if t.func is FuncName.H:
            return f"h({inner})"
        return f"{{{inner}}}_{t.func.value}({t.key.label})"
    raise TypeError(f"not a term: {t!r}")


def render_signed(st) -> str:
    return ("+" if st.sign > 0 else "-") + render_term(st.payload)
