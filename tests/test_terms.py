"""Term model: constructors, validation, hash-consing (of terms, size
expressions and cost terms), erasure, traversal, display."""

import copy
import gc
import os
import pickle
import subprocess
import sys
import threading
from types import GenericAlias, MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spa
from spa.costs import (
    EXPANDABLE,
    Affine,
    App,
    AssumptionSet,
    CostExpr,
    CostFunc,
    CostModel,
    LambdaC,
    LambdaP,
    Overhead,
    Verdict,
    cost_expr,
    simplify,
)
from spa.sizes import AsymSize, HashSize, SizeModel, Sum, TypeSize, delta, ssum
from spa.parser import Message
from spa.strands import Classifier, KStrand, Op, StrandSpace, TStrand
from spa.terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    TEnc,
    TPair,
    Term,
    _TABLES,
    pair_of,
    render_signed,
    render_term,
    type_erase,
)

from .generators import sum_items
from .helpers import ROOT, atoms_of
from .naive_extraction import contains

A = Atom(AtomKind.PARTICIPANT, "A")
NA = Atom(AtomKind.NONCE, "N_a")
K = Atom(AtomKind.KEY, "K")
M = Atom(AtomKind.USERDATA, "X_a")


def test_atom_label_validated():
    for label in ("2bad", "", "a b"):
        with pytest.raises(ValueError, match=f"^bad atom label: {label!r}$"):
            Atom(AtomKind.NONCE, label)
        # a rejected term is not kept for the next call to find
        assert (AtomKind.NONCE, label) not in _TABLES[Atom]


def test_enc_key_slot_validated():
    # hash takes an empty key, everything else a key atom
    with pytest.raises(ValueError, match="^hash terms take an empty key$"):
        Enc(NA, FuncName.H, K)
    with pytest.raises(ValueError, match="^sk key must be a key atom$"):
        Enc(NA, FuncName.SK, Empty())
    with pytest.raises(ValueError, match="^pk key must be a key atom$"):
        Enc(NA, FuncName.PK, NA)
    assert (NA, FuncName.PK, NA) not in _TABLES[Enc]
    Enc(NA, FuncName.H, Empty())
    Enc(NA, FuncName.SK, K)


def test_pair_of_left_associative():
    assert pair_of([A, NA, K]) == Pair(Pair(A, NA), K)
    assert pair_of([A]) == A
    with pytest.raises(ValueError):
        pair_of([])


def test_type_erase_drops_labels_and_keys():
    assert type_erase(A) == Basic(BasicTT.R)
    assert type_erase(NA) == Basic(BasicTT.N)
    assert type_erase(K) == Basic(BasicTT.K)
    assert type_erase(M) == Basic(BasicTT.M)
    assert type_erase(Pair(A, NA)) == TPair(Basic(BasicTT.R), Basic(BasicTT.N))
    assert type_erase(Enc(NA, FuncName.SK, K)) == TEnc(Basic(BasicTT.N), FuncName.SK)
    # two ciphertexts under different keys erase to the same t-term
    K2 = Atom(AtomKind.KEY, "K2")
    assert type_erase(Enc(NA, FuncName.SK, K)) == type_erase(Enc(NA, FuncName.SK, K2))


def test_atoms_of_covers_key_positions():
    t = Enc(Pair(A, NA), FuncName.SK, K)
    assert list(atoms_of(t)) == [A, NA, K]


@pytest.mark.parametrize(
    "enum_cls", [AtomKind, FuncName, BasicTT, Classifier, CostFunc, Verdict]
)
def test_enum_members_stay_keys_after_pickling(enum_cls):
    # members hash by identity; unpickling must return the very member
    assert enum_cls.__hash__ is object.__hash__
    table = {member: i for i, member in enumerate(enum_cls)}
    for i, member in enumerate(enum_cls):
        back = pickle.loads(pickle.dumps(member))
        assert back is member and hash(back) == hash(member)
        assert table[back] == i and back in set(enum_cls)
    assert pickle.loads(pickle.dumps(table)) == table


def test_signed_terms_validated():
    with pytest.raises(ValueError):
        SignedTerm(0, NA)
    with pytest.raises(ValueError):
        SignedTerm(2, Basic(BasicTT.N))


def test_render_term():
    assert render_term(Pair(A, NA)) == "(A, N_a)"
    assert render_term(pair_of([A, NA, K])) == "(A, N_a, K)"
    assert render_term(Enc(pair_of([NA, K, A]), FuncName.SK, K)) == "{N_a, K, A}_sk(K)"
    assert render_term(Enc(Pair(A, NA), FuncName.H, Empty())) == "h(A, N_a)"
    assert render_term(Enc(M, FuncName.PK, K)) == "{X_a}_pk(K)"
    # typed terms: a cipher shows its function only, a hash as a cipher
    r, n, k = Basic(BasicTT.R), Basic(BasicTT.N), Basic(BasicTT.K)
    assert render_term(TPair(r, n)) == "(r, n)"
    assert render_term(TEnc(TPair(TPair(n, k), r), FuncName.SK)) == "{n, k, r}_sk"
    assert render_term(TEnc(n, FuncName.H)) == "{n}_h"
    assert render_term(n) == "n"
    with pytest.raises(TypeError, match=r"^not a term: 5$"):
        render_term(5)


def test_render_signed():
    assert render_signed(SignedTerm(1, Enc(Pair(A, NA), FuncName.H, Empty()))) == "+h(A, N_a)"
    typed = TEnc(TPair(Basic(BasicTT.N), Basic(BasicTT.K)), FuncName.SK)
    assert render_signed(SignedTerm(-1, typed)) == "-{n, k}_sk"


_atoms = st.sampled_from([A, NA, K, M])


@st.composite
def terms(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_atoms)
    if draw(st.booleans()):
        return Pair(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    func = draw(st.sampled_from(list(FuncName)))
    body = draw(terms(depth=depth - 1))
    return Enc(body, func, Empty() if func is FuncName.H else K)


@given(st.lists(_atoms, min_size=1, max_size=6))
def test_pair_of_spine_round_trip(parts):
    t = pair_of(parts)
    spine = []
    while isinstance(t, Pair):
        spine.append(t.right)
        t = t.left
    spine.append(t)
    assert list(reversed(spine)) == parts


@given(terms())
def test_type_erase_preserves_shape(t):
    # each term keeps the typed term it got when first built
    e = type_erase(t)
    assert type_erase(rebuild(t)) is e
    if isinstance(t, Pair):
        assert e is TPair(type_erase(t.left), type_erase(t.right))
    elif isinstance(t, Enc):
        assert e is TEnc(type_erase(t.body), t.func)
    else:
        assert isinstance(e, Basic)


def test_terms_of_non_terms_are_refused():
    cases = [
        (Pair, (A, "N_a")),
        (Pair, (None, A)),
        (Enc, ("N_a", FuncName.H, Empty())),
        (Enc, ((NA,), FuncName.SK, K)),
        (Atom, ("nonce", "N_a")),
        # a cipher function that is not a FuncName, which rendering reads
        (Enc, (NA, "sk", K)),
        (Enc, (NA, None, K)),
    ]
    for cls, fields in cases:
        with pytest.raises(TypeError) as exc:
            cls(*fields)
        assert "\n" not in str(exc.value)
        if cls is Enc and type(fields[1]) is not FuncName:
            assert str(exc.value) == f"Enc.func must be FuncName, not {type(fields[1]).__name__}"
    with pytest.raises(TypeError, match="not a term"):
        type_erase(Basic(BasicTT.N))


# `Empty()` fills a hash's key slot and no other place: every other field
# refuses it, and it has no typed term or display form of its own
@pytest.mark.parametrize("build, message", [
    (lambda: Pair(Empty(), A), "Pair.left must be Term, not Empty"),
    (lambda: Pair(A, Empty()), "Pair.right must be Term, not Empty"),
    (lambda: Enc(Empty(), FuncName.H, Empty()), "Enc.body must be Term, not Empty"),
    (lambda: SignedTerm(1, Empty()), "SignedTerm.payload must be Term | TTerm, not Empty"),
    (lambda: Message(A, Atom(AtomKind.PARTICIPANT, "B"), Empty()),
     "Message.payload must be Term, not Empty"),
    (lambda: KStrand((A, Empty()), A, (SignedTerm(1, NA),), frozenset()),
     "KStrand.knowledge must be tuple[Term, ...], not Empty in tuple"),
    (lambda: type_erase(Empty()), "not a term: Empty()"),
    (lambda: render_term(Empty()), "not a term: Empty()"),
], ids=["pair-left", "pair-right", "hash-body", "signed", "message", "kstrand",
        "type_erase", "render_term"])
def test_empty_is_only_a_hash_key(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message
    h = Enc(Pair(A, NA), FuncName.H, Empty())
    assert h.key is Empty() and render_term(h) == "h(A, N_a)"


# a refusal names the item that fails its check, and the container of the
# field it was passed in; a field that fails as a whole is named alone
@pytest.mark.parametrize("build, message", [
    (lambda: KStrand((A, 5), A, (SignedTerm(1, A),)),
     "KStrand.knowledge must be tuple[Term, ...], not int in tuple"),
    (lambda: CostExpr(((LambdaC(), 1.5),)),
     "CostExpr.terms must be tuple[tuple[CostTerm, int], ...], not float in tuple"),
    (lambda: CostExpr(((LambdaC(), 1, 1),)),
     "CostExpr.terms must be tuple[tuple[CostTerm, int], ...], not tuple in tuple"),
    (lambda: KStrand((A,), A, (SignedTerm(1, A),), frozenset({NA, "N_b"})),
     "KStrand.fresh must be frozenset[Atom], not str in frozenset"),
    (lambda: SizeModel({**_SIZES, "n": 16}, 20, 117, 128, 11),
     "SizeModel.sizes must be dict[BasicTT, int | float], not str in dict"),
    (lambda: SizeModel({**_SIZES, BasicTT.N: "16"}, 20, 117, 128, 11),
     "SizeModel.sizes must be dict[BasicTT, int | float], not str in dict"),
    (lambda: CostExpr([(LambdaC(), 1)]),
     "CostExpr.terms must be tuple[tuple[CostTerm, int], ...], not list"),
], ids=["tuple-of-any-length", "pair", "pair-length", "frozenset", "dict-key", "dict-value",
        "whole-field"])
def test_container_refusal_names_the_item(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


def test_an_instance_of_a_plain_base_is_not_a_term():
    # `Term` has a tuple `__slots__`: not hash-consed, it has no fields to show
    with pytest.raises(TypeError, match="^not a term: <spa.terms.Term object at "):
        type_erase(Term())


_RELABEL = {
    A: Atom(AtomKind.PARTICIPANT, "B"),
    NA: Atom(AtomKind.NONCE, "N_b"),
    K: Atom(AtomKind.KEY, "K2"),
    M: Atom(AtomKind.USERDATA, "Y_b"),
}


def relabel(t):
    if isinstance(t, Pair):
        return Pair(relabel(t.left), relabel(t.right))
    if isinstance(t, Enc):
        return Enc(relabel(t.body), t.func, relabel(t.key))
    return _RELABEL.get(t, t)


@given(terms(), terms())
def test_erasure_interns_equal_typed_terms(t, u):
    # typed terms are hash-consed process-wide: terms that differ only in
    # labels and keys keep one typed term
    et, eu = type_erase(t), type_erase(u)
    assert (et == eu) == (et is eu)
    assert type_erase(relabel(t)) is et
    assert type_erase(rebuild(t)) is et


def rebuild_size(e):
    if isinstance(e, Sum):
        return Sum(tuple((coeff, rebuild_size(unit)) for coeff, unit in e.items))
    if isinstance(e, AsymSize):
        return AsymSize(rebuild_size(e.arg))
    return TypeSize(e.tt) if isinstance(e, TypeSize) else HashSize()


def rebuild_cost_term(term):
    if isinstance(term, App):
        return App(term.func, tuple(map(rebuild_size, term.args)))
    return type(term)()


@given(terms(), st.randoms(use_true_random=False))
def test_equal_terms_are_one_object(t, rnd):
    assert rebuild(t) is t
    assert type_erase(t) is type_erase(relabel(t))
    assert relabel(t) is relabel(rebuild(t))
    # sizes and cost terms are hash-consed too: sized again, built again
    # from rebuilt parts or in another order, they are one object
    size = delta(type_erase(t))
    assert delta(type_erase(rebuild(t))) is size and rebuild_size(size) is size
    parts = [delta(type_erase(a)) for a in atoms_of(t)] + [size, HashSize()]
    total = ssum(parts)
    shuffled = rnd.sample(parts, len(parts))
    assert ssum(list(map(rebuild_size, shuffled))) is ssum(shuffled)
    assert set(sum_items(ssum(shuffled))) == set(sum_items(total))
    cost = cost_expr(
        [App(CostFunc.F_C, (size, total)), LambdaC(), LambdaP(), (Overhead(), -1)]
        + [App(CostFunc.F_SK, (p,)) for p in shuffled]
    )
    rebuilt = CostExpr(tuple((rebuild_cost_term(term), m) for term, m in cost.terms))
    for built, again in ((cost, rebuilt), (simplify(cost), simplify(rebuilt))):
        assert len(built.terms) == len(again.terms)
        assert all(a is b for (a, _), (b, _) in zip(built.terms, again.terms))


def test_keywords_bind_like_positions():
    assert Atom(kind=AtomKind.NONCE, label="N_a") is NA
    assert Enc(NA, FuncName.SK, key=K) is Enc(NA, FuncName.SK, K)
    with pytest.raises(ValueError, match="^bad atom label: '2bad'$"):
        Atom(kind=AtomKind.NONCE, label="2bad")
    with pytest.raises(TypeError):
        Atom(AtomKind.NONCE, name="N_a")


_B = Atom(AtomKind.PARTICIPANT, "B")
_KSTRAND = KStrand((A, NA), A, (SignedTerm(1, NA),), frozenset({NA}))
_TSTRAND = TStrand(Classifier.C_N, A, (SignedTerm(1, Basic(BasicTT.N)),))
_SIZES = {BasicTT.R: 8, BasicTT.N: 16, BasicTT.K: 16, BasicTT.M: 1}
_SIZE_MODEL = SizeModel(_SIZES, 20, 117, 128, 11)
_PRICES = {f: Affine(1.0, 0.5) for f in EXPANDABLE}

# fields of one term per hash-consed class, and for each class that checks
# its fields, fields it refuses
_CTOR_FIELDS = {
    Empty: (),
    Atom: (AtomKind.NONCE, "N_ctor"),
    Pair: (A, NA),
    Enc: (NA, FuncName.SK, K),
    Basic: (BasicTT.N,),
    TPair: (Basic(BasicTT.R), Basic(BasicTT.N)),
    TEnc: (Basic(BasicTT.N), FuncName.PK),
    TypeSize: (BasicTT.N,),
    HashSize: (),
    AsymSize: (TypeSize(BasicTT.K),),
    Sum: (((2, TypeSize(BasicTT.N)), (1, HashSize())),),
    App: (CostFunc.F_SK, (TypeSize(BasicTT.N),)),
    LambdaC: (),
    LambdaP: (),
    Overhead: (),
    SignedTerm: (-1, Pair(A, NA)),
    KStrand: ((A, NA), A, (SignedTerm(1, NA),), frozenset({NA})),
    TStrand: (Classifier.C_N, A, (SignedTerm(1, Basic(BasicTT.N)),)),
    StrandSpace: ((_KSTRAND, _TSTRAND), (((0, 1), (1, 1)),)),
    Op: ((1,), CostFunc.F_NG, (1,), BasicTT.N, ("",), "a nonce type"),
    Message: (A, _B, Pair(A, NA)),
    CostExpr: (((LambdaC(), 2), (Overhead(), -1)),),
    AssumptionSet: (False, ((CostFunc.F_PK, CostFunc.F_H),), 512.0),
    Affine: (1.0, 0),
    SizeModel: (_SIZES, 1.0, 117, 1, 11),
    CostModel: (_PRICES, 1, 0.0, 1.0, _SIZE_MODEL),
}
_REFUSED = {
    Atom: (AtomKind.NONCE, "2ctor"),
    Enc: (NA, FuncName.H, K),
    App: (CostFunc.F_C, (TypeSize(BasicTT.N),)),
    SignedTerm: (0, NA),
    KStrand: ((NA,), A, (SignedTerm(1, NA),), frozenset()),
    TStrand: (Classifier.C_N, A, ()),
    CostExpr: (((LambdaC(), 0),),),
    AssumptionSet: (True, ((CostFunc.F_H, CostFunc.F_H),), 4096.0),
    Affine: (-1.0, 0),
    SizeModel: (_SIZES, 20, 117, 128, 117),
    CostModel: ({CostFunc.F_H: Affine(1.0, 0.5)}, 1, 0.0, 1.0, _SIZE_MODEL),
}


def _key(values) -> tuple:
    # a table's key: the fields, a mapping by the frozenset of its items
    return tuple(frozenset(v.items()) if isinstance(v, dict) else v for v in values)


def test_every_hash_consed_class_has_constructor_cases():
    assert set(_CTOR_FIELDS) == set(_TABLES)


@pytest.mark.parametrize("cls", list(_CTOR_FIELDS), ids=lambda cls: cls.__name__)
def test_constructor_contract(cls):
    """Positional, keyword and mixed calls give one term, and omitting the
    fields a class defaults passes their defaults; a call of the wrong
    arity, with an unknown or repeated keyword or with fields `_check`
    refuses raises and enters nothing.  Terms are read-only and show their
    fields in `repr`.  The class cannot be subclassed: its table is keyed
    by fields, so a subclass's terms would answer for the class's."""
    values = _CTOR_FIELDS[cls]
    names = list(cls.__slots__)
    table = _TABLES[cls]
    t = cls(*values)
    assert [getattr(t, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) is t
    for cut in range(1, len(values)):
        assert cls(*values[:cut], **dict(zip(names[cut:], values[cut:]))) is t
    defaults = cls.__dict__.get("_defaults", ())
    required = len(values) - len(defaults)
    assert cls(*values[:required]) is cls(*values[:required], *defaults)
    before = set(table)
    assert table[_key(values)]() is t
    assert repr(t) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)
    ) + ")"
    for name in names + ["bogus"]:
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert [getattr(t, name) for name in names] == list(values)
    calls = [(values + (values[:1] or (A,)), {}), (values, {"bogus": 1})]
    if required:
        calls.append((values[:required - 1], {}))
    if values:
        calls.append((values, {names[0]: values[0]}))
    for args, named in calls:
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) "):
            cls(*args, **named)
    if required:  # binding errors name the field, not a generated parameter
        missing = f"missing 1 required positional argument: '{names[required - 1]}'"
        with pytest.raises(TypeError, match=f"{missing}$"):
            cls(*values[:required - 1])
    if cls in _REFUSED:
        with pytest.raises(ValueError):
            cls(*_REFUSED[cls])
        with pytest.raises(ValueError):
            cls(**dict(zip(names, _REFUSED[cls])))
    assert set(table) <= before
    with pytest.raises(TypeError, match="^Sub: a hash-consed class cannot be subclassed$"):
        type("Sub", (cls,), {"__slots__": ()})


_DECLARE_VALUES = """\
import pytest
from spa.terms import Value, _TABLES

class P(Value):
    __slots__ = {"x": int}

assert P in _TABLES and P(1) is P(1) and P(x=2) is P(2) is not P(1)
with pytest.raises(TypeError, match="^P.x must be int, not bool$"):
    P(True)
with pytest.raises(TypeError, match="^Sub: a hash-consed class cannot be subclassed$"):
    class Sub(P):
        __slots__ = {}

class Base(Value):
    __slots__ = ()

class Leaf(Base):
    __slots__ = {}

assert Base not in _TABLES and Leaf in _TABLES and Leaf() is Leaf()

def compiled(cls):
    return cls.__new__.__code__.co_filename == "<hash-consed>"

# the table is made with the class, the constructor on its first construction
class Late(Value):
    __slots__ = {"x": int, "y": str}

assert _TABLES[Late] == {} and not compiled(Late)

# a failed first call, binding or contract, raises what a compiled
# constructor raises, and the class works afterwards
for call, message in (
    (lambda cls: cls(1), "^{}.__new__\\(\\) missing 1 required positional argument: 'y'$"),
    (lambda cls: cls(1, "a", 2), "^{}.__new__\\(\\) takes 3 positional arguments but 4 were given$"),
    (lambda cls: cls(y="a", z=1), "^{}.__new__\\(\\) got an unexpected keyword argument 'z'$"),
    (lambda cls: cls(_cls=1, x=1, y="a"), "^{}.__new__\\(\\) got multiple values for argument '_cls'$"),
    (lambda cls: cls(True, "a"), "^{}.x must be int, not bool$"),
    (lambda cls: cls(1, None), "^{}.y must be str, not NoneType$"),
):
    cls = type("Once", (Value,), {"__slots__": {"x": int, "y": str}})
    with pytest.raises(TypeError, match=message.format("Once")):
        call(cls)
    t = cls(1, "a")
    assert compiled(cls) and cls(x=1, y="a") is t and len(_TABLES[cls]) == 1
    with pytest.raises(TypeError, match=message.format("Once")):
        call(cls)

# a `__new__` patched before the first construction stays installed; the
# stub it wraps installs the constructor once it is back in its place
stub, first = Late.__dict__["__new__"], Late.__new__
seen = []

def counted(cls, *fields):
    seen.append(fields)
    return first(cls, *fields)

Late.__new__ = staticmethod(counted)
assert Late(1, "a") is Late(1, "a") and seen == [(1, "a")] * 2
assert Late.__new__ is counted
Late.__new__ = stub
t = Late(1, "a")
assert compiled(Late) and Late(1, "a") is t and seen == [(1, "a")] * 2
"""


def _in_fresh_interpreter(source: str) -> None:
    # `_TABLES` keeps every class made in an interpreter, and
    # `test_every_hash_consed_class_has_constructor_cases` reads this one's
    src = str(os.path.dirname(os.path.dirname(spa.__file__)))
    subprocess.run([sys.executable, "-c", source], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_a_dict_slots_value_subclass_is_hash_consed():
    _in_fresh_interpreter(_DECLARE_VALUES)


def _is_contract(contract) -> bool:
    if type(contract) is GenericAlias:
        args = contract.__args__
        if args[1:] == (...,):
            args = args[:1]
        arity = {tuple: len(args), frozenset: 1, dict: 2}.get(contract.__origin__)
        return len(args) == arity and all(map(_is_contract, args))
    classes = contract if type(contract) is tuple else (contract,)
    return bool(classes) and all(isinstance(k, type) for k in classes)


def _meets(value, contract) -> bool:
    """The field-contract rule, restated: `isinstance`, except that a bool
    never meets int or float, and a `dict[K, V]` takes a read-only view."""
    if type(contract) is GenericAlias:
        args = contract.__args__
        if contract.__origin__ is dict:
            return isinstance(value, (dict, MappingProxyType)) and all(
                _meets(k, args[0]) and _meets(v, args[1]) for k, v in value.items())
        if contract.__origin__ is frozenset:
            return isinstance(value, frozenset) and all(_meets(x, args[0]) for x in value)
        if not isinstance(value, tuple):
            return False
        if args[1:] == (...,):
            return all(_meets(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_meets, value, args))
    classes = contract if type(contract) is tuple else (contract,)
    return any(isinstance(value, k) and not (type(value) is bool and k in (int, float))
               for k in classes)


def _holds_numbers(contract) -> bool:
    if type(contract) is GenericAlias:
        return any(_holds_numbers(a) for a in contract.__args__ if a is not ...)
    classes = contract if type(contract) is tuple else (contract,)
    return any(k in (int, float, bool) for k in classes)


def _ill_typed(value, contract):
    """Values that do not meet `contract`, each with the object in it that
    fails: a plain object in place of `value` and, where `value` is a
    tuple, frozenset or dict, in place of each of its items, and of each
    key of a dict."""
    culprit = object()
    yield culprit, culprit
    if type(contract) is not GenericAlias:
        return
    args = contract.__args__
    if type(value) is tuple:
        for i, item in enumerate(value):
            for bad, culprit in _ill_typed(item, args[0] if args[1:] == (...,) else args[i]):
                yield value[:i] + (bad,) + value[i + 1:], culprit
    elif type(value) is frozenset:
        for item in value:
            for bad, culprit in _ill_typed(item, args[0]):
                yield value - {item} | {bad}, culprit
    elif type(value) is dict:
        for k, v in value.items():
            culprit = object()
            yield {**{j: w for j, w in value.items() if j is not k}, culprit: v}, culprit
            for bad, culprit in _ill_typed(v, args[1]):
                yield {**value, k: bad}, culprit


def _aliases(value):
    """Values equal to `value`, which hash alike, with one number in it of
    another type: True for 1, 2.0 for 2, 0 for False and so on."""
    if type(value) is tuple:
        for i, item in enumerate(value):
            for alias in _aliases(item):
                yield value[:i] + (alias,) + value[i + 1:]
    elif type(value) is frozenset:
        for item in value:
            for alias in _aliases(item):
                yield value - {item} | {alias}
    elif type(value) is dict:
        for k, v in value.items():
            for alias in _aliases(v):
                yield {**value, k: alias}
    elif type(value) in (bool, int, float):
        for kind in (bool, int, float):
            if kind is not type(value) and kind(value) == value:
                yield kind(value)


# `_CTOR_FIELDS`, and an assumption set whose max_bytes, 1.0, has a bool
# alias, which 512.0 has not, and size models whose blk_in or pad has one
_ALIASED_FIELDS = list(_CTOR_FIELDS.items()) + [
    (AssumptionSet, (True, (), 1.0)),
    (SizeModel, (_SIZES, 20, 1, 128, 0.5)),
    (SizeModel, (_SIZES, 20, 117, 128, 1)),
]


@pytest.mark.parametrize("cls", list(_CTOR_FIELDS), ids=lambda cls: cls.__name__)
def test_field_contracts(cls):
    """Every field declares a contract, and a value that does not meet it,
    alone or inside a container, is a one-line `TypeError` naming the class,
    the field and the type passed, or the type of the item that fails and of
    the container it was passed in.  It enters nothing."""
    contracts = cls.__slots__ or {}  # a class without fields may say ()
    assert type(contracts) is dict
    names = list(contracts)
    assert all(_is_contract(contracts[name]) for name in names)
    values = _CTOR_FIELDS[cls]
    assert all(map(_meets, values, contracts.values()))
    table = _TABLES[cls]
    held = cls(*values)
    before = set(table)
    for i, name in enumerate(names):
        for bad, culprit in _ill_typed(values[i], contracts[name]):
            assert not _meets(bad, contracts[name])
            with pytest.raises(TypeError) as exc:
                cls(*values[:i], bad, *values[i + 1:])
            message = str(exc.value)
            assert message.startswith(f"{cls.__name__}.{name} must be ") and "\n" not in message
            shown = "object" if culprit is bad else f"object in {type(bad).__name__}"
            assert message.endswith(", not " + shown)
    assert set(table) <= before and cls(*values) is held


@pytest.mark.parametrize("cls, fields", _ALIASED_FIELDS,
                         ids=[cls.__name__ for cls, _ in _ALIASED_FIELDS])
def test_number_aliases_are_refused(cls, fields):
    """True == 1 == 1.0, so a field that holds a number is checked before
    the lookup: a bool or float alias of a live term's int field, or an
    int alias of its bool field, is refused while that term is held and
    after it may have died, never answered with the live term."""
    for i, contract in enumerate((cls.__slots__ or {}).values()):
        bad = [a for a in _aliases(fields[i]) if not _meets(a, contract)]
        assert bool(bad) <= _holds_numbers(contract)
        for alias in bad:
            call = (*fields[:i], alias, *fields[i + 1:])
            held = cls(*fields)
            with pytest.raises(TypeError, match=f"^{cls.__name__}\\.[a-z_]+ must be [^\n]*$"):
                cls(*call)
            assert cls(*fields) is held
            del held
            gc.collect()
            with pytest.raises(TypeError, match=f"^{cls.__name__}\\."):
                cls(*call)


def test_every_number_field_is_aliased():
    # each field whose contract holds numbers has an example with a refused alias
    fields = {(cls, name) for cls in _TABLES for name, contract in (cls.__slots__ or {}).items()
              if _holds_numbers(contract)}
    aliased = {(cls, name) for cls, values in _ALIASED_FIELDS
               for (name, contract), value in zip((cls.__slots__ or {}).items(), values)
               if any(not _meets(a, contract) for a in _aliases(value))}
    assert fields == aliased
    assert {(cls.__name__, name) for cls, name in fields} == {
        ("SignedTerm", "sign"), ("Sum", "items"), ("CostExpr", "terms"),
        ("Op", "signs"), ("Op", "sized"), ("StrandSpace", "comm"),
        ("AssumptionSet", "ignore_overhead"), ("AssumptionSet", "max_bytes"),
        ("Affine", "alpha"), ("Affine", "beta"), ("SizeModel", "sizes"), ("SizeModel", "s_hash"),
        ("SizeModel", "blk_in"), ("SizeModel", "blk_out"), ("SizeModel", "pad"),
        ("CostModel", "lambda_c"), ("CostModel", "lambda_p"), ("CostModel", "ov_h"),
    }


_F_H, _N = CostFunc.F_H, BasicTT.N

# values the model cannot hold, among them a function name where a
# `CostFunc` belongs and a number where the participant atom belongs
_ILL_TYPED = [
    lambda: App(_F_H, (3,)),
    lambda: AsymSize(3),
    lambda: TypeSize("n"),
    lambda: Sum(((2, 3),)),
    lambda: CostExpr(((3, 1),)),
    lambda: TPair(1, 2),
    lambda: Basic("n"),
    lambda: TEnc(Basic(_N), "sk"),
    lambda: SignedTerm(1, 5),
    lambda: StrandSpace((1,)),
    lambda: AssumptionSet(False, ((1, 2),), 10.0),
    lambda: Message(1, 2, 3),
    lambda: TStrand(Classifier.C_E, A, (SignedTerm(-1, Basic(_N)),)),
    lambda: App("f_h", (TypeSize(_N),)),
    lambda: KStrand((), 5, ()),
    lambda: KStrand((A,), A, (SignedTerm(1, A),), frozenset({5, "x"})),
    # a mapping field's items build the table key, so they are checked first
    lambda: CostModel([1, 2], 0.1, 0.05, 0.25, _SIZE_MODEL),
]


@pytest.mark.parametrize("build", _ILL_TYPED, ids=range(len(_ILL_TYPED)))
def test_ill_typed_values_are_refused(build):
    with pytest.raises((TypeError, ValueError)) as exc:
        build()
    assert "\n" not in str(exc.value)


def test_racing_threads_build_one_term():
    # more threads than cores, switching often: each term a thread builds
    # must be the one every other thread built
    workers, start = 8, threading.Barrier(8)
    built = [None] * workers

    def build(i):
        start.wait(timeout=30)
        atoms = [Atom(AtomKind.NONCE, f"N_race{j}") for j in range(2000)]
        built[i] = atoms + [Pair(a, b) for a, b in zip(atoms, atoms[1:])]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(terms) == 3999 for terms in built)
    for terms in built[1:]:
        assert all(t is u for t, u in zip(terms, built[0]))


_RACE_FIRST_CONSTRUCTION = """\
import sys, threading
from spa.terms import Value, _TABLES

# classes of new shapes, so each first construction compiles its source
classes = [type(f"Race{n}", (Value,), {"__slots__": {f"f{i}": str for i in range(n)}})
           for n in range(1, 13)]
workers, start = 8, threading.Barrier(8)
seen = [None] * workers

def build(w):
    start.wait(timeout=30)
    seen[w] = [(cls(*"x" * len(cls.__slots__)), cls.__new__) for cls in classes]

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=build, args=(w,)) for w in range(workers)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
assert not any(thread.is_alive() for thread in threads)
for i, cls in enumerate(classes):
    new = cls.__dict__["__new__"].__func__
    assert new.__code__.co_filename == "<hash-consed>"
    assert all(s[i][1] is new and s[i][0] is seen[0][i][0] for s in seen)
    assert len(_TABLES[cls]) == 1
"""


def test_racing_first_construction_installs_one_constructor():
    # eight threads build the first value of each of a dozen new classes at
    # once, several of them generating a constructor for one class: every
    # thread gets the one value and sees the one constructor installed
    _in_fresh_interpreter(_RACE_FIRST_CONSTRUCTION)


def _sample_terms() -> list:
    t = Enc(pair_of([A, NA, Enc(M, FuncName.H, Empty())]), FuncName.SK, K)
    e = type_erase(t)
    n, r = TypeSize(BasicTT.N), TypeSize(BasicTT.R)
    wide = ssum([n, n, r, HashSize()])
    return [
        t, t.body, Empty(), e, e.body, Basic(BasicTT.K),
        n, HashSize(), AsymSize(wide), wide,
        App(CostFunc.F_PK, (AsymSize(wide),)), App(CostFunc.F_C, (n, r)),
        LambdaC(), LambdaP(), Overhead(),
    ]


_PICKLE_TERMS = (
    "import pickle, sys; from tests.test_terms import _sample_terms; "
    "sent = pickle.loads(sys.stdin.buffer.read()); "
    "assert all(a is b for a, b in zip(sent, _sample_terms())); "
    "sys.stdout.buffer.write(pickle.dumps(_sample_terms()))"
)


def _pickled_elsewhere(terms: list) -> list:
    # the other interpreter checks it loads its own canonical terms, then
    # sends them back pickled
    src = str(os.path.dirname(os.path.dirname(spa.__file__)))
    return pickle.loads(subprocess.run(
        [sys.executable, "-c", _PICKLE_TERMS], check=True, capture_output=True,
        input=pickle.dumps(terms), cwd=ROOT, env={**os.environ, "PYTHONPATH": src},
    ).stdout)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle", "subprocess"])
def test_copies_are_the_canonical_term(how):
    terms = _sample_terms()
    back = {
        "copy": lambda: [copy.copy(t) for t in terms],
        "deepcopy": lambda: copy.deepcopy(terms),
        "pickle": lambda: pickle.loads(pickle.dumps(terms)),
        "subprocess": lambda: _pickled_elsewhere(terms),
    }[how]()
    assert len(back) == len(terms)
    assert all(b is t for b, t in zip(back, terms))


def _entries() -> int:
    return sum(map(len, _TABLES.values()))


def test_tables_drop_dead_terms():
    gc.collect()
    before = _entries()
    atoms = [Atom(AtomKind.NONCE, f"N_drop{i}") for i in range(50)]
    t = Enc(pair_of(atoms), FuncName.PK, Atom(AtomKind.KEY, "K_drop"))
    e = type_erase(t)
    assert _entries() > before + 100
    assert Atom(AtomKind.NONCE, "N_drop7") is atoms[7]
    del atoms, t, e
    gc.collect()
    assert _entries() <= before


@pytest.mark.parametrize("wrap", ["pair", "hash"])
def test_deep_terms_build_and_free(wrap):
    gc.collect()
    before = _entries()
    t = Atom(AtomKind.NONCE, "N_deep")
    if wrap == "pair":
        t = pair_of([t] * 100_000)
    else:
        for _ in range(100_000):
            t = Enc(t, FuncName.H, Empty())
    assert _entries() >= before + 100_000
    del t
    gc.collect()
    assert _entries() <= before


@given(terms())
def test_every_atom_is_contained(t):
    # the references' atom walk finds exactly the atoms a term contains
    assert set(atoms_of(t)) == {a for a in (A, NA, K, M) if contains(t, a)}


def rebuild(t):
    if isinstance(t, Pair):
        return Pair(rebuild(t.left), rebuild(t.right))
    if isinstance(t, Enc):
        return Enc(rebuild(t.body), t.func, rebuild(t.key))
    return Atom(t.kind, t.label) if isinstance(t, Atom) else Empty()


@given(terms())
def test_cached_hash_follows_equality(t):
    twin = rebuild(t)
    assert twin == t and hash(twin) == hash(t)
    assert hash(type_erase(twin)) == hash(type_erase(t))
    assert "_hash" not in repr(t)
