"""Term model: constructors, validation, hash-consing (of terms, size
expressions and cost terms), erasure, traversal, display."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spa
from spa import parse
from spa.costs import (
    App,
    AssumptionSet,
    CostExpr,
    CostFunc,
    LambdaC,
    LambdaP,
    Overhead,
    Verdict,
    cost_expr,
    simplify,
)
from spa.sizes import AsymSize, HashSize, Sum, TypeSize, delta, ssum
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
    SignedTTerm,
    SignedTerm,
    TEmpty,
    TEnc,
    TPair,
    _TABLES,
    atoms_of,
    pair_of,
    render_term,
    render_tterm,
    type_erase,
)

from .generators import random_spec, sum_items
from .helpers import CORPUS, ROOT, read
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
    assert type_erase(Empty()) == TEmpty()
    assert type_erase(Pair(A, NA)) == TPair(Basic(BasicTT.R), Basic(BasicTT.N))
    assert type_erase(Enc(NA, FuncName.SK, K)) == TEnc(Basic(BasicTT.N), FuncName.SK)
    # two ciphertexts under different keys erase to the same t-term
    K2 = Atom(AtomKind.KEY, "K2")
    assert type_erase(Enc(NA, FuncName.SK, K)) == type_erase(Enc(NA, FuncName.SK, K2))


def test_atoms_of_covers_key_positions():
    t = Enc(Pair(A, NA), FuncName.SK, K)
    assert list(atoms_of(t)) == [A, NA, K]


def recursive_atoms_of(t):
    """atoms_of as a recursive generator, the reference for its order."""
    if isinstance(t, Atom):
        yield t
    elif isinstance(t, Pair):
        yield from recursive_atoms_of(t.left)
        yield from recursive_atoms_of(t.right)
    elif isinstance(t, Enc):
        yield from recursive_atoms_of(t.body)
        yield from recursive_atoms_of(t.key)


def test_atoms_of_matches_recursive_walk():
    specs = [parse(read(path)) for path in CORPUS]
    rng = random.Random(0xA70)
    specs += [random_spec(rng, max_atoms=6, depth=5) for _ in range(200)]
    walked = 0
    for spec in specs:
        payloads = [m.payload for m in spec.messages]
        payloads += [t for entries in spec.knowledge.values() for t in entries]
        for t in payloads:
            assert list(atoms_of(t)) == list(recursive_atoms_of(t))
            walked += 1
    assert walked > 1000


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
        SignedTerm(1, Empty())
    with pytest.raises(ValueError):
        SignedTTerm(2, Basic(BasicTT.N))
    with pytest.raises(ValueError):
        SignedTTerm(-1, TEmpty())


def test_render_term():
    assert render_term(Pair(A, NA)) == "(A, N_a)"
    assert render_term(pair_of([A, NA, K])) == "(A, N_a, K)"
    assert render_term(Enc(pair_of([NA, K, A]), FuncName.SK, K)) == "{N_a, K, A}_sk(K)"
    assert render_term(Enc(Pair(A, NA), FuncName.H, Empty())) == "h(A, N_a)"
    assert render_term(Enc(M, FuncName.PK, K)) == "{X_a}_pk(K)"


def test_render_tterm():
    r, n, k = Basic(BasicTT.R), Basic(BasicTT.N), Basic(BasicTT.K)
    assert render_tterm(TPair(r, n)) == "(r, n)"
    assert render_tterm(TEnc(TPair(TPair(n, k), r), FuncName.SK)) == "{n, k, r}_sk"
    assert render_tterm(TEnc(n, FuncName.H)) == "{n}_h"
    assert render_tterm(n) == "n"


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
    e = type_erase(t)
    memo = {}
    assert type_erase(t, memo) == e and memo[t] is type_erase(t, memo)
    if isinstance(t, Pair):
        assert e == TPair(type_erase(t.left), type_erase(t.right))
    elif isinstance(t, Enc):
        assert e == TEnc(type_erase(t.body), t.func)
    else:
        assert isinstance(e, Basic)


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
def test_memo_interns_equal_typed_terms(t, u):
    memo = {}
    et, eu = type_erase(t, memo), type_erase(u, memo)
    assert (et == eu) == (et is eu)
    assert type_erase(relabel(t), memo) is et
    # the memo only saves walking a term again: typed terms are hash-consed
    # process-wide, so erasing without it gives the same object
    assert type_erase(t) is et


def rebuild_size(e):
    if isinstance(e, Sum):
        return Sum(tuple((coeff, rebuild_size(unit)) for coeff, unit in e.items))
    if isinstance(e, AsymSize):
        return AsymSize(rebuild_size(e.arg))
    return TypeSize(e.tt) if isinstance(e, TypeSize) else HashSize()


def rebuild_cost_term(term):
    if isinstance(term, App):
        return App(term.func, tuple(map(rebuild_size, term.args)))
    return Overhead(term.sign) if isinstance(term, Overhead) else type(term)()


@given(terms(), st.randoms(use_true_random=False))
def test_equal_terms_are_one_object(t, rnd):
    assert rebuild(t) is t
    assert type_erase(t) is type_erase(relabel(t))
    assert relabel(t) is relabel(rebuild(t))
    # sizes and cost terms are hash-consed too: built again, with or without
    # a memo, from rebuilt parts or in another order, they are one object
    size = delta(type_erase(t))
    assert delta(type_erase(t), {}) is size and rebuild_size(size) is size
    parts = [delta(type_erase(a)) for a in atoms_of(t)] + [size, HashSize()]
    total = ssum(parts)
    shuffled = rnd.sample(parts, len(parts))
    assert ssum(list(map(rebuild_size, shuffled))) is ssum(shuffled)
    assert set(sum_items(ssum(shuffled))) == set(sum_items(total))
    cost = cost_expr(
        [App(CostFunc.F_C, (size, total)), LambdaC(), LambdaP(), Overhead(-1)]
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


def _any_payload(t, seq):
    return True


_B = Atom(AtomKind.PARTICIPANT, "B")
_KSTRAND = KStrand((A, NA), A, (SignedTerm(1, NA),), frozenset({NA}))
_TSTRAND = TStrand(Classifier.C_N, A, (SignedTTerm(1, Basic(BasicTT.N)),))

# fields of one term per hash-consed class, and for each class that checks
# its fields, fields it refuses
_CTOR_FIELDS = {
    Empty: (),
    Atom: (AtomKind.NONCE, "N_ctor"),
    Pair: (A, NA),
    Enc: (NA, FuncName.SK, K),
    TEmpty: (),
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
    Overhead: (-1,),
    SignedTerm: (-1, Pair(A, NA)),
    SignedTTerm: (1, TPair(Basic(BasicTT.R), Basic(BasicTT.N))),
    KStrand: ((A, NA), A, (SignedTerm(1, NA),), frozenset({NA})),
    TStrand: (Classifier.C_N, A, (SignedTTerm(1, Basic(BasicTT.N)),)),
    StrandSpace: ((_KSTRAND, _TSTRAND), (((0, 1), (1, 1)),)),
    Op: ((1,), CostFunc.F_NG, (1,), 1, _any_payload, "anything"),
    Message: (A, _B, Pair(A, NA)),
    CostExpr: (((LambdaC(), 2), (Overhead(-1), 1)),),
    AssumptionSet: (False, ((CostFunc.F_PK, CostFunc.F_H),), 512.0),
}
_REFUSED = {
    Atom: (AtomKind.NONCE, "2ctor"),
    Enc: (NA, FuncName.H, K),
    App: (CostFunc.F_C, (TypeSize(BasicTT.N),)),
    Overhead: (0,),
    SignedTerm: (0, NA),
    SignedTTerm: (1, TEmpty()),
    KStrand: ((NA,), A, (SignedTerm(1, NA),), frozenset()),
    TStrand: (Classifier.C_N, A, ()),
    CostExpr: (((LambdaC(), 0),),),
    AssumptionSet: (True, ((CostFunc.F_H, CostFunc.F_H),), 4096.0),
}


def test_every_hash_consed_class_has_constructor_cases():
    assert set(_CTOR_FIELDS) == set(_TABLES)


@pytest.mark.parametrize("cls", list(_CTOR_FIELDS), ids=lambda cls: cls.__name__)
def test_constructor_contract(cls):
    """Positional, keyword and mixed calls give one term, and omitting the
    fields a class defaults passes their defaults; a call of the wrong
    arity, with an unknown or repeated keyword or with fields `_check`
    refuses raises and enters nothing.  Terms are read-only and show their
    fields in `repr`."""
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
    assert table[values]() is t
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
    if cls in _REFUSED:
        with pytest.raises(ValueError):
            cls(*_REFUSED[cls])
        with pytest.raises(ValueError):
            cls(**dict(zip(names, _REFUSED[cls])))
    assert set(table) <= before


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


def _sample_terms() -> list:
    t = Enc(pair_of([A, NA, Enc(M, FuncName.H, Empty())]), FuncName.SK, K)
    e = type_erase(t)
    n, r = TypeSize(BasicTT.N), TypeSize(BasicTT.R)
    wide = ssum([n, n, r, HashSize()])
    return [
        t, t.body, Empty(), e, e.body, TEmpty(), Basic(BasicTT.K),
        n, HashSize(), AsymSize(wide), wide,
        App(CostFunc.F_PK, (AsymSize(wide),)), App(CostFunc.F_C, (n, r)),
        LambdaC(), LambdaP(), Overhead(-1),
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
    # extraction's sealed-atom check reads atoms_of in place of a search
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
