"""Term model: constructors, validation, erasure, traversal, display."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spa import parse
from spa.costs import CostFunc, Verdict
from spa.strands import Classifier
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
    atoms_of,
    pair_of,
    render_term,
    render_tterm,
    type_erase,
)

from .generators import random_spec
from .helpers import CORPUS, read
from .naive_extraction import contains

A = Atom(AtomKind.PARTICIPANT, "A")
NA = Atom(AtomKind.NONCE, "N_a")
K = Atom(AtomKind.KEY, "K")
M = Atom(AtomKind.USERDATA, "X_a")


def test_atom_label_validated():
    with pytest.raises(ValueError):
        Atom(AtomKind.NONCE, "2bad")
    with pytest.raises(ValueError):
        Atom(AtomKind.NONCE, "")
    with pytest.raises(ValueError):
        Atom(AtomKind.NONCE, "a b")


def test_enc_key_slot_validated():
    # hash takes an empty key, everything else a key atom
    with pytest.raises(ValueError):
        Enc(NA, FuncName.H, K)
    with pytest.raises(ValueError):
        Enc(NA, FuncName.SK, Empty())
    with pytest.raises(ValueError):
        Enc(NA, FuncName.PK, NA)
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
    # erasing without a memo gives an equal term, never the interned one
    alone = type_erase(t)
    assert alone == et and alone is not et


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
    hash(t)  # fill the cache on one copy only
    copy = rebuild(t)
    assert copy == t and hash(copy) == hash(t)
    assert hash(type_erase(copy)) == hash(type_erase(t))
    assert "_hash" not in repr(t)
