"""Operation extraction from knowledge strands, and oracle agreement."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spa.extraction
import spa.parser
import spa.strands
from spa import cost_of_space, extract, parse, project, simplify
from spa.errors import Ungeneratable, Unrecoverable
from spa.oracle import op_count_oracle
from spa.strands import OPENS, OPS, Classifier, KStrand, Op, _tag, render_kstrand
from spa.terms import (
    Atom,
    AtomKind,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    TEnc,
    TPair,
    pair_of,
    type_erase,
)

from .generators import chain_spec, random_spec, random_strand
from .helpers import ANDREW, CORPUS, KEY_WRAP, X509_ORIGINAL, read
from .bundle import check_extraction
from .naive_extraction import naive_extract

A = Atom(AtomKind.PARTICIPANT, "A")
B = Atom(AtomKind.PARTICIPANT, "B")
NA = Atom(AtomKind.NONCE, "N_a")
K = Atom(AtomKind.KEY, "K")
NB = Atom(AtomKind.NONCE, "N_b")
K2 = Atom(AtomKind.KEY, "K2")
D = Atom(AtomKind.USERDATA, "D")


def strand_of(path, label):
    spec = parse(read(path))
    for s in project(spec).strands:
        if s.participant.label == label:
            return s
    raise AssertionError(f"no strand {label}")


def counts(extraction) -> dict:
    return {c.value: n for c, n in extraction.op_counts().items()}


def test_key_wrap_sender_ops():
    ext = extract(strand_of(KEY_WRAP, "B"))
    assert counts(ext) == {"C_K": 1, "C_C": 2, "C_E": 1}
    # key first, then the two concatenations bottom-up, then the encryption
    assert [op.classifier for op in ext.ops] == [
        Classifier.C_K, Classifier.C_C, Classifier.C_C, Classifier.C_E,
    ]


def test_extraction_is_unequal_to_another_type():
    assert (extract(strand_of(KEY_WRAP, "B")) == 1) is False


def test_x509_sender_ops():
    ext = extract(strand_of(X509_ORIGINAL, "A"))
    assert counts(ext) == {"C_N": 1, "C_PK": 1, "C_C": 4, "C_H": 1, "C_PVK": 1}


def test_andrew_responder_ops():
    ext = extract(strand_of(ANDREW, "B"))
    assert counts(ext) == {"C_I": 1, "C_K": 1, "C_C": 2, "C_E": 1, "C_N": 1}


def test_receiver_stores_whole_no_ops():
    s = KStrand((B,), B, (SignedTerm(-1, Enc(NA, FuncName.SK, K)),))
    ext = extract(s)
    assert ext.ops == ()
    assert ext.process.classifier is Classifier.C_P
    assert [e.sign for e in ext.process.seq] == [-1]


def test_process_strand_erases_events():
    s = strand_of(ANDREW, "A")
    ext = extract(s)
    assert len(ext.process.seq) == len(s.seq)
    for ev, tev in zip(s.seq, ext.process.seq):
        assert tev.sign == ev.sign
        assert tev.payload == type_erase(ev.payload)


def test_memoization_no_rebuild():
    # same compound sent twice: built once
    t = Pair(NA, K)
    s = KStrand((A, NA, K), A, (SignedTerm(1, t), SignedTerm(1, t)))
    assert extract(s).op_counts() == Counter({Classifier.C_C: 1})


def test_extract_builds_no_typed_terms(monkeypatch):
    # every instance term carries its typed term, so extraction erases by
    # reading it and never calls a typed constructor
    strands = [s for spec in [chain_spec(8, 4)] + [parse(read(p)) for p in CORPUS]
               for s in project(spec).strands]
    built = []
    for cls in (TPair, TEnc):
        new = cls.__new__

        def counted(cls, *fields, _new=new):
            built.append(cls)
            return _new(cls, *fields)

        monkeypatch.setattr(cls, "__new__", staticmethod(counted))
    TPair(type_erase(NA), type_erase(K))  # the count sees a direct call
    assert built == [TPair]
    built.clear()
    for s in strands:
        extract(s)
    assert built == []
    assert not hasattr(spa.extraction, "TPair") and not hasattr(spa.extraction, "TEnc")


def test_pair_chain_concatenations():
    # n atoms need n-1 concatenations
    for n in range(2, 6):
        atoms = [Atom(AtomKind.NONCE, f"X{i}") for i in range(n)]
        s = KStrand(tuple([A] + atoms), A, (SignedTerm(1, pair_of(atoms)),))
        assert extract(s).op_counts() == Counter({Classifier.C_C: n - 1})


def test_split_recovers_components():
    s = KStrand((B, Pair(NA, K)), B, (SignedTerm(1, NA),))
    ext = extract(s)
    assert ext.op_counts() == Counter({Classifier.C_I: 1})
    op = ext.ops[0]
    assert op.classifier is Classifier.C_I
    assert op.seq[0].payload == type_erase(Pair(NA, K))


def test_split_skips_already_known_step():
    # second component already released by the first split
    s = KStrand(
        (B, Pair(NA, K)), B, (SignedTerm(1, NA), SignedTerm(1, K)),
    )
    assert extract(s).op_counts() == Counter({Classifier.C_I: 1})


def test_path_steps_with_known_output_emit_nothing():
    # the inner pair is also a knowledge entry, so the outer split is skipped
    inner = Pair(NA, K)
    outer = Pair(inner, K2)
    s = KStrand((B, outer, inner), B, (SignedTerm(1, NA),))
    assert extract(s).op_counts() == Counter({Classifier.C_I: 1})


def test_decrypt_with_held_key():
    s = KStrand((B, K, Enc(NA, FuncName.SK, K)), B, (SignedTerm(1, NA),))
    assert extract(s).op_counts() == Counter({Classifier.C_D: 1})


def test_no_decrypt_without_key():
    s = KStrand((B, Enc(NA, FuncName.SK, K)), B, (SignedTerm(1, NA),))
    with pytest.raises(Unrecoverable):
        extract(s)


def test_asymmetric_ciphertexts_opaque():
    for func in (FuncName.PK, FuncName.PVK):
        s = KStrand((B, K, Enc(NA, func, K)), B, (SignedTerm(1, NA),))
        with pytest.raises(Unrecoverable):
            extract(s)


def test_generation_only_for_unseen_atoms():
    s = KStrand((B,), B, (SignedTerm(1, NA),), frozenset({NA}))
    assert extract(s).op_counts() == Counter({Classifier.C_N: 1})
    s = KStrand((B,), B, (SignedTerm(1, K),), frozenset({K}))
    assert extract(s).op_counts() == Counter({Classifier.C_K: 1})


def test_unmarked_nonce_is_ungeneratable():
    # a role creates exactly the atoms its strand marks fresh: a nonce it
    # holds nowhere and does not mark is refused, not generated
    s = KStrand((B,), B, (SignedTerm(1, NA),))
    with pytest.raises(Ungeneratable) as exc:
        extract(s)
    assert str(exc.value) == "B does not hold N_a and its strand does not mark it fresh"
    assert exc.value.role == "B"


def test_fresh_nonce_generated_once():
    s = KStrand((B,), B, (SignedTerm(1, NA), SignedTerm(1, Pair(NA, NA))), frozenset({NA}))
    assert extract(s).op_counts() == Counter({Classifier.C_N: 1, Classifier.C_C: 1})


def test_sealed_nonce_not_regenerated():
    # the nonce occurs in knowledge, just unreachably: generating a fresh
    # one would silently change the protocol
    s = KStrand((B, Enc(NA, FuncName.PK, K)), B, (SignedTerm(1, NA),))
    with pytest.raises(Unrecoverable):
        extract(s)


@pytest.mark.parametrize("func", [FuncName.H, FuncName.PK])
def test_sealed_nonce_beside_exposed_sibling_not_regenerated(func):
    # N_a is not fresh, and the scan that classifies the failure looks
    # below the cipher, past the exposed D, and finds it sealed
    sealed = Enc(Pair(D, NA), func, Empty() if func is FuncName.H else K)
    s = KStrand((B, Pair(D, sealed)), B, (SignedTerm(1, NA),))
    with pytest.raises(Unrecoverable, match="^B holds N_a only sealed"):
        extract(s)


def _classified(monkeypatch, s: KStrand) -> int:
    """How many `isinstance` tests `extract(s)` makes in `spa.extraction`."""
    calls = 0

    def counted(obj, cls):
        nonlocal calls
        calls += 1
        return isinstance(obj, cls)

    with monkeypatch.context() as patched:
        patched.setattr(spa.extraction, "isinstance", counted, raising=False)
        extract(s)
    return calls


def test_extract_walks_no_cipher_whole(monkeypatch):
    """Extraction does not walk into a hash it receives: each more hash over
    a large term the role holds in a pair (exposed, not known), or built
    from held atoms (known, not exposed), costs the same few steps whatever
    that term's size."""
    atoms = [Atom(AtomKind.NONCE, f"N_{i}") for i in range(400)]
    big = pair_of(atoms)

    def strand(held, first, k):
        hashes = [Enc(Pair(big, Atom(AtomKind.NONCE, f"X_{i}")), FuncName.H, Empty())
                  for i in range(k)]
        return KStrand((A, *held), A, first + tuple(SignedTerm(-1, h) for h in hashes))

    for held, first in (((Pair(big, NB),), ()), (tuple(atoms), (SignedTerm(1, big),))):
        one, many = (_classified(monkeypatch, strand(held, first, k)) for k in (1, 17))
        assert one > len(atoms)  # the count sees the walk of the held atoms
        assert many - one < 16 * 30, (one, many)


@pytest.mark.parametrize("payload, atom, fresh", [
    (D, D, ()), (A, A, ()), (Pair(NA, A), A, (NA,)), (Enc(D, FuncName.SK, K), D, (K,)),
], ids=["userdata", "participant", "in-pair", "in-cipher"])
def test_data_and_roles_ungeneratable(payload, atom, fresh):
    # a participant or user-data atom held nowhere cannot be generated; the
    # parser refuses such a protocol first, so only a strand built by hand
    # gets here, and the oracle and the reference refuse it alike
    s = KStrand((B,), B, (SignedTerm(1, payload),), frozenset(fresh))
    message = f"B does not hold {atom.label} and {atom.kind.value} atoms cannot be generated"
    for fn in (op_count_oracle, naive_extract, extract):
        with pytest.raises(Ungeneratable) as exc:
            fn(s)
        assert str(exc.value) == message


@pytest.mark.parametrize("atom", [NA, K2, D, A], ids=lambda a: a.kind.value)
def test_sealed_atom_unrecoverable_whatever_its_kind(atom):
    # an atom held only inside a cipher the role cannot open is reported as
    # sealed before its kind is asked whether it could be generated
    s = KStrand((B, Enc(atom, FuncName.SK, K)), B, (SignedTerm(1, atom),))
    message = f"B holds {atom.label} only sealed inside terms it cannot open"
    for fn in (op_count_oracle, naive_extract, extract):
        with pytest.raises(Unrecoverable) as exc:
            fn(s)
        assert str(exc.value) == message
    assert exc.value.role == "B"  # extract's error names its role for the CLI


def test_atom_held_only_as_a_key_is_sealed():
    # the scan that classifies a failure looks at key positions too
    s = KStrand((B, Enc(D, FuncName.PK, K2)), B, (SignedTerm(1, K2),))
    for fn in (op_count_oracle, naive_extract, extract):
        with pytest.raises(Unrecoverable, match="^B holds K2 only sealed"):
            fn(s)


def test_parsed_specs_never_reach_ungeneratable():
    # the parser refuses a role that sends a participant or user-data atom
    # occurring nowhere in what it holds or receives, so extracting a parsed
    # protocol's role succeeds or finds the atom sealed, of any kind
    sealed = set()
    for seed in range(3000):
        spec = random_spec(random.Random(seed))
        for s in project(spec).strands:
            try:
                extract(s)
            except Unrecoverable as exc:
                sealed.add(spec.decls[str(exc).split()[2]])
    assert sealed == set(AtomKind)


def test_key_built_before_body():
    # {D}sk(K) with D held, K fresh: C_K precedes C_E
    s = KStrand((A, D), A, (SignedTerm(1, Enc(D, FuncName.SK, K)),), frozenset({K}))
    assert [op.classifier for op in extract(s).ops] == [
        Classifier.C_K, Classifier.C_E,
    ]


def test_recovery_path_frozen_at_scan():
    # entry (K, ({t}sk(K), (a, t))): the scan-time path to t runs through
    # the right pair branch (K not yet split out), so the walk is three
    # splits, never a decryption
    t = D
    entry = Pair(K, Pair(Enc(t, FuncName.SK, K), Pair(NA, t)))
    s = KStrand((B, entry), B, (SignedTerm(1, t),))
    ext = extract(s)
    assert ext.op_counts() == Counter({Classifier.C_I: 3})


def test_recovery_prefers_first_exposing_entry():
    # both entries expose N_a; the earlier one wins
    first = Pair(NA, K)
    second = Pair(K2, NA)
    s = KStrand((B, first, second), B, (SignedTerm(1, NA),))
    ext = extract(s)
    assert ext.ops[0].seq[0].payload == type_erase(first)


def test_late_key_opens_earlier_entry():
    # entry 0 seals D under K, entry 1 holds D in clear: once K arrives the
    # scan finds D in entry 0 first and decrypts; without K it splits entry 1
    sealed = Enc(D, FuncName.SK, K)
    clear = Pair(D, NA)
    late = KStrand((B, sealed, clear), B, (SignedTerm(-1, K), SignedTerm(1, D)))
    never = KStrand((B, sealed, clear), B, (SignedTerm(1, D),))
    for s, classifier, source in (
        (late, Classifier.C_D, sealed), (never, Classifier.C_I, clear),
    ):
        ext = extract(s)
        assert [op.classifier for op in ext.ops] == [classifier]
        assert ext.ops[0].seq[0].payload == type_erase(source)
        assert (ext, ext.comm()) == naive_extract(s)


def exact_outcome(fn, s):
    try:
        return fn(s)
    except (Ungeneratable, Unrecoverable) as exc:
        return type(exc).__name__, str(exc)


def extract_with_comm(s):
    ext = extract(s)
    check_extraction(ext)
    return ext, ext.comm()


# block width -> message counts; the scan reference is quadratic, so the
# widest blocks stop early
CHAIN_SIZES = {1: (1, 2, 3, 5, 8, 13, 21, 40), 4: (1, 2, 3, 5, 8, 13, 21), 8: (1, 2, 3, 5, 8, 13)}


def test_index_matches_naive_scan():
    specs = [chain_spec(n, w) for w, sizes in CHAIN_SIZES.items() for n in sizes]
    specs += [parse(read(path)) for path in CORPUS]
    rng = random.Random(0x1DE7)
    specs += [random_spec(rng) for _ in range(300)]
    strands = [s for spec in specs for s in project(spec).strands]
    strands += [random_strand(rng) for _ in range(2000)]
    for s in strands:
        # same process strand, same ops in the same order, same edges, same
        # refusals
        assert exact_outcome(extract_with_comm, s) == exact_outcome(naive_extract, s), (
            render_kstrand(s)
        )


def test_chain_extraction_scales():
    n, w = 320, 4
    strands = project(chain_spec(n, w)).strands
    expected = {"A": Counter(), "B": Counter()}
    for i in range(n):
        # each send generates the block, concatenates it (w - 1), the hash
        # input (w) and the payload (2), and encrypts, hashes and encrypts;
        # from the second message on it first splits its last reception
        # down to the sealed block and decrypts it
        sender = expected["A" if i % 2 == 0 else "B"]
        sender.update({"C_N": w, "C_C": 2 * w + 1, "C_E": 1, "C_H": 1, "C_PK": 1})
        if i > 0:
            sender.update({"C_D": 1, "C_I": 2})
    start = time.perf_counter()
    got = {s.participant.label: counts(extract(s)) for s in strands}
    elapsed = time.perf_counter() - start
    assert got == {role: dict(c) for role, c in expected.items()}
    assert elapsed < 10.0, f"n = {n}, w = {w} took {elapsed:.1f} s"


def _permute_rows(monkeypatch) -> None:
    # `C_C` reads its inputs right first and `C_I` yields its right half
    # first; every map `strands` derives from the rows is derived again, in
    # each module that imports it
    for c, parts in ((Classifier.C_C, ("right", "left", "")),
                     (Classifier.C_I, ("", "right", "left"))):
        op = OPS[c]
        monkeypatch.setitem(OPS, c, Op(op.signs, op.cost, op.sized, op.tag, parts, op.expected))
    names = ("BUILDS", "OPENS")
    derived = spa.strands._index(OPS)
    assert len(derived) == len(names)
    for name, new in zip(names, derived):
        old = getattr(spa.strands, name)
        for module in (spa.strands, spa.extraction, spa.parser):
            if getattr(module, name, None) is old:
                monkeypatch.setattr(module, name, new)


def test_extraction_follows_permuted_rows(monkeypatch):
    # construction's inputs, recovery's outputs and the edges' output
    # positions are read off the rows, so with permuted rows every edge
    # still joins one payload object; op counts and simplified costs stay
    # the same, since f_c folds into L_C
    strands = [s for spec in [parse(read(p)) for p in CORPUS] + [chain_spec(24, 4)]
               for s in project(spec).strands]

    def priced():
        return [(ext.op_counts(), simplify(cost_of_space(ext.space())))
                for ext in map(extract, strands)]

    before = priced()
    _permute_rows(monkeypatch)
    for s in strands:
        ext = extract(s)
        check_extraction(ext)
        assert all(op.seq[0].payload is op.seq[2].payload.right
                   for op in ext.ops if op.classifier is Classifier.C_C)
    # construction makes a pair's inputs in the order its row reads them
    ext = extract(KStrand((A,), A, (SignedTerm(1, Pair(NA, K2)),), frozenset({NA, K2})))
    assert [op.classifier for op in ext.ops] == [Classifier.C_K, Classifier.C_N, Classifier.C_C]
    assert priced() == before


def test_exposure_walk_opens_what_the_rows_open():
    """The exposure walk's descent is written in `_State._expose`, not read
    off the rows: it is the recovery policy (which containers a role can
    open, leftmost first) and extraction's hottest loop.  This ties it to
    the rows instead: the terms indexed directly under each container are
    exactly the outputs of the row that opens it."""
    sealed = Enc(NA, FuncName.SK, K2)  # its key arrives late
    hashed = Enc(D, FuncName.H, Empty())
    held = Enc(Pair(B, sealed), FuncName.SK, K)
    entry = Pair(held, Pair(hashed, NB))
    state = spa.extraction._State(KStrand((A, K, entry), A, (SignedTerm(-1, K2),)))

    def check(containers):
        under: dict = {}
        for t, (_, container) in state.exposed.items():
            if container is not None:
                under.setdefault(container, set()).add(t)
        assert set(under) == containers
        for container, terms in under.items():
            classifier, opened = OPENS[_tag(container._typed)]
            row = OPS[classifier]
            outputs = {getattr(container, part)
                       for part, sign in zip(row.parts, row.signs) if sign > 0}
            assert terms == outputs == {getattr(container, n) for n in opened}, container

    check({entry, held, Pair(B, sealed), Pair(hashed, NB)})
    state.learn(K2)
    check({entry, held, Pair(B, sealed), Pair(hashed, NB), sealed})


def test_equal_typed_payloads_are_one_object():
    specs = [chain_spec(6, 4)] + [parse(read(path)) for path in CORPUS]
    rng = random.Random(0x1D)
    specs += [random_spec(rng) for _ in range(50)]
    visited = 0
    for spec in specs:
        for s in project(spec).strands:
            try:
                ext = extract(s)
            except (Ungeneratable, Unrecoverable):
                continue
            first: dict = {}  # typed term -> the first object equal to it
            stack = [ev.payload for strand in (ext.process,) + ext.ops for ev in strand.seq]
            while stack:
                t = stack.pop()
                assert first.setdefault(t, t) is t, f"two objects for {t}"
                visited += 1
                stack.extend(getattr(t, f) for f in ("left", "right", "body") if hasattr(t, f))
    assert visited > 1000


def test_operations_of_one_shape_share_one_sequence():
    specs = [chain_spec(24, 4)] + [parse(read(path)) for path in CORPUS]
    rng = random.Random(0x5EC)
    specs += [random_spec(rng) for _ in range(100)]
    for i, spec in enumerate(specs):
        for s in project(spec).strands:
            try:
                ext = extract(s)
            except (Ungeneratable, Unrecoverable):
                continue
            shared = {id(op.seq) for op in ext.ops}
            # equal sequences are one object, and so are equal strands
            assert len(shared) == len(set(op.seq for op in ext.ops))
            assert len({id(op) for op in ext.ops}) == len(shared)
            assert (ext, ext.comm()) == naive_extract(s)
            if i == 0:
                # about ten times as many operations as shapes
                assert len(shared) <= 23 and len(ext.ops) >= 225


def test_emitted_ops_are_well_formed():
    for path in CORPUS:
        spec = parse(read(path))
        for s in project(spec).strands:
            for op in extract(s).ops:
                op._check()  # the shape check that building it ran


def test_extraction_deterministic():
    s = strand_of(ANDREW, "B")
    assert extract(s) == extract(s)


def test_space_includes_process_first():
    ext = extract(strand_of(KEY_WRAP, "B"))
    space = ext.space()
    assert space.strands[0] is ext.process
    assert space.strands[1:] == ext.ops


def test_oracle_agrees_on_corpus():
    for path in CORPUS:
        spec = parse(read(path))
        for s in project(spec).strands:
            assert extract(s).op_counts() == op_count_oracle(s)


def outcome(fn, s):
    try:
        return dict(fn(s))
    except (Ungeneratable, Unrecoverable) as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_oracle_agrees_on_random_specs(seed):
    spec = random_spec(random.Random(seed))
    for s in project(spec).strands:
        lhs = outcome(lambda x: extract(x).op_counts(), s)
        rhs = outcome(op_count_oracle, s)
        assert lhs == rhs
