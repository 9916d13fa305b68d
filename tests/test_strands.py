"""Strand structures, edges and the bundle property, shape checks."""

import random

import pytest

from spa import extract, parse, project
from spa.costs import CostFunc
from spa.errors import ShapeViolation, Ungeneratable, Unrecoverable
from spa.strands import (
    OPS,
    Classifier,
    KStrand,
    StrandSpace,
    TStrand,
    edges,
    render_kstrand,
    render_tstrand,
    validate_op_strand,
)
from spa.terms import (
    _TABLES,
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTerm,
    TEnc,
    TPair,
)

from .bundle import check_extraction, check_projection
from .generators import chain_spec, random_spec
from .helpers import CORPUS, read

A = Atom(AtomKind.PARTICIPANT, "A")
B = Atom(AtomKind.PARTICIPANT, "B")
NA = Atom(AtomKind.NONCE, "N_a")
K = Atom(AtomKind.KEY, "K")

r, n, k = Basic(BasicTT.R), Basic(BasicTT.N), Basic(BasicTT.K)


def kstrand(*events, knowledge=(A, NA), participant=A, fresh=frozenset()):
    return KStrand(tuple(knowledge), participant, tuple(events), fresh)


def test_kstrand_validated():
    with pytest.raises(ValueError):  # own name missing from knowledge
        KStrand((NA,), A, (SignedTerm(1, NA),))
    with pytest.raises(ValueError):  # empty sequence
        KStrand((A,), A, ())
    with pytest.raises(ValueError):  # duplicate knowledge entry
        KStrand((A, NA, NA), A, (SignedTerm(1, NA),))
    with pytest.raises(ValueError):  # participant must be a role atom
        KStrand((NA,), NA, (SignedTerm(1, NA),))


def test_working_knowledge_excludes_fresh():
    s = kstrand(SignedTerm(1, NA), fresh=frozenset({NA}))
    assert s.knowledge == (A, NA)
    assert s.working_knowledge() == (A,)


def test_tstrand_validated():
    with pytest.raises(ValueError):
        TStrand(Classifier.C_N, A, ())
    with pytest.raises(ValueError):
        TStrand(Classifier.C_N, NA, (SignedTerm(1, n),))


def test_succession_edges():
    s = kstrand(SignedTerm(1, NA), SignedTerm(-1, K), SignedTerm(1, K))
    t = TStrand(Classifier.C_N, A, (SignedTerm(1, n),))
    succ, comm = edges(StrandSpace((s, t)))
    assert succ == [((0, 1), (0, 2)), ((0, 2), (0, 3))]
    assert comm == ()


def test_communication_edges_are_the_recorded_ones():
    # no payload is matched: equal payloads on other strands draw nothing
    sa = KStrand((A,), A, (SignedTerm(1, NA), SignedTerm(-1, K)))
    sb = KStrand((B,), B, (SignedTerm(-1, NA), SignedTerm(1, K)))
    assert edges(StrandSpace((sa, sb)))[1] == ()
    comm = (((0, 1), (1, 1)), ((1, 2), (0, 2)))
    assert edges(StrandSpace((sa, sb), comm))[1] == comm


def test_one_strand_object_at_two_positions():
    t = TStrand(Classifier.C_H, A, (SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.H))))
    succ, _ = edges(StrandSpace((t, t)))
    assert succ == [((0, 1), (0, 2)), ((1, 1), (1, 2))]


def test_projection_links_each_message_to_its_events():
    spec = parse(
        "protocol three { roles B, C, A, D; nonce N; knows A: B, C, N; "
        "A -> B: N; A -> C: N; C -> B: N; }"
    )
    space = project(spec)
    assert [s.participant.label for s in space.strands] == ["B", "C", "A"]
    assert space.comm == (((2, 1), (0, 1)), ((2, 2), (1, 1)), ((1, 2), (0, 2)))
    check_projection(spec, space)


def _specs():
    specs = [parse(read(path)) for path in CORPUS]
    specs += [chain_spec(n, w) for n, w in ((1, 1), (5, 4), (12, 4), (6, 8))]
    rng = random.Random(0xB0D)
    specs += [random_spec(rng) for _ in range(150)]
    return specs


def test_every_space_is_a_bundle():
    extracted = edged = 0
    for spec in _specs():
        space = project(spec)
        check_projection(spec, space)
        for s in space.strands:
            try:
                ext = extract(s)
            except (Ungeneratable, Unrecoverable):
                continue
            extracted += 1
            edged += bool(check_extraction(ext).comm)
    assert extracted > 200 and edged > 100


def test_process_strand_has_no_edges():
    for path in CORPUS:
        for s in project(parse(read(path))).strands:
            space = check_extraction(extract(s))
            assert all(0 not in (i, k) for (i, _), (k, _) in space.comm)


def _op(classifier, *events):
    return TStrand(classifier, A, tuple(events))


def test_op_shapes_accepted():
    validate_op_strand(_op(Classifier.C_E, SignedTerm(-1, n),
                           SignedTerm(1, TEnc(n, FuncName.SK))))
    validate_op_strand(_op(Classifier.C_D, SignedTerm(-1, TEnc(n, FuncName.SK)),
                           SignedTerm(1, n)))
    validate_op_strand(_op(Classifier.C_H, SignedTerm(-1, n),
                           SignedTerm(1, TEnc(n, FuncName.H))))
    validate_op_strand(_op(Classifier.C_PK, SignedTerm(-1, n),
                           SignedTerm(1, TEnc(n, FuncName.PK))))
    validate_op_strand(_op(Classifier.C_PVK, SignedTerm(-1, n),
                           SignedTerm(1, TEnc(n, FuncName.PVK))))
    validate_op_strand(_op(Classifier.C_K, SignedTerm(1, k)))
    validate_op_strand(_op(Classifier.C_N, SignedTerm(1, n)))
    validate_op_strand(_op(Classifier.C_C, SignedTerm(-1, n), SignedTerm(-1, r),
                           SignedTerm(1, TPair(n, r))))
    validate_op_strand(_op(Classifier.C_I, SignedTerm(-1, TPair(n, r)),
                           SignedTerm(1, n), SignedTerm(1, r)))


# (classifier and events, the ShapeViolation building the strand raises)
REJECTED = [
    ((Classifier.C_E, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.PK))),
     "C_E: position 2 must be the input wrapped with sk"),  # wrong function
    ((Classifier.C_H, SignedTerm(-1, n), SignedTerm(1, TEnc(k, FuncName.H))),
     "C_H: position 2 must be the input wrapped with h"),  # body mismatch
    ((Classifier.C_K, SignedTerm(1, k), SignedTerm(1, k)),
     "C_K: position 0 must be a sequence of 1 events"),  # wrong arity
    ((Classifier.C_I, SignedTerm(-1, TPair(n, r))),
     "C_I: position 0 must be a sequence of 3 events"),
    ((Classifier.C_N, SignedTerm(1, k)),
     "C_N: position 1 must be a nonce type"),  # wrong basic type
    ((Classifier.C_K, SignedTerm(1, n)),
     "C_K: position 1 must be a key type"),
    ((Classifier.C_K, SignedTerm(-1, k)),
     "C_K: position 1 must be a transmission"),  # reception where transmission expected
    ((Classifier.C_C, SignedTerm(-1, n), SignedTerm(1, r), SignedTerm(1, TPair(n, r))),
     "C_C: position 2 must be a reception"),
    ((Classifier.C_C, SignedTerm(-1, n), SignedTerm(-1, r), SignedTerm(1, TPair(r, n))),
     "C_C: position 3 must be the pair of the two inputs"),  # pair is not of the inputs
    ((Classifier.C_I, SignedTerm(-1, TPair(n, r)), SignedTerm(1, r), SignedTerm(1, n)),
     "C_I: position 1 must be the pair of the two outputs"),
    ((Classifier.C_D, SignedTerm(-1, TEnc(n, FuncName.PK)), SignedTerm(1, n)),
     "C_D: position 1 must be an sk term whose body is the output"),
    ((Classifier.C_D, SignedTerm(1, TEnc(n, FuncName.SK)), SignedTerm(-1, n)),
     "C_D: position 1 must be a reception"),
    ((Classifier.C_PVK, SignedTerm(-1, n), SignedTerm(-1, TEnc(n, FuncName.PVK))),
     "C_PVK: position 2 must be a transmission"),
]


@pytest.mark.parametrize("fields, message", REJECTED, ids=[m for _, m in REJECTED])
def test_op_shapes_rejected(fields, message):
    # a typed strand's shape is checked when it is built, so a malformed
    # operation strand never exists, and never enters the table
    classifier, *events = fields
    with pytest.raises(ShapeViolation) as exc:
        _op(classifier, *events)
    assert str(exc.value) == message
    assert (classifier, A, tuple(events)) not in _TABLES[TStrand]


def test_ops_has_a_row_per_operation_classifier():
    assert set(OPS) == set(Classifier) - {Classifier.C_P}


def test_ops_costs_and_f_p_cover_every_cost_function():
    assert {op.cost for op in OPS.values()} | {CostFunc.F_P} == set(CostFunc)


def test_ops_positions_index_events_of_their_row():
    for op in OPS.values():
        assert all(1 <= i <= len(op.signs) for i in op.sized + (op.position,))


def test_process_strands_have_no_shape():
    # any nonempty sequence makes a process strand; it has no shape to check
    process = _op(Classifier.C_P, SignedTerm(1, n), SignedTerm(-1, k), SignedTerm(-1, k))
    with pytest.raises(ValueError):
        validate_op_strand(process)


def test_render_strands():
    s = KStrand((A, NA), A, (SignedTerm(1, NA),))
    assert render_kstrand(s) == "⟨{A, N_a}, A, ⟨+N_a⟩⟩"
    t = TStrand(Classifier.C_N, A, (SignedTerm(1, n),))
    assert render_tstrand(t) == "⟨C_N, A, ⟨+n⟩⟩"
