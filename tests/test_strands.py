"""Strand structures, node enumeration, edge matching, shape checks."""

import pytest

from spa.costs import CostFunc
from spa.errors import AmbiguousMatch, ShapeViolation
from spa.strands import (
    OPS,
    Classifier,
    KStrand,
    Node,
    StrandSpace,
    TStrand,
    edges,
    enumerate_nodes,
    render_kstrand,
    render_tstrand,
    validate_op_strand,
)
from spa.terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTTerm,
    SignedTerm,
    TEnc,
    TPair,
)

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
        TStrand(Classifier.C_N, NA, (SignedTTerm(1, n),))


def test_enumerate_nodes_order_and_indexing():
    s1 = kstrand(SignedTerm(1, NA), SignedTerm(-1, K))
    s2 = TStrand(Classifier.C_N, A, (SignedTTerm(1, n),))
    nodes = enumerate_nodes(StrandSpace((s1, s2)))
    assert [(id(nd.strand), nd.index) for nd in nodes] == [
        (id(s1), 1), (id(s1), 2), (id(s2), 1),
    ]
    assert nodes[0].sign == 1 and nodes[0].payload == NA
    assert nodes[1].sign == -1 and nodes[1].payload == K


def test_succession_edges():
    s = kstrand(SignedTerm(1, NA), SignedTerm(-1, K), SignedTerm(1, K))
    succ, comm = edges(StrandSpace((s,)))
    assert [(a.index, b.index) for a, b in succ] == [(1, 2), (2, 3)]
    assert comm == []


def test_communication_edges_match_signs_across_strands():
    sa = KStrand((A,), A, (SignedTerm(1, NA), SignedTerm(-1, K)))
    sb = KStrand((B,), B, (SignedTerm(-1, NA), SignedTerm(1, K)))
    succ, comm = edges(StrandSpace((sa, sb)))
    assert len(succ) == 2
    assert [(a.strand.participant.label, b.strand.participant.label) for a, b in comm] == [
        ("A", "B"), ("B", "A"),
    ]
    for a, b in comm:
        assert a.sign > 0 and b.sign < 0 and a.payload == b.payload


def test_no_self_communication():
    s = kstrand(SignedTerm(1, NA), SignedTerm(-1, NA))
    _, comm = edges(StrandSpace((s,)))
    assert comm == []


def test_value_equal_strands_keep_distinct_nodes():
    # two strands with identical content: matching is by identity
    sa = KStrand((A,), A, (SignedTerm(1, NA),))
    sb = KStrand((B,), B, (SignedTerm(-1, NA),))
    sc = KStrand((B,), B, (SignedTerm(-1, NA),))
    _, comm = edges(StrandSpace((sa, sb)))
    assert len(comm) == 1
    with pytest.raises(AmbiguousMatch):
        edges(StrandSpace((sb, sc, sa)))


def test_ambiguous_match_rejected():
    sa = KStrand((A,), A, (SignedTerm(-1, NA),))
    sb = KStrand((B,), B, (SignedTerm(-1, NA),))
    sender = KStrand((Atom(AtomKind.PARTICIPANT, "C"),),
                     Atom(AtomKind.PARTICIPANT, "C"), (SignedTerm(1, NA),))
    with pytest.raises(AmbiguousMatch):
        edges(StrandSpace((sa, sb, sender)))


def _op(classifier, *events):
    return TStrand(classifier, A, tuple(events))


def test_op_shapes_accepted():
    validate_op_strand(_op(Classifier.C_E, SignedTTerm(-1, n),
                           SignedTTerm(1, TEnc(n, FuncName.SK))))
    validate_op_strand(_op(Classifier.C_D, SignedTTerm(-1, TEnc(n, FuncName.SK)),
                           SignedTTerm(1, n)))
    validate_op_strand(_op(Classifier.C_H, SignedTTerm(-1, n),
                           SignedTTerm(1, TEnc(n, FuncName.H))))
    validate_op_strand(_op(Classifier.C_PK, SignedTTerm(-1, n),
                           SignedTTerm(1, TEnc(n, FuncName.PK))))
    validate_op_strand(_op(Classifier.C_PVK, SignedTTerm(-1, n),
                           SignedTTerm(1, TEnc(n, FuncName.PVK))))
    validate_op_strand(_op(Classifier.C_K, SignedTTerm(1, k)))
    validate_op_strand(_op(Classifier.C_N, SignedTTerm(1, n)))
    validate_op_strand(_op(Classifier.C_C, SignedTTerm(-1, n), SignedTTerm(-1, r),
                           SignedTTerm(1, TPair(n, r))))
    validate_op_strand(_op(Classifier.C_I, SignedTTerm(-1, TPair(n, r)),
                           SignedTTerm(1, n), SignedTTerm(1, r)))


# (strand, its ShapeViolation message)
REJECTED = [
    (_op(Classifier.C_E, SignedTTerm(-1, n), SignedTTerm(1, TEnc(n, FuncName.PK))),
     "C_E: position 2 must be the input wrapped with sk"),  # wrong function
    (_op(Classifier.C_H, SignedTTerm(-1, n), SignedTTerm(1, TEnc(k, FuncName.H))),
     "C_H: position 2 must be the input wrapped with h"),  # body mismatch
    (_op(Classifier.C_K, SignedTTerm(1, k), SignedTTerm(1, k)),
     "C_K: position 0 must be a sequence of 1 events"),  # wrong arity
    (_op(Classifier.C_I, SignedTTerm(-1, TPair(n, r))),
     "C_I: position 0 must be a sequence of 3 events"),
    (_op(Classifier.C_N, SignedTTerm(1, k)),
     "C_N: position 1 must be a nonce type"),  # wrong basic type
    (_op(Classifier.C_K, SignedTTerm(1, n)),
     "C_K: position 1 must be a key type"),
    (_op(Classifier.C_K, SignedTTerm(-1, k)),
     "C_K: position 1 must be a transmission"),  # reception where transmission expected
    (_op(Classifier.C_C, SignedTTerm(-1, n), SignedTTerm(1, r), SignedTTerm(1, TPair(n, r))),
     "C_C: position 2 must be a reception"),
    (_op(Classifier.C_C, SignedTTerm(-1, n), SignedTTerm(-1, r), SignedTTerm(1, TPair(r, n))),
     "C_C: position 3 must be the pair of the two inputs"),  # pair is not of the inputs
    (_op(Classifier.C_I, SignedTTerm(-1, TPair(n, r)), SignedTTerm(1, r), SignedTTerm(1, n)),
     "C_I: position 1 must be the pair of the two outputs"),
    (_op(Classifier.C_D, SignedTTerm(-1, TEnc(n, FuncName.PK)), SignedTTerm(1, n)),
     "C_D: position 1 must be an sk term whose body is the output"),
    (_op(Classifier.C_D, SignedTTerm(1, TEnc(n, FuncName.SK)), SignedTTerm(-1, n)),
     "C_D: position 1 must be a reception"),
    (_op(Classifier.C_PVK, SignedTTerm(-1, n), SignedTTerm(-1, TEnc(n, FuncName.PVK))),
     "C_PVK: position 2 must be a transmission"),
]


@pytest.mark.parametrize("strand, message", REJECTED, ids=[m for _, m in REJECTED])
def test_op_shapes_rejected(strand, message):
    with pytest.raises(ShapeViolation) as exc:
        validate_op_strand(strand)
    assert str(exc.value) == message


def test_ops_has_a_row_per_operation_classifier():
    assert set(OPS) == set(Classifier) - {Classifier.C_P}


def test_ops_costs_and_f_p_cover_every_cost_function():
    assert {op.cost for op in OPS.values()} | {CostFunc.F_P} == set(CostFunc)


def test_ops_positions_index_events_of_their_row():
    for op in OPS.values():
        assert all(1 <= i <= len(op.signs) for i in op.sized + (op.position,))


def test_process_strands_have_no_shape():
    with pytest.raises(ValueError):
        validate_op_strand(_op(Classifier.C_P, SignedTTerm(1, n)))


def test_render_strands():
    s = KStrand((A, NA), A, (SignedTerm(1, NA),))
    assert render_kstrand(s) == "⟨{A, N_a}, A, ⟨+N_a⟩⟩"
    t = TStrand(Classifier.C_N, A, (SignedTTerm(1, n),))
    assert render_tstrand(t) == "⟨C_N, A, ⟨+n⟩⟩"


def test_node_accessors():
    s = kstrand(SignedTerm(1, NA))
    node = Node(s, 1)
    assert node.event == SignedTerm(1, NA)
    assert node.sign == 1
    assert node.payload == NA
