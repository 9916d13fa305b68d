"""Strands, strand spaces, nodes, edges, and operation-strand shapes.

A knowledge strand holds a participant's knowledge plus its signed event
sequence; a typed strand holds a classifier plus signed typed events.  The
`fresh` field on KStrand marks atoms the participant will create during the
run: they are displayed as part of the knowledge set but are absent from the
working knowledge when operations are derived.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import AmbiguousMatch, ShapeViolation
from .terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTerm,
    SignedTTerm,
    TEnc,
    TPair,
    TTerm,
    Term,
    render_signed,
    render_term,
)


class Classifier(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; see terms.AtomKind

    C_P = "C_P"
    C_E = "C_E"
    C_D = "C_D"
    C_H = "C_H"
    C_PK = "C_PK"
    C_PVK = "C_PVK"
    C_K = "C_K"
    C_N = "C_N"
    C_C = "C_C"
    C_I = "C_I"


@dataclass(frozen=True, slots=True)
class KStrand:
    knowledge: tuple[Term, ...]
    participant: Atom
    seq: tuple[SignedTerm, ...]
    fresh: frozenset[Atom] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.participant.kind is not AtomKind.PARTICIPANT:
            raise ValueError("participant must be a participant atom")
        if self.participant not in self.knowledge:
            raise ValueError("participant's own name must be in knowledge")
        if not self.seq:
            raise ValueError("event sequence must be nonempty")
        if len(set(self.knowledge)) != len(self.knowledge):
            raise ValueError("knowledge entries must be unique")

    def working_knowledge(self) -> tuple[Term, ...]:
        """Knowledge available before any event: fresh atoms excluded."""
        return tuple(t for t in self.knowledge if t not in self.fresh)


@dataclass(frozen=True, slots=True)
class TStrand:
    classifier: Classifier
    participant: Atom
    seq: tuple[SignedTTerm, ...]

    def __post_init__(self):
        if self.participant.kind is not AtomKind.PARTICIPANT:
            raise ValueError("participant must be a participant atom")
        if not self.seq:
            raise ValueError("event sequence must be nonempty")


@dataclass(frozen=True, slots=True)
class StrandSpace:
    strands: tuple


@dataclass(frozen=True, slots=True)
class Node:
    strand: object
    index: int  # 1-based position in the strand's sequence

    @property
    def event(self):
        return self.strand.seq[self.index - 1]

    @property
    def sign(self) -> int:
        return self.event.sign

    @property
    def payload(self):
        return self.event.payload


def enumerate_nodes(space: StrandSpace) -> list[Node]:
    """All nodes of the space, strand by strand, in sequence order."""
    return [
        Node(s, i)
        for s in space.strands
        for i in range(1, len(s.seq) + 1)
    ]


def edges(space: StrandSpace):
    """Return (succession edges, communication edges).

    Succession links consecutive nodes on each strand.  Communication links a
    positive node to a negative node with an identical payload on another
    strand.  Matching walks nodes in declaration order and pairs each side
    with the first pending opposite; a positive payload pending on negatives
    of two or more distinct other strands is rejected as ambiguous.
    """
    succ = []
    for s in space.strands:
        for i in range(1, len(s.seq)):
            succ.append((Node(s, i), Node(s, i + 1)))

    comm = []
    pending_pos: dict = {}  # payload -> list of unmatched positive nodes
    pending_neg: dict = {}  # payload -> list of unmatched negative nodes

    def take(pending: list, match: Node):
        # remove by identity: distinct strands can be value-equal
        for i, n in enumerate(pending):
            if n is match:
                del pending[i]
                return

    for node in enumerate_nodes(space):
        if node.sign > 0:
            waiting = [
                n for n in pending_neg.get(node.payload, [])
                if n.strand is not node.strand
            ]
            if waiting:
                if len({id(n.strand) for n in waiting}) > 1:
                    raise AmbiguousMatch(
                        f"payload {render_signed(node.event)[1:]} is awaited "
                        f"on {len(waiting)} strands"
                    )
                match = waiting[0]
                take(pending_neg[node.payload], match)
                comm.append((node, match))
            else:
                pending_pos.setdefault(node.payload, []).append(node)
        else:
            waiting = [
                n for n in pending_pos.get(node.payload, [])
                if n.strand is not node.strand
            ]
            if waiting:
                match = waiting[0]
                take(pending_pos[node.payload], match)
                comm.append((match, node))
            else:
                pending_neg.setdefault(node.payload, []).append(node)
    return succ, comm


def _is_basic(t: TTerm, tt: BasicTT) -> bool:
    return isinstance(t, Basic) and t.tt is tt


def _fail(classifier: Classifier, position: int, expected: str):
    raise ShapeViolation(f"{classifier.value}: position {position} must be {expected}")


# the event signs of each operation classifier's shape, in order
_SIGNS = {
    Classifier.C_E: (-1, 1),
    Classifier.C_H: (-1, 1),
    Classifier.C_PK: (-1, 1),
    Classifier.C_PVK: (-1, 1),
    Classifier.C_D: (-1, 1),
    Classifier.C_K: (1,),
    Classifier.C_N: (1,),
    Classifier.C_C: (-1, -1, 1),
    Classifier.C_I: (-1, 1, 1),
}

# classifiers whose output wraps their input, with the wrapping function
_WRAP_FUNC = {
    Classifier.C_E: FuncName.SK,
    Classifier.C_H: FuncName.H,
    Classifier.C_PK: FuncName.PK,
    Classifier.C_PVK: FuncName.PVK,
}


def validate_op_strand(s: TStrand) -> None:
    """Check that an operation strand has exactly its classifier's shape."""
    c = s.classifier
    if c is Classifier.C_P:
        raise ValueError("process strands have no fixed shape")
    seq = s.seq
    signs = _SIGNS[c]
    if len(seq) != len(signs):
        _fail(c, 0, f"a sequence of {len(signs)} events")
    for position, (event, sign) in enumerate(zip(seq, signs), start=1):
        if event.sign != sign:
            _fail(c, position, "a reception" if sign < 0 else "a transmission")
    func = _WRAP_FUNC.get(c)
    if func is not None:
        out = seq[1].payload
        if not (isinstance(out, TEnc) and out.func is func and out.body == seq[0].payload):
            _fail(c, 2, f"the input wrapped with {func.value}")
    elif c is Classifier.C_D:
        enc = seq[0].payload
        if not (
            isinstance(enc, TEnc) and enc.func is FuncName.SK
            and enc.body == seq[1].payload
        ):
            _fail(c, 1, "an sk term whose body is the output")
    elif c is Classifier.C_K:
        if not _is_basic(seq[0].payload, BasicTT.K):
            _fail(c, 1, "a key type")
    elif c is Classifier.C_N:
        if not _is_basic(seq[0].payload, BasicTT.N):
            _fail(c, 1, "a nonce type")
    elif c is Classifier.C_C:
        out = seq[2].payload
        if not (
            isinstance(out, TPair)
            and out.left == seq[0].payload and out.right == seq[1].payload
        ):
            _fail(c, 3, "the pair of the two inputs")
    else:  # C_I
        pair = seq[0].payload
        if not (
            isinstance(pair, TPair)
            and pair.left == seq[1].payload and pair.right == seq[2].payload
        ):
            _fail(c, 1, "the pair of the two outputs")


def render_kstrand(s: KStrand) -> str:
    know = ", ".join(render_term(t) for t in s.knowledge)
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{{{know}}}, {s.participant.label}, ⟨{seq}⟩⟩"


def render_tstrand(s: TStrand) -> str:
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{s.classifier.value}, {s.participant.label}, ⟨{seq}⟩⟩"
