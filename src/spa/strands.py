"""Strands, strand spaces, edges, and operation-strand shapes.

A knowledge strand holds a participant's knowledge plus its signed event
sequence; a typed strand holds a classifier plus signed typed events.  The
`fresh` field on KStrand marks atoms the participant will create during the
run: they are displayed as part of the knowledge set but are absent from the
working knowledge when operations are derived, and extraction generates
exactly these atoms, each at its first send.

A strand space holds its strands and the communication edges recorded
when it was built; none is matched on payloads.  A node is its position,
(strand, event), so one strand object may stand at several positions.

`OPS` is the one table of operations: for each classifier but `C_P`, the
signs of its events, its subject (the typed term it builds or opens: what
it is, and which part of it stands at each event, "" the subject itself),
how a violation reads, and the cost function with the positions of the
payloads it sizes.  Shape checking (`TStrand`), the parser's rule on which
atoms a role may generate, pricing and extraction all read it.  `BUILDS`
and `OPENS` (`_index`) map a row's tag to the classifier that builds or
opens a subject of that tag and the names of the subject's other parts;
`_tag` is the one rule for a typed term's tag, and every module keys its
lookups by it.  With one lookup, extraction finds the row that builds or
opens a term and reads by name the parts it consumes or yields; it reads
the events, from which DOT edges leave, off the row (`Op.events`).  An
operation on an existing kind of term is a row here and nowhere else.
"""

from __future__ import annotations

from .errors import ShapeViolation
from .terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTerm,
    TEnc,
    TPair,
    Term,
    Value,
    _IdentityEnum,
    render_signed,
    render_term,
)


class Classifier(_IdentityEnum):
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


class CostFunc(_IdentityEnum):
    F_SK = "f_sk"
    F_PK = "f_pk"
    F_H = "f_h"
    F_KG = "f_kg"
    F_NG = "f_ng"
    F_S = "f_s"
    F_P = "f_p"
    F_C = "f_c"


class KStrand(Value):
    __slots__ = {"knowledge": tuple[Term, ...], "participant": Atom,
                 "seq": tuple[SignedTerm, ...], "fresh": frozenset[Atom]}
    _defaults = (frozenset(),)

    def _check(self):
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


class TStrand(Value):
    __slots__ = {"classifier": Classifier, "participant": Atom, "seq": tuple[SignedTerm, ...]}

    def _check(self):
        if self.participant.kind is not AtomKind.PARTICIPANT:
            raise ValueError("participant must be a participant atom")
        seq, c = self.seq, self.classifier
        if not seq:
            raise ValueError("event sequence must be nonempty")
        if c is Classifier.C_P:
            return
        # an operation strand has exactly its classifier's shape
        op = OPS[c]
        if len(seq) != len(op.signs):
            _fail(c, 0, f"a sequence of {len(op.signs)} events")
        for i, (event, sign) in enumerate(zip(seq, op.signs), start=1):
            if event.sign != sign:
                _fail(c, i, "a reception" if sign < 0 else "a transmission")
        subject = seq[op.parts.index("")].payload
        if _tag(subject) is not op.tag or [e.payload for e in seq] != op.payloads(subject):
            _fail(c, op.parts.index("") + 1, op.expected)


class StrandSpace(Value):
    # `comm`: communication edges (transmitting node, receiving node); a node
    # is its position (strand, event): strands count from 0, events from 1
    __slots__ = {"strands": tuple[(KStrand, TStrand), ...],
                 "comm": tuple[tuple[tuple[int, int], tuple[int, int]], ...]}
    _defaults = ((),)


def edges(space: StrandSpace):
    """Return (succession edges, communication edges) as node positions:
    consecutive events on each strand, and the edges the space records
    (see `parser.project` and `extraction.Extraction.comm`)."""
    succ = [
        ((i, j), (i, j + 1))
        for i, s in enumerate(space.strands)
        for j in range(1, len(s.seq))
    ]
    return succ, space.comm


class Op(Value):
    """An operation's shape and cost; positions count events from 1.

    The subject is the typed term the operation builds or opens, at the
    event whose part is ""; every other payload is one of its fields."""

    __slots__ = {
        "signs": tuple[int, ...],  # the sign of each event, in order
        "cost": CostFunc,
        "sized": tuple[int, ...],  # the positions whose payload sizes `cost` takes
        "tag": (FuncName, BasicTT, type),  # what the subject is (see `_tag`)
        "parts": tuple[str, ...],  # each event's payload: "" the subject, else its field
        "expected": str,  # what the subject's payload must be
    }

    def payloads(self, subject) -> list:
        """The payload of each event of this operation on `subject`."""
        return [getattr(subject, part) if part else subject for part in self.parts]

    def events(self, subject) -> tuple[SignedTerm, ...]:
        """The events of this operation on `subject`."""
        return tuple(map(SignedTerm, self.signs, self.payloads(subject)))


def _tag(t):
    # what a typed term is, as a row's `tag` names it: a cipher's function,
    # an atom's basic type, or else its class (a pair's `TPair`); the one
    # rule for a term's row, by which every module keys BUILDS and OPENS
    cls = type(t)
    return t.func if cls is TEnc else t.tt if cls is Basic else cls


OPS = {
    Classifier.C_E: Op((-1, 1), CostFunc.F_SK, (1,), FuncName.SK, ("body", ""),
                       "the input wrapped with sk"),
    Classifier.C_D: Op((-1, 1), CostFunc.F_SK, (2,), FuncName.SK, ("", "body"),
                       "an sk term whose body is the output"),
    Classifier.C_H: Op((-1, 1), CostFunc.F_H, (1,), FuncName.H, ("body", ""),
                       "the input wrapped with h"),
    Classifier.C_PK: Op((-1, 1), CostFunc.F_PK, (1,), FuncName.PK, ("body", ""),
                        "the input wrapped with pk"),
    Classifier.C_PVK: Op((-1, 1), CostFunc.F_PK, (1,), FuncName.PVK, ("body", ""),
                         "the input wrapped with pvk"),
    Classifier.C_K: Op((1,), CostFunc.F_KG, (1,), BasicTT.K, ("",), "a key type"),
    Classifier.C_N: Op((1,), CostFunc.F_NG, (1,), BasicTT.N, ("",), "a nonce type"),
    Classifier.C_C: Op((-1, -1, 1), CostFunc.F_C, (1, 2), TPair, ("left", "right", ""),
                       "the pair of the two inputs"),
    Classifier.C_I: Op((-1, 1, 1), CostFunc.F_S, (1,), TPair, ("", "left", "right"),
                       "the pair of the two outputs"),
}


def _index(ops: dict) -> tuple:
    """The maps read off the rows `ops`, BUILDS and OPENS: tag -> the
    classifier that builds or opens a subject of that tag and the names of
    the subject's other parts, in row order: a builder's inputs, which it
    receives, or an opener's outputs, which it sends."""
    builds, opens = {}, {}
    for c, op in ops.items():
        names = tuple(part for part in op.parts if part)
        (builds if op.signs[op.parts.index("")] > 0 else opens)[op.tag] = c, names
    return builds, opens


BUILDS, OPENS = _index(OPS)


def _fail(classifier: Classifier, position: int, expected: str):
    raise ShapeViolation(f"{classifier.value}: position {position} must be {expected}")


def render_kstrand(s: KStrand) -> str:
    know = ", ".join(render_term(t) for t in s.knowledge)
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{{{know}}}, {s.participant.label}, ⟨{seq}⟩⟩"


def render_tstrand(s: TStrand) -> str:
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{s.classifier.value}, {s.participant.label}, ⟨{seq}⟩⟩"
