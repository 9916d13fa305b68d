"""Strands, strand spaces, edges, and operation-strand shapes.

A knowledge strand holds a participant's knowledge plus its signed event
sequence; a typed strand holds a classifier plus signed typed events.  The
`fresh` field on KStrand marks atoms the participant will create during the
run: they are displayed as part of the knowledge set but are absent from the
working knowledge when operations are derived.

A strand space holds its strands and the communication edges recorded
when it was built; none is matched on payloads.  A node is its position,
(strand, event), so one strand object may stand at several positions.

`OPS` is the one table of operations: for each classifier but `C_P`, the
signs of its events, the condition its payloads meet and how a violation
reads, and the cost function with the positions of the payloads it sizes.
Shape checking, pricing (`costs.cost_of_space`) and strand emission
(`extraction`) all read it, so an operation is added as one row.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

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
    _hash_consed,
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


class CostFunc(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; see terms.AtomKind

    F_SK = "f_sk"
    F_PK = "f_pk"
    F_H = "f_h"
    F_KG = "f_kg"
    F_NG = "f_ng"
    F_S = "f_s"
    F_P = "f_p"
    F_C = "f_c"


@_hash_consed
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


@_hash_consed
class TStrand(Value):
    __slots__ = {"classifier": Classifier, "participant": Atom, "seq": tuple[SignedTerm, ...]}

    def _check(self):
        if self.participant.kind is not AtomKind.PARTICIPANT:
            raise ValueError("participant must be a participant atom")
        if not self.seq:
            raise ValueError("event sequence must be nonempty")
        if self.classifier is not Classifier.C_P:
            validate_op_strand(self)


@_hash_consed
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


# Conditions on the payload t at an operation's constrained position, given
# the whole event sequence.  Every strand is checked, so a condition reads
# `seq` directly and allocates nothing.  Positions count events from 1.
def _wraps(func: FuncName, body: int):
    return lambda t, seq: (
        isinstance(t, TEnc) and t.func is func and t.body == seq[body - 1].payload
    )


def _pairs(left: int, right: int):
    return lambda t, seq: (
        isinstance(t, TPair)
        and t.left == seq[left - 1].payload and t.right == seq[right - 1].payload
    )


def _basic(tt: BasicTT):
    return lambda t, seq: isinstance(t, Basic) and t.tt is tt


@_hash_consed
class Op(Value):
    """An operation's shape and cost; positions count events from 1."""

    __slots__ = {
        "signs": tuple[int, ...],  # the sign of each event, in order
        "cost": CostFunc,
        "sized": tuple[int, ...],  # the positions whose payload sizes `cost` takes
        "position": int,  # the payload `check` constrains, where a violation is reported
        "check": Callable,  # a condition on (payload, whole event sequence)
        "expected": str,  # what the payload at `position` must be
    }


OPS = {
    Classifier.C_E: Op((-1, 1), CostFunc.F_SK, (1,), 2, _wraps(FuncName.SK, 1),
                       "the input wrapped with sk"),
    Classifier.C_D: Op((-1, 1), CostFunc.F_SK, (2,), 1, _wraps(FuncName.SK, 2),
                       "an sk term whose body is the output"),
    Classifier.C_H: Op((-1, 1), CostFunc.F_H, (1,), 2, _wraps(FuncName.H, 1),
                       "the input wrapped with h"),
    Classifier.C_PK: Op((-1, 1), CostFunc.F_PK, (1,), 2, _wraps(FuncName.PK, 1),
                        "the input wrapped with pk"),
    Classifier.C_PVK: Op((-1, 1), CostFunc.F_PK, (1,), 2, _wraps(FuncName.PVK, 1),
                         "the input wrapped with pvk"),
    Classifier.C_K: Op((1,), CostFunc.F_KG, (1,), 1, _basic(BasicTT.K), "a key type"),
    Classifier.C_N: Op((1,), CostFunc.F_NG, (1,), 1, _basic(BasicTT.N), "a nonce type"),
    Classifier.C_C: Op((-1, -1, 1), CostFunc.F_C, (1, 2), 3, _pairs(1, 2),
                       "the pair of the two inputs"),
    Classifier.C_I: Op((-1, 1, 1), CostFunc.F_S, (1,), 1, _pairs(2, 3),
                       "the pair of the two outputs"),
}


def validate_op_strand(s: TStrand) -> None:
    """Check that an operation strand has exactly its classifier's shape."""
    c = s.classifier
    if c is Classifier.C_P:
        raise ValueError("process strands have no fixed shape")
    seq = s.seq
    op = OPS[c]
    if len(seq) != len(op.signs):
        _fail(c, 0, f"a sequence of {len(op.signs)} events")
    for i, (event, sign) in enumerate(zip(seq, op.signs), start=1):
        if event.sign != sign:
            _fail(c, i, "a reception" if sign < 0 else "a transmission")
    if not op.check(seq[op.position - 1].payload, seq):
        _fail(c, op.position, op.expected)


def _fail(classifier: Classifier, position: int, expected: str):
    raise ShapeViolation(f"{classifier.value}: position {position} must be {expected}")


def render_kstrand(s: KStrand) -> str:
    know = ", ".join(render_term(t) for t in s.knowledge)
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{{{know}}}, {s.participant.label}, ⟨{seq}⟩⟩"


def render_tstrand(s: TStrand) -> str:
    seq = ", ".join(render_signed(e) for e in s.seq)
    return f"⟨{s.classifier.value}, {s.participant.label}, ⟨{seq}⟩⟩"
