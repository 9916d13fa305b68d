"""Scan-based reference extractor for the differential tests.

A copy of the extractor before it kept an exposure index: recovery scans
every knowledge entry in insertion order for the first one exposing the
target and walks the leftmost path to it, and the sealed-atom check scans
every entry.  It is quadratic in protocol length and kept only so that
tests can require the indexed extractor to emit the same strands.

It also draws the communication edges as it goes: each known term
remembers the node that output it, and each operation, as it is emitted,
gets an edge from that node into each input it consumes.
"""

from __future__ import annotations

from spa.errors import Ungeneratable, Unrecoverable
from spa.extraction import Extraction
from spa.strands import Classifier, KStrand, TStrand
from spa.terms import (
    Atom,
    AtomKind,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    Term,
    type_erase,
)

_ENC_CLASSIFIER = {
    FuncName.SK: Classifier.C_E,
    FuncName.PK: Classifier.C_PK,
    FuncName.PVK: Classifier.C_PVK,
    FuncName.H: Classifier.C_H,
}

_GEN_CLASSIFIER = {
    AtomKind.NONCE: Classifier.C_N,
    AtomKind.KEY: Classifier.C_K,
}


class _State:
    def __init__(self, strand: KStrand):
        self.participant = strand.participant
        # known term -> (strand, event) of the output that made it, or None
        self.knowledge: dict = dict.fromkeys(strand.working_knowledge())
        self.ops: list[TStrand] = []
        self.comm: list = []

    def learn(self, t: Term, node=None) -> None:
        self.knowledge.setdefault(t, node)

    def emit(self, classifier: Classifier, inputs: tuple, *events: SignedTerm) -> int:
        """Append an operation consuming the terms `inputs` (its first
        events), draw an edge into each input made by an earlier operation,
        and return the new strand's position in the space."""
        self.ops.append(TStrand(classifier, self.participant, events))
        at = len(self.ops)  # the process strand comes first
        for event, t in enumerate(inputs, start=1):
            if self.knowledge[t] is not None:
                self.comm.append((self.knowledge[t], (at, event)))
        return at


def naive_extract(s: KStrand) -> tuple[Extraction, tuple]:
    """The extraction and its communication edges."""
    state = _State(s)
    process_seq = []
    for event in s.seq:
        if event.sign < 0:
            state.learn(event.payload)
        else:
            _construct(event.payload, state)
        process_seq.append(SignedTerm(event.sign, type_erase(event.payload)))
    process = TStrand(Classifier.C_P, s.participant, tuple(process_seq))
    return Extraction(process, tuple(state.ops), (), {}), tuple(state.comm)


def contains(t: Term, sub: Term, keys: bool = True) -> bool:
    """True when sub occurs in t (t itself included, and key positions
    unless `keys` is false)."""
    if t == sub:
        return True
    if isinstance(t, Pair):
        return contains(t.left, sub, keys) or contains(t.right, sub, keys)
    if isinstance(t, Enc):
        return contains(t.body, sub, keys) or keys and contains(t.key, sub)
    return False


def _construct(t: Term, state: _State) -> None:
    if t in state.knowledge:
        return
    if _recover(t, state):
        return
    if isinstance(t, Atom):
        if any(contains(k, t, keys=False) for k in state.knowledge):
            raise Unrecoverable(
                f"{state.participant.label} holds {t.label} only sealed "
                "inside terms it cannot open"
            )
        if any(contains(k, t) for k in state.knowledge):
            raise Unrecoverable(
                f"{state.participant.label} holds {t.label} only as the key "
                "of ciphers it did not make"
            )
        if t.kind not in _GEN_CLASSIFIER:
            raise Ungeneratable(
                f"{state.participant.label} does not hold {t.label} and "
                f"{t.kind.value} atoms cannot be generated"
            )
        at = state.emit(_GEN_CLASSIFIER[t.kind], (), SignedTerm(1, type_erase(t)))
        state.learn(t, (at, 1))
        return
    if isinstance(t, Pair):
        _construct(t.left, state)
        _construct(t.right, state)
        at = state.emit(
            Classifier.C_C,
            (t.left, t.right),
            SignedTerm(-1, type_erase(t.left)),
            SignedTerm(-1, type_erase(t.right)),
            SignedTerm(1, type_erase(t)),
        )
        state.learn(t, (at, 3))
        return
    assert isinstance(t, Enc)
    if t.func is not FuncName.H:
        _construct(t.key, state)
    _construct(t.body, state)
    at = state.emit(
        _ENC_CLASSIFIER[t.func],
        (t.body,),
        SignedTerm(-1, type_erase(t.body)),
        SignedTerm(1, type_erase(t)),
    )
    state.learn(t, (at, 2))


def _recover(target: Term, state: _State) -> bool:
    for entry in state.knowledge:
        path = _path_to(entry, target, state.knowledge)
        if path is None:
            continue
        for step, child in zip(path, path[1:]):
            if isinstance(step, Pair):
                if child not in state.knowledge:
                    at = state.emit(
                        Classifier.C_I,
                        (step,),
                        SignedTerm(-1, type_erase(step)),
                        SignedTerm(1, type_erase(step.left)),
                        SignedTerm(1, type_erase(step.right)),
                    )
                    state.learn(step.left, (at, 2))
                    state.learn(step.right, (at, 3))
            else:
                if child not in state.knowledge:
                    at = state.emit(
                        Classifier.C_D,
                        (step,),
                        SignedTerm(-1, type_erase(step)),
                        SignedTerm(1, type_erase(step.body)),
                    )
                    state.learn(step.body, (at, 2))
        return True
    return False


def _path_to(container: Term, target: Term, knowledge) -> list[Term] | None:
    if container == target:
        return [container]
    if isinstance(container, Pair):
        for side in (container.left, container.right):
            path = _path_to(side, target, knowledge)
            if path is not None:
                return [container] + path
    if (
        isinstance(container, Enc)
        and container.func is FuncName.SK
        and container.key in knowledge
    ):
        path = _path_to(container.body, target, knowledge)
        if path is not None:
            return [container] + path
    return None
