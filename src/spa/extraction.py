"""Compilation of a knowledge strand into typed operation strands.

Walking the event sequence in order: a receive stores the term whole and
costs nothing; a send triggers construction of its term.  Construction
resolves each subterm by the first applicable rule: already known, recover
from known material (splitting pairs, decrypting under held symmetric
keys), generate (a nonce or key that occurs nowhere in knowledge),
otherwise fail.  An atom that occurs in knowledge only where the role
cannot reach it is `Unrecoverable`, whatever its kind.  An unheld
participant or user-data atom that occurs nowhere is `Ungeneratable`; the
parser refuses that protocol first, so only a strand built by hand gets
that far.  Every operation emits one classifier strand over type-erased
terms, and every term built, received, or recovered joins the knowledge
set, so nothing is ever built twice.  The classifier is the one that
builds or opens the term's kind (`strands.BUILDS`, `strands.OPENS`), and
its events are the row's parts of the typed term (`Op.events`), so no
operation is written here.  Terms are hash-consed process-wide and held
weakly (see `terms`), so equal typed terms are one object; each instance
term carries its typed term from construction, so extraction erases
nothing and builds no typed term.  Operations of one shape (classifier
and typed subject) share one strand object, built on its first use.
Pricing handles a shared strand once.

Dataflow is recorded, not guessed.  The knowledge set maps each term to
the operation that made it (None for a term from outside: initial
knowledge, receptions), and each operation keeps the instance terms it
consumes.  `Extraction.comm` turns the two into communication edges only
when asked (DOT does): every operation input made by an earlier
operation gets one edge from that operation's output.  The process strand
gets none.

Recovery takes the path from the first knowledge entry (in insertion
order) that exposes the target, descending leftmost through pairs and
symmetric ciphers whose key is held, and fixes that path when it starts.
Rather than scan the knowledge for every target, the extractor keeps an
exposure index up to date as it learns.  Each exposed occurrence gets a
rank: entries are numbered in insertion order and their positions in
preorder over pairs and `sk` bodies (held key or not), and ranks compare
by entry first, then by position.  The index keeps, for each exposed term,
its lowest rank and the container it sits in there, which is exactly the
occurrence the scan would find first.  A cipher whose key is not held
waits under that key and is opened, at its original positions, when the
key atom is learned.  Only terms that arrive from outside (initial
knowledge, receptions, generated atoms) are walked: split halves,
decrypted bodies and constructed terms are reachable, at a lower rank,
from entries already walked.  The same walk collects the atoms it meets;
the ciphers it does not enter (sealed `sk` ciphers, asymmetric ciphers and
hashes) get a walk of their own below them, which stops at every known or
exposed term: its atoms are collected already.
"""

from __future__ import annotations

from collections import Counter

from .errors import Ungeneratable, Unrecoverable
from .strands import BUILDS, OPENS, OPS, Classifier, KStrand, StrandSpace, TStrand
from .terms import Atom, Enc, FuncName, Pair, SignedTerm, Term


class Extraction:
    __slots__ = ("process", "ops", "inputs", "made")

    def __init__(self, process: TStrand, ops: tuple, inputs: tuple, made: dict):
        self.process = process
        self.ops = ops
        # dataflow bookkeeping, read only by `comm`: each op's input instance
        # terms, and each known term -> the index of the op that made it, or None
        self.inputs = inputs
        self.made = made

    def __eq__(self, other):
        if type(other) is not Extraction:
            return NotImplemented
        return self.process is other.process and self.ops == other.ops

    def space(self) -> StrandSpace:
        """The process strand, then the operations; communication edges,
        which pricing does not read, come from `comm`."""
        return StrandSpace((self.process,) + self.ops)

    def comm(self) -> tuple:
        """Communication edges over `space()`'s positions: each op output
        to each op input it feeds, in order of the inputs."""
        comm = []
        for j, terms in enumerate(self.inputs):
            for p, t in enumerate(terms, start=1):
                i = self.made[t]
                if i is None:
                    continue
                producer = self.ops[i]
                if producer.classifier is Classifier.C_I:  # outputs: left, right
                    out = 2 if t is self.inputs[i][0].left else 3
                else:
                    out = len(producer.seq)  # the one output is last
                comm.append(((i + 1, out), (j + 1, p)))
        return tuple(comm)

    def op_counts(self) -> Counter:
        return Counter(op.classifier for op in self.ops)


class _State:
    """Private per-extraction state: ordered knowledge, what it exposes, and
    emitted strands."""

    def __init__(self, strand: KStrand):
        self.participant = strand.participant
        # known term -> index of the op that made it, None from outside;
        # insertion order is recovery's entry order
        self.knowledge: dict[Term, int | None] = {}
        # every atom occurring in knowledge, key positions included
        self.atoms: set[Atom] = set()
        # exposed term -> (lowest rank, container there or None for an entry)
        self.exposed: dict[Term, tuple[int, Term | None]] = {}
        # key atom -> [(sk cipher exposed but for that key, rank of its body)]
        self.sealed: dict[Atom, list[tuple[Enc, int]]] = {}
        # ranks are one preorder count over all walked entries, so comparing
        # two ranks compares entry order first, then position in the entry
        self.next_rank = 0
        # (classifier, typed subject) -> the one strand every operation of
        # that shape shares: every payload is a field of the subject
        self.strands: dict[tuple, TStrand] = {}
        self.ops: list[TStrand] = []
        self.inputs: list[tuple[Term, ...]] = []  # each op's input terms
        for t in strand.working_knowledge():
            self.learn(t)

    def learn(self, t: Term, by: int | None = None, walk: bool = True) -> None:
        """Add t to knowledge, made by op `by` (None: from outside).
        `walk=False` is for split halves and decrypted bodies, which are
        reachable from entries already walked."""
        if t in self.knowledge:
            return
        self.knowledge[t] = by
        if walk:
            self.next_rank = self._expose(t, None, self.next_rank)
        if isinstance(t, Atom):
            for cipher, rank in self.sealed.pop(t, ()):
                self._expose(cipher.body, cipher, rank)

    def _expose(self, root: Term, container: Term | None, rank: int) -> int:
        """Index the occurrences under root, root ranked `rank`, and add
        every atom in root to `atoms`; return the rank that follows root's
        subtree."""
        atoms, knowledge, exposed = self.atoms, self.knowledge, self.exposed
        stack = [(root, container)]
        while stack:
            t, container = stack.pop()
            best = exposed.get(t)
            if best is None or rank < best[0]:
                exposed[t] = (rank, container)
            rank += 1
            if isinstance(t, Pair):
                stack.append((t.right, t))
                stack.append((t.left, t))
            elif isinstance(t, Atom):
                atoms.add(t)
            elif isinstance(t, Enc):
                if t.func is FuncName.SK and t.key in knowledge:
                    # a held key is in `atoms` already
                    stack.append((t.body, t))
                else:
                    # t is exposed now, and so are the terms left on `stack`
                    parts = [t.key, t.body]
                    while parts:
                        u = parts.pop()
                        if u in knowledge or u in exposed:
                            continue
                        if isinstance(u, Atom):
                            atoms.add(u)
                        elif isinstance(u, Pair):
                            parts += (u.left, u.right)
                        elif isinstance(u, Enc):
                            parts += (u.key, u.body)
                    if t.func is FuncName.SK:
                        self.sealed.setdefault(t.key, []).append((t, rank))
                        rank += _span(t.body)
        return rank

    def emit(self, classifier: Classifier, subject, inputs: tuple[Term, ...]) -> int:
        """Append the strand of `classifier` on the typed term `subject` as
        an op consuming the terms `inputs`; return its index."""
        strand = self.strands.get((classifier, subject))
        if strand is None:
            strand = self.strands[classifier, subject] = TStrand(
                classifier, self.participant, OPS[classifier].events(subject)
            )
        self.ops.append(strand)
        self.inputs.append(inputs)
        return len(self.ops) - 1


def _span(t: Term) -> int:
    """Number of rank positions t occupies: itself, and below it every pair
    component and `sk` body."""
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, Pair):
            stack.append(t.right)
            stack.append(t.left)
        elif isinstance(t, Enc) and t.func is FuncName.SK:
            stack.append(t.body)
    return n


def extract(s: KStrand) -> Extraction:
    """Process strand plus operation strands for one participant."""
    state = _State(s)
    for event in s.seq:
        if event.sign < 0:
            state.learn(event.payload)
        elif event.payload not in state.knowledge:
            _construct(event.payload, state)
    seq = tuple(SignedTerm(event.sign, event.payload._typed) for event in s.seq)
    process = TStrand(Classifier.C_P, s.participant, seq)
    return Extraction(process, tuple(state.ops), tuple(state.inputs), state.knowledge)


def _construct(t: Term, state: _State) -> None:
    """Make t known, emitting the operations that build it; t is not known."""
    if t in state.exposed:
        _recover(t, state)
        return
    if isinstance(t, Atom):
        role = state.participant.label
        if t in state.atoms:
            raise Unrecoverable(
                f"{role} holds {t.label} only sealed inside terms it cannot open", role
            )
        classifier = BUILDS.get(t._typed.tt)
        if classifier is None:
            raise Ungeneratable(
                f"{role} does not hold {t.label} and "
                f"{t.kind.value} atoms cannot be generated", role
            )
        state.learn(t, state.emit(classifier, t._typed, ()))
        return
    knowledge = state.knowledge
    if isinstance(t, Pair):
        if t.left not in knowledge:
            _construct(t.left, state)
        if t.right not in knowledge:
            _construct(t.right, state)
        by = state.emit(BUILDS[type(t._typed)], t._typed, (t.left, t.right))
    else:
        assert isinstance(t, Enc)
        if t.func is not FuncName.H and t.key not in knowledge:
            _construct(t.key, state)
        if t.body not in knowledge:
            _construct(t.body, state)
        by = state.emit(BUILDS[t.func], t._typed, (t.body,))
    # not walked: built from known parts; if t was recovered meanwhile, it stays so
    knowledge.setdefault(t, by)


def _recover(target: Term, state: _State) -> None:
    """Split/decrypt the path from the target's first exposing entry down
    to the target, which `state.exposed` holds.

    The path is read from the index before any step runs, so it is the one
    the knowledge exposes at that moment; steps whose outputs are already
    known emit nothing.
    """
    path = [target]
    container = state.exposed[target][1]
    while container is not None:
        path.append(container)
        container = state.exposed[container][1]
    path.reverse()
    for step, child in zip(path, path[1:]):
        if child in state.knowledge:
            continue
        if isinstance(step, Pair):
            by = state.emit(OPENS[type(step._typed)], step._typed, (step,))
            state.learn(step.left, by, walk=False)
            state.learn(step.right, by, walk=False)
        else:
            by = state.emit(OPENS[step.func], step._typed, (step,))
            state.learn(step.body, by, walk=False)
