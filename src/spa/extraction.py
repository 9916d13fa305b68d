"""Compilation of a knowledge strand into typed operation strands.

Walking the event sequence in order: a receive stores the term whole and
costs nothing; a send triggers construction of its term.  Construction
resolves each subterm by the first applicable rule: already known, recover
from known material (splitting pairs, decrypting under held symmetric
keys), generate (an atom the parser marked in `KStrand.fresh`, whose tag
some row builds), otherwise fail.  Only a failure scans the knowledge: an
atom that occurs there only where the role cannot reach it is
`Unrecoverable`, whatever its kind, and one that occurs nowhere is
`Ungeneratable`, which the parser leaves only a hand-built strand to
reach.  Every term built, received, or recovered joins the knowledge
set, so nothing is ever built twice.

No operation is written here.  Each is the `strands.OPS` row that builds
or opens the term's kind: its events are the row's parts of the subject,
and one lookup in `BUILDS` or `OPENS`, keyed by `strands._tag`, gives the
row's classifier and the names of its other parts, the inputs
construction makes first or the outputs recovery learns; extraction has
no tag rule of its own.  The one rule kept here, that a cipher's key is
held and not consumed, is no event of any row.  Terms are hash-consed
and each carries its typed term (see `terms`), so extraction builds no
typed term, and operations of one shape (classifier and typed subject)
share one strand object, which pricing handles once.

Dataflow is recorded, not guessed: the knowledge set maps each term to
the operation that made it (None for a term from outside), and each
operation keeps its instance subject.  `Extraction.comm`, asked only for
DOT, reads each operation's events on instance terms off its row and
draws one edge into each input from the operation that made it.

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
from entries already walked.  The walk enters no asymmetric cipher or
hash.  Its descent is not read off the rows: it is the recovery policy
(which containers a role opens, leftmost first) and the hottest loop, so
a test checks it against them.
"""

from __future__ import annotations

from collections import Counter

from .errors import Ungeneratable, Unrecoverable
from .strands import BUILDS, OPENS, OPS, Classifier, KStrand, StrandSpace, TStrand, _tag
from .terms import Atom, Enc, FuncName, Pair, SignedTerm, Term


class Extraction:
    __slots__ = ("process", "ops", "subjects", "made")

    def __init__(self, process: TStrand, ops: tuple, subjects: tuple, made: dict):
        self.process = process
        self.ops = ops
        # read only by `comm`: each op's instance subject, and who made each known term
        self.subjects = subjects
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
        events = [OPS[op.classifier].events(s) for op, s in zip(self.ops, self.subjects)]
        comm = []
        for j, seq in enumerate(events, start=1):
            for p, e in enumerate(seq, start=1):
                if e.sign < 0 and (i := self.made[e.payload]) is not None:
                    comm.append(((i + 1, events[i].index(SignedTerm(1, e.payload)) + 1), (j, p)))
        return tuple(comm)

    def op_counts(self) -> Counter:
        return Counter(op.classifier for op in self.ops)


class _State:
    """Private per-extraction state: ordered knowledge, what it exposes, and
    emitted strands."""

    def __init__(self, strand: KStrand):
        self.participant = strand.participant
        self.fresh = strand.fresh  # the atoms the role creates
        # known term -> index of the op that made it, None from outside;
        # insertion order is recovery's entry order
        self.knowledge: dict[Term, int | None] = {}
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
        self.subjects: list[Term] = []  # each op's instance subject
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
        """Index the occurrences under root, root ranked `rank`; return the
        rank that follows root's subtree."""
        knowledge, exposed = self.knowledge, self.exposed
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
            elif isinstance(t, Enc) and t.func is FuncName.SK:
                if t.key in knowledge:
                    stack.append((t.body, t))
                else:
                    self.sealed.setdefault(t.key, []).append((t, rank))
                    rank += _span(t.body)
        return rank

    def emit(self, classifier: Classifier, subject: Term) -> int:
        """Append the strand of `classifier` on the typed term of `subject`
        as an op on the instance term `subject`; return its index."""
        typed = subject._typed
        strand = self.strands.get((classifier, typed))
        if strand is None:
            strand = self.strands[classifier, typed] = TStrand(
                classifier, self.participant, OPS[classifier].events(typed)
            )
        self.ops.append(strand)
        self.subjects.append(subject)
        return len(self.ops) - 1


def _span(t: Term) -> int:
    """Number of rank positions t occupies: itself, and below it every pair
    component and `sk` body."""
    n, stack = 0, [t]
    while stack:
        t = stack.pop()
        n += 1
        if isinstance(t, Pair):
            stack += (t.left, t.right)
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
    return Extraction(process, tuple(state.ops), tuple(state.subjects), state.knowledge)


def _construct(t: Term, state: _State) -> None:
    """Make t known, emitting the operations that build it; t is not known."""
    if t in state.exposed:
        _recover(t, state)
        return
    if isinstance(t, Atom):
        built = BUILDS.get(_tag(t._typed))
        if built is None or t not in state.fresh:
            raise _unreachable(t, built is not None, state)
        state.learn(t, state.emit(built[0], t))
        return
    knowledge = state.knowledge
    if isinstance(t, Enc) and t.func is not FuncName.H and t.key not in knowledge:
        _construct(t.key, state)  # a key is held, not consumed: no row has it as an event
    classifier, inputs = BUILDS[_tag(t._typed)]
    for name in inputs:
        if (u := getattr(t, name)) not in knowledge:
            _construct(u, state)
    # not walked: built from known parts; if t was recovered meanwhile, it stays so
    knowledge.setdefault(t, state.emit(classifier, t))


def _unreachable(atom: Atom, buildable: bool, state: _State) -> Exception:
    """The error for an atom the role can neither reach nor create.  One scan
    of the entries from outside, key positions included, tells whether it
    holds the atom sealed: every term it made or recovered is made of those
    and of atoms it knows."""
    role = state.participant.label
    stack = [t for t, by in state.knowledge.items() if by is None]
    while stack:
        t = stack.pop()
        if t is atom:
            return Unrecoverable(
                f"{role} holds {atom.label} only sealed inside terms it cannot open", role
            )
        if isinstance(t, Pair):
            stack += (t.left, t.right)
        elif isinstance(t, Enc):
            stack += (t.body, t.key)
    why = ("its strand does not mark it fresh" if buildable
           else f"{atom.kind.value} atoms cannot be generated")
    return Ungeneratable(f"{role} does not hold {atom.label} and {why}", role)


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
        classifier, outputs = OPENS[_tag(step._typed)]
        by = state.emit(classifier, step)
        for name in outputs:
            state.learn(getattr(step, name), by, walk=False)
