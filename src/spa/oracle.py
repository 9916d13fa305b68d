"""Independent operation counter used to cross-check extraction.

Re-derives the per-strand operation multiset with a plain list-based
knowledge simulation and no strand emission.  Implements the same
resolution policy as the extractor without sharing code with it: known
first, then recovery along the first exposing knowledge entry (leftmost
descent, fixed at scan time), then generation for nonces and keys that
occur nowhere in knowledge, else failure.  Extraction generates the
atoms in `KStrand.fresh` instead, so agreement also checks the parser's.

It names each operation's classifier itself and must not read
`strands.OPS` and every map `strands._index` derives from it, which
extraction emits by: an error there would then show up on both sides of
the cross-check and pass it.
"""

from __future__ import annotations

from collections import Counter

from .errors import Ungeneratable, Unrecoverable
from .strands import Classifier, KStrand
from .terms import Atom, AtomKind, Enc, FuncName, Pair, Term


def op_count_oracle(s: KStrand) -> Counter:
    known: list[Term] = []

    def hold(t: Term) -> None:
        if t not in known:
            known.append(t)

    for t in s.working_knowledge():
        hold(t)

    counts: Counter = Counter()

    def reach(entry: Term, goal: Term) -> tuple[Term, ...] | None:
        if entry == goal:
            return (entry,)
        if isinstance(entry, Pair):
            left = reach(entry.left, goal)
            if left is not None:
                return (entry,) + left
            right = reach(entry.right, goal)
            if right is not None:
                return (entry,) + right
        if isinstance(entry, Enc) and entry.func is FuncName.SK and entry.key in known:
            inner = reach(entry.body, goal)
            if inner is not None:
                return (entry,) + inner
        return None

    def obtain(goal: Term) -> None:
        if goal in known:
            return
        for entry in list(known):
            steps = reach(entry, goal)
            if steps is None:
                continue
            for i in range(len(steps) - 1):
                if steps[i + 1] in known:
                    continue
                if isinstance(steps[i], Pair):
                    counts[Classifier.C_I] += 1
                    hold(steps[i].left)
                    hold(steps[i].right)
                else:
                    counts[Classifier.C_D] += 1
                    hold(steps[i].body)
            return
        if isinstance(goal, Atom):
            if any(_occurs(goal, entry) for entry in known):
                raise Unrecoverable(
                    f"{s.participant.label} holds {goal.label} only sealed "
                    "inside terms it cannot open"
                )
            if goal.kind is not AtomKind.NONCE and goal.kind is not AtomKind.KEY:
                raise Ungeneratable(
                    f"{s.participant.label} does not hold {goal.label} and "
                    f"{goal.kind.value} atoms cannot be generated"
                )
            counts[Classifier.C_N if goal.kind is AtomKind.NONCE else Classifier.C_K] += 1
            hold(goal)
            return
        if isinstance(goal, Pair):
            obtain(goal.left)
            obtain(goal.right)
            counts[Classifier.C_C] += 1
        else:
            if goal.func is not FuncName.H:
                obtain(goal.key)
            obtain(goal.body)
            counts[
                {
                    FuncName.SK: Classifier.C_E,
                    FuncName.PK: Classifier.C_PK,
                    FuncName.PVK: Classifier.C_PVK,
                    FuncName.H: Classifier.C_H,
                }[goal.func]
            ] += 1
        hold(goal)

    for event in s.seq:
        if event.sign < 0:
            hold(event.payload)
        else:
            obtain(event.payload)
    return counts


def _occurs(needle: Term, hay: Term) -> bool:
    if needle == hay:
        return True
    if isinstance(hay, Pair):
        return _occurs(needle, hay.left) or _occurs(needle, hay.right)
    if isinstance(hay, Enc):
        return _occurs(needle, hay.body) or _occurs(needle, hay.key)
    return False
