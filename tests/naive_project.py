"""Walk-per-use reference projection for the differential tests.

`naive_project` is `spa.parser.project` as it was before parsing kept each
role's fresh atoms: it ignores `ProtocolSpec.fresh`, walks every role's
events again to find the atoms it first meets unheld, and rebuilds an atom
from every declaration to put the knowledge in order.  `naive_validate`
raises the `Ungeneratable` that `parse` raised from the same walk.  Both are
kept only so that tests can require the library's strands and messages to be
the same.  `naive_project` also counts each message's events afresh to
link them, so the communication edges are compared too.
"""

from __future__ import annotations

from spa.errors import Ungeneratable
from spa.parser import role_events
from spa.strands import KStrand, StrandSpace
from spa.terms import Atom, AtomKind

from .helpers import atoms_of


def _first_unheld(spec, role):
    """(sign, atom) for each atom the role does not hold initially, at the
    first of its events that carries it, in event order."""
    known = {role}
    for entry in spec.knowledge[role.label]:
        known.update(atoms_of(entry))
    first = []
    for event in role_events(spec)[role]:
        for atom in atoms_of(event.payload):
            if atom not in known:
                known.add(atom)
                first.append((event.sign, atom))
    return first


def naive_fresh(spec, role) -> frozenset:
    return frozenset(
        atom for sign, atom in _first_unheld(spec, role)
        if sign > 0 and atom.kind in (AtomKind.NONCE, AtomKind.KEY)
    )


def naive_validate(spec) -> None:
    for role in spec.roles:
        for sign, atom in _first_unheld(spec, role):
            if sign > 0 and atom.kind in (AtomKind.PARTICIPANT, AtomKind.USERDATA):
                raise Ungeneratable(
                    f"role {role.label} sends {atom.label} without holding "
                    f"it, and {atom.kind.value} atoms cannot be generated"
                )


def naive_project(spec) -> StrandSpace:
    strands = []
    events_of = role_events(spec)
    for role in spec.roles:
        events = events_of[role]
        if not events:
            continue
        entries = spec.knowledge[role.label]
        fresh = naive_fresh(spec, role)
        atoms_held = {e for e in entries if isinstance(e, Atom)} | fresh
        knowledge = [role]
        for other in spec.roles:
            if other != role and other in atoms_held:
                knowledge.append(other)
        for label in spec.decls:
            atom = Atom(spec.decls[label], label)
            if atom.kind is not AtomKind.PARTICIPANT and atom in atoms_held:
                knowledge.append(atom)
        for entry in entries:
            if not isinstance(entry, Atom):
                knowledge.append(entry)
        strands.append(KStrand(tuple(knowledge), role, tuple(events), fresh))
    roles = [s.participant for s in strands]

    def node(role, k):
        # the role's event for message k: one per message it takes part in
        taken = [m for m in spec.messages[: k + 1] if role in (m.sender, m.recipient)]
        return roles.index(role), len(taken)

    comm = tuple(
        (node(m.sender, k), node(m.recipient, k)) for k, m in enumerate(spec.messages)
    )
    return StrandSpace(tuple(strands), comm)
