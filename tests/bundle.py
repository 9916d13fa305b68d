"""The bundle property of the strand spaces the pipeline builds.

In a strand-space bundle each reception has exactly one transmitting node
(Thayer, Herzog and Guttman, "Strand Spaces: Why is a Security Protocol
Correct?", IEEE S&P 1998).  `spa` records its communication edges instead
of matching payloads, so the tests check what it records:

- every edge goes from a transmission to a reception on another strand,
  and both carry the identical payload object;
- no reception has more than one incoming edge;
- succession plus communication is acyclic.

An all-roles space has one edge per message.  In one role's space (the
process strand, then the operations) the process strand has no edges and
every edge runs from an earlier operation to a later one.
"""

from __future__ import annotations

from graphlib import TopologicalSorter

from spa.extraction import Extraction
from spa.parser import ProtocolSpec
from spa.strands import StrandSpace, edges


def check_bundle(space: StrandSpace) -> None:
    succ, comm = edges(space)
    strands = space.strands
    fed = set()
    for (i, j), (k, m) in comm:
        sent, got = strands[i].seq[j - 1], strands[k].seq[m - 1]
        assert i != k, f"edge within strand {i}"
        assert sent.sign > 0 and got.sign < 0, f"n{i}_{j} -> n{k}_{m} is not + to -"
        assert sent.payload is got.payload, f"n{i}_{j} -> n{k}_{m} carries two payloads"
        assert (k, m) not in fed, f"n{k}_{m} has two incoming edges"
        fed.add((k, m))
    graph = TopologicalSorter()
    for a, b in (*succ, *comm):
        graph.add(b, a)
    graph.prepare()  # raises CycleError on a cycle


def check_projection(spec: ProtocolSpec, space: StrandSpace) -> None:
    check_bundle(space)
    assert len(edges(space)[1]) == len(spec.messages)


def check_extraction(ext: Extraction) -> StrandSpace:
    """Check the role's space with its edges, and return that space."""
    space = StrandSpace(ext.space().strands, ext.comm())
    check_bundle(space)
    for (i, _), (k, _) in space.comm:
        assert 0 < i < k, f"edge from strand {i} to strand {k}"
    return space
