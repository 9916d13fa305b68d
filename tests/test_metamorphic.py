"""Metamorphic relations: changes to a protocol, or to a cost expression,
that must leave what `spa` computes as it was.  They need no expected
output, so they run over the bundled protocols and seeded random ones.

Each changed protocol is rendered to source and parsed back, so it reaches
the pipeline as a user's file would.  Two relations that fail today are
not here: shuffling a `knows` line changes some roles' costs, as recovery
takes the first knowledge entry that exposes its target, and permuting a
pair's components inside an asymmetric cipher changes the cost's text, as
`ssum` orders units of equal coefficient by first occurrence."""

from __future__ import annotations

import math
import random

import pytest

from spa import compare, cost_of_space, eval_cost, extract, load_config, parse, project
from spa import render_cost, simplify
from spa.costs import Verdict
from spa.errors import Ungeneratable, Unrecoverable
from spa.parser import Message, ProtocolSpec
from spa.terms import Atom, AtomKind, Enc, Pair

from .generators import (
    ASSUMPTION_SETS,
    decisive_pair,
    random_cost_expr,
    random_eval_model,
    random_spec,
    render_spec,
)
from .helpers import CORPUS, DEFAULT_CONFIG, read, role_costs


@pytest.fixture(scope="module")
def specs() -> list:
    """The bundled protocols and 400 seeded random ones, each as parsed from
    its rendering, as every changed protocol is."""
    bundled = [parse(render_spec(parse(read(path)))) for path in CORPUS]
    return bundled + [random_spec(random.Random(seed)) for seed in range(400)]


def _raw_costs(spec: ProtocolSpec) -> dict:
    """Each role's raw cost, or the name of the error that stops its
    extraction."""
    out = {}
    for strand in project(spec).strands:
        try:
            out[strand.participant.label] = cost_of_space(extract(strand).space())
        except (Ungeneratable, Unrecoverable) as exc:
            out[strand.participant.label] = type(exc).__name__
    return out


def _cost_texts(spec: ProtocolSpec) -> dict:
    """Each role's simplified cost as text, or the name of its error."""
    return {role: cost if isinstance(cost, str) else render_cost(simplify(cost))
            for role, cost in _raw_costs(spec).items()}


@pytest.fixture(scope="module")
def base_texts(specs) -> list:
    return [_cost_texts(spec) for spec in specs]


def _reparsed(spec: ProtocolSpec, roles=None, decls=None, rename=None) -> ProtocolSpec:
    """`spec` with another roles line, other declarations, or its atoms'
    labels mapped through `rename`, rendered to source and parsed back."""
    rename = rename or {}

    def term(t):
        if isinstance(t, Atom):
            return Atom(t.kind, rename.get(t.label, t.label))
        if isinstance(t, Pair):
            return Pair(term(t.left), term(t.right))
        if isinstance(t, Enc):
            return Enc(term(t.body), t.func, term(t.key))
        return t  # a hash's empty key

    changed = ProtocolSpec(
        spec.name,
        spec.roles if roles is None else roles,
        {rename.get(label, label): kind
         for label, kind in (spec.decls if decls is None else decls).items()},
        {role: tuple(map(term, entries)) for role, entries in spec.knowledge.items()},
        tuple(Message(m.sender, m.recipient, term(m.payload)) for m in spec.messages),
        {},  # render_spec ignores `fresh`; parsing fills it in
    )
    return parse(render_spec(changed))


def _rename_atoms(spec, rng):
    # fresh labels in a random order, so sorting by label reorders atoms
    old = [label for label, kind in spec.decls.items() if kind is not AtomKind.PARTICIPANT]
    new = [f"V{i}" for i in range(len(old))]
    rng.shuffle(new)
    return _reparsed(spec, rename=dict(zip(old, new)))


def _shuffle_declarations(spec, rng):
    # render_spec writes the declarations in this order
    items = list(spec.decls.items())
    rng.shuffle(items)
    return _reparsed(spec, decls=dict(items))


def _reverse_roles(spec, rng):
    return _reparsed(spec, roles=spec.roles[::-1])


def _add_unused_atom(spec, rng):
    kind = rng.choice((AtomKind.NONCE, AtomKind.KEY, AtomKind.USERDATA))
    return _reparsed(spec, decls={**spec.decls, "U_unused": kind})


RELATIONS = {
    "rename-atoms": _rename_atoms,
    "shuffle-declarations": _shuffle_declarations,
    "reverse-roles": _reverse_roles,
    "add-unused-atom": _add_unused_atom,
}


@pytest.mark.parametrize("relation", RELATIONS)
def test_cost_text_unchanged(relation, specs, base_texts):
    """Each role's simplified cost text does not depend on the names of its
    atoms, the order of declarations or roles, or a declaration nothing
    uses."""
    rng = random.Random(relation)
    change = RELATIONS[relation]
    for spec, base in zip(specs, base_texts, strict=True):
        assert _cost_texts(change(spec, rng)) == base, render_spec(spec)


def test_raw_and_simplified_costs_have_equal_values(specs):
    models = [load_config(DEFAULT_CONFIG)[0]]
    models += [random_eval_model(random.Random(seed)) for seed in range(10)]
    raws = [cost for spec in specs for cost in _raw_costs(spec).values()
            if not isinstance(cost, str)]
    assert len(raws) > 200
    for raw in raws:
        simplified = simplify(raw)
        for model in models:
            assert math.isclose(eval_cost(simplified, model), eval_cost(raw, model),
                                rel_tol=1e-9, abs_tol=1e-9), (raw, model)


_CONVERSE = {Verdict.LESS: Verdict.GREATER, Verdict.GREATER: Verdict.LESS,
             Verdict.EQUAL: Verdict.EQUAL, Verdict.INDETERMINATE: Verdict.INDETERMINATE}


def test_compare_symmetric():
    # swapping the sides gives the converse verdict and swaps the residuals
    rng = random.Random(0x5E77)
    roles = role_costs()
    seen = set()
    for assume in ASSUMPTION_SETS:
        pairs = [(a, b) for a in roles for b in roles]
        for _ in range(250):
            pairs.append((random_cost_expr(rng), random_cost_expr(rng)))
            pairs.append(decisive_pair(rng, assume)[:2])
        for a, b in pairs:
            there, back = compare(a, b, assume), compare(b, a, assume)
            assert back.verdict is _CONVERSE[there.verdict], (a, b, assume)
            assert back.left_residual == there.right_residual
            assert back.right_residual == there.left_residual
            seen.add(there.verdict)
    assert seen == set(Verdict)
