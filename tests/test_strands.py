"""Strand structures, edges and the bundle property, shape checks."""

import ast
import random

import pytest

import spa.strands
from spa import extract, parse, project
from spa.costs import CostFunc
from spa.errors import ShapeViolation, Ungeneratable, Unrecoverable
from spa.strands import (
    BUILDS,
    OPENS,
    OPS,
    Classifier,
    KStrand,
    StrandSpace,
    TStrand,
    edges,
    render_kstrand,
    render_tstrand,
)
from spa.terms import (
    _TABLES,
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    FuncName,
    SignedTerm,
    TEnc,
    TPair,
)

from .bundle import check_extraction, check_projection
from .generators import chain_spec, random_spec
from .helpers import CORPUS, ROOT, read, source_names

A = Atom(AtomKind.PARTICIPANT, "A")
B = Atom(AtomKind.PARTICIPANT, "B")
NA = Atom(AtomKind.NONCE, "N_a")
K = Atom(AtomKind.KEY, "K")

r, n, k = Basic(BasicTT.R), Basic(BasicTT.N), Basic(BasicTT.K)


def kstrand(*events, knowledge=(A, NA), participant=A, fresh=frozenset()):
    return KStrand(tuple(knowledge), participant, tuple(events), fresh)


def test_kstrand_validated():
    with pytest.raises(ValueError):  # own name missing from knowledge
        KStrand((NA,), A, (SignedTerm(1, NA),))
    with pytest.raises(ValueError):  # empty sequence
        KStrand((A,), A, ())
    with pytest.raises(ValueError):  # duplicate knowledge entry
        KStrand((A, NA, NA), A, (SignedTerm(1, NA),))
    with pytest.raises(ValueError):  # participant must be a role atom
        KStrand((NA,), NA, (SignedTerm(1, NA),))


def test_working_knowledge_excludes_fresh():
    s = kstrand(SignedTerm(1, NA), fresh=frozenset({NA}))
    assert s.knowledge == (A, NA)
    assert s.working_knowledge() == (A,)


def test_tstrand_validated():
    with pytest.raises(ValueError):
        TStrand(Classifier.C_N, A, ())
    with pytest.raises(ValueError):
        TStrand(Classifier.C_N, NA, (SignedTerm(1, n),))


def test_succession_edges():
    s = kstrand(SignedTerm(1, NA), SignedTerm(-1, K), SignedTerm(1, K))
    t = TStrand(Classifier.C_N, A, (SignedTerm(1, n),))
    succ, comm = edges(StrandSpace((s, t)))
    assert succ == [((0, 1), (0, 2)), ((0, 2), (0, 3))]
    assert comm == ()


def test_communication_edges_are_the_recorded_ones():
    # no payload is matched: equal payloads on other strands draw nothing
    sa = KStrand((A,), A, (SignedTerm(1, NA), SignedTerm(-1, K)))
    sb = KStrand((B,), B, (SignedTerm(-1, NA), SignedTerm(1, K)))
    assert edges(StrandSpace((sa, sb)))[1] == ()
    comm = (((0, 1), (1, 1)), ((1, 2), (0, 2)))
    assert edges(StrandSpace((sa, sb), comm))[1] == comm


def test_one_strand_object_at_two_positions():
    t = TStrand(Classifier.C_H, A, (SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.H))))
    succ, _ = edges(StrandSpace((t, t)))
    assert succ == [((0, 1), (0, 2)), ((1, 1), (1, 2))]


def test_projection_links_each_message_to_its_events():
    spec = parse(
        "protocol three { roles B, C, A, D; nonce N; knows A: B, C, N; "
        "A -> B: N; A -> C: N; C -> B: N; }"
    )
    space = project(spec)
    assert [s.participant.label for s in space.strands] == ["B", "C", "A"]
    assert space.comm == (((2, 1), (0, 1)), ((2, 2), (1, 1)), ((1, 2), (0, 2)))
    check_projection(spec, space)


def _specs():
    specs = [parse(read(path)) for path in CORPUS]
    specs += [chain_spec(n, w) for n, w in ((1, 1), (5, 4), (12, 4), (6, 8))]
    rng = random.Random(0xB0D)
    specs += [random_spec(rng) for _ in range(150)]
    return specs


def test_every_space_is_a_bundle():
    extracted = edged = 0
    for spec in _specs():
        space = project(spec)
        check_projection(spec, space)
        for s in space.strands:
            try:
                ext = extract(s)
            except (Ungeneratable, Unrecoverable):
                continue
            extracted += 1
            edged += bool(check_extraction(ext).comm)
    assert extracted > 200 and edged > 100


def test_process_strand_has_no_edges():
    for path in CORPUS:
        for s in project(parse(read(path))).strands:
            space = check_extraction(extract(s))
            assert all(0 not in (i, k) for (i, _), (k, _) in space.comm)


def _op(classifier, *events):
    return TStrand(classifier, A, tuple(events))


def test_op_shapes_accepted():
    # building a typed strand checks its shape
    _op(Classifier.C_E, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.SK)))
    _op(Classifier.C_D, SignedTerm(-1, TEnc(n, FuncName.SK)), SignedTerm(1, n))
    _op(Classifier.C_H, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.H)))
    _op(Classifier.C_PK, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.PK)))
    _op(Classifier.C_PVK, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.PVK)))
    _op(Classifier.C_K, SignedTerm(1, k))
    _op(Classifier.C_N, SignedTerm(1, n))
    _op(Classifier.C_C, SignedTerm(-1, n), SignedTerm(-1, r), SignedTerm(1, TPair(n, r)))
    _op(Classifier.C_I, SignedTerm(-1, TPair(n, r)), SignedTerm(1, n), SignedTerm(1, r))


# (classifier and events, the ShapeViolation building the strand raises)
REJECTED = [
    ((Classifier.C_E, SignedTerm(-1, n), SignedTerm(1, TEnc(n, FuncName.PK))),
     "C_E: position 2 must be the input wrapped with sk"),  # wrong function
    ((Classifier.C_H, SignedTerm(-1, n), SignedTerm(1, TEnc(k, FuncName.H))),
     "C_H: position 2 must be the input wrapped with h"),  # body mismatch
    ((Classifier.C_K, SignedTerm(1, k), SignedTerm(1, k)),
     "C_K: position 0 must be a sequence of 1 events"),  # wrong arity
    ((Classifier.C_I, SignedTerm(-1, TPair(n, r))),
     "C_I: position 0 must be a sequence of 3 events"),
    ((Classifier.C_N, SignedTerm(1, k)),
     "C_N: position 1 must be a nonce type"),  # wrong basic type
    ((Classifier.C_K, SignedTerm(1, n)),
     "C_K: position 1 must be a key type"),
    ((Classifier.C_K, SignedTerm(-1, k)),
     "C_K: position 1 must be a transmission"),  # reception where transmission expected
    ((Classifier.C_C, SignedTerm(-1, n), SignedTerm(1, r), SignedTerm(1, TPair(n, r))),
     "C_C: position 2 must be a reception"),
    ((Classifier.C_C, SignedTerm(-1, n), SignedTerm(-1, r), SignedTerm(1, TPair(r, n))),
     "C_C: position 3 must be the pair of the two inputs"),  # pair is not of the inputs
    ((Classifier.C_I, SignedTerm(-1, TPair(n, r)), SignedTerm(1, r), SignedTerm(1, n)),
     "C_I: position 1 must be the pair of the two outputs"),
    ((Classifier.C_D, SignedTerm(-1, TEnc(n, FuncName.PK)), SignedTerm(1, n)),
     "C_D: position 1 must be an sk term whose body is the output"),
    ((Classifier.C_D, SignedTerm(1, TEnc(n, FuncName.SK)), SignedTerm(-1, n)),
     "C_D: position 1 must be a reception"),
    ((Classifier.C_PVK, SignedTerm(-1, n), SignedTerm(-1, TEnc(n, FuncName.PVK))),
     "C_PVK: position 2 must be a transmission"),
]


@pytest.mark.parametrize("fields, message", REJECTED, ids=[m for _, m in REJECTED])
def test_op_shapes_rejected(fields, message):
    # a typed strand's shape is checked when it is built, so a malformed
    # operation strand never exists, and never enters the table
    classifier, *events = fields
    with pytest.raises(ShapeViolation) as exc:
        _op(classifier, *events)
    assert str(exc.value) == message
    assert (classifier, A, tuple(events)) not in _TABLES[TStrand]


def test_ops_has_a_row_per_operation_classifier():
    assert set(OPS) == set(Classifier) - {Classifier.C_P}


def test_ops_costs_and_f_p_cover_every_cost_function():
    assert {op.cost for op in OPS.values()} | {CostFunc.F_P} == set(CostFunc)


def test_ops_positions_index_events_of_their_row():
    for op in OPS.values():
        assert len(op.parts) == len(op.signs)
        assert all(1 <= i <= len(op.signs) for i in op.sized)


def test_builds_and_opens_read_the_rows():
    # each map gives, for a tag, the classifier and the names of the
    # subject's other parts in row order
    assert BUILDS == {
        FuncName.SK: (Classifier.C_E, ("body",)),
        FuncName.H: (Classifier.C_H, ("body",)),
        FuncName.PK: (Classifier.C_PK, ("body",)),
        FuncName.PVK: (Classifier.C_PVK, ("body",)),
        BasicTT.K: (Classifier.C_K, ()),
        BasicTT.N: (Classifier.C_N, ()),
        TPair: (Classifier.C_C, ("left", "right")),
    }
    assert OPENS == {
        FuncName.SK: (Classifier.C_D, ("body",)),
        TPair: (Classifier.C_I, ("left", "right")),
    }


_P = TPair(n, r)
# a subject of each tag, its fields distinct so that swapping two moves one
SUBJECTS = {
    **{func: TEnc(_P, func) for func in FuncName},
    **{tt: Basic(tt) for tt in BasicTT},
    TPair: _P,
}


def _derived_maps() -> set:
    # the names `strands` binds to the maps `_index` derives from the rows
    derived = [set(m) for m in spa.strands._index(OPS)]
    names = {name for name, value in vars(spa.strands).items()
             if type(value) is dict and value is not OPS and set(value) in derived}
    assert len(names) == len(derived)
    return names


@pytest.mark.parametrize("classifier", list(OPS), ids=lambda c: c.value)
def test_each_row_has_one_subject_and_its_other_parts_opposite(classifier):
    # the maps take a row's other parts without reading a sign: each row has
    # one subject, every other part stands at an event of the opposite sign,
    # and the names a map gives for the row's tag name those parts of a
    # subject in row order
    op = OPS[classifier]
    assert op.parts.count("") == 1
    at = op.parts.index("")
    assert all(s == -op.signs[at] for part, s in zip(op.parts, op.signs) if part)
    found, names = (BUILDS if op.signs[at] > 0 else OPENS)[op.tag]
    assert found is classifier
    subject = SUBJECTS[op.tag]
    others = op.payloads(subject)
    del others[at]
    assert tuple(getattr(subject, n) for n in names) == tuple(others)


@pytest.mark.parametrize("classifier", list(OPS), ids=lambda c: c.value)
def test_each_row_builds_its_events_and_refuses_others(classifier):
    # the events a row makes of its subject are a strand of its shape;
    # swapping two payloads that are not the subject, or putting a subject
    # of any other tag in its place, is refused with the row's violation
    op = OPS[classifier]
    events = op.events(SUBJECTS[op.tag])
    assert _op(classifier, *events).seq == events
    at = op.parts.index("")
    message = f"{classifier.value}: position {at + 1} must be {op.expected}"
    others = [i for i in range(len(events)) if i != at]
    variants = []
    if len(others) == 2:
        i, j = others
        swapped = list(events)
        swapped[i], swapped[j] = (SignedTerm(events[i].sign, events[j].payload),
                                  SignedTerm(events[j].sign, events[i].payload))
        variants.append(swapped)
    for tag, subject in SUBJECTS.items():
        if tag is not op.tag:
            variant = list(events)
            variant[at] = SignedTerm(op.signs[at], subject)
            variants.append(variant)
    assert len(variants) == len(SUBJECTS) - 1 + (len(others) == 2)
    for variant in variants:
        with pytest.raises(ShapeViolation) as exc:
            _op(classifier, *variant)
        assert str(exc.value) == message


@pytest.mark.parametrize("path", ["src/spa/oracle.py", "tests/naive_extraction.py"])
def test_cross_checks_do_not_read_the_table(path):
    # the oracle and the reference extractor name their classifiers
    # themselves, so an error in a row or in the tag rule cannot pass the
    # cross-check by showing on both sides
    assert not source_names(ROOT / path) & {"OPS", "_index", "_tag", *_derived_maps()}


def test_references_write_their_rules_out():
    # the projection reference walks each role's events itself, and the
    # compare reference states the additivity law and every step around
    # the matching itself, so a fault in either rule cannot show on both
    # sides of the cross-check
    tree = ast.parse(read(str(ROOT / "tests/naive_project.py")))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "spa.parser" not in imported
    assert not source_names(ROOT / "tests/naive_compare.py") & {
        "_expand", "expand_one", "_cancel", "_simplified", "_decide", "_hand_out", "compare",
    }


def test_extraction_names_no_operation():
    # extraction reads every operation off the rows; the process strand,
    # which has no row, is the one classifier it names
    assert source_names(ROOT / "src/spa/extraction.py") & set(Classifier.__members__) == {"C_P"}


def test_process_strands_have_no_shape():
    # any nonempty sequence makes a process strand; it has no shape to check
    events = (SignedTerm(1, n), SignedTerm(-1, k), SignedTerm(-1, k))
    assert _op(Classifier.C_P, *events).seq == events


def test_render_strands():
    s = KStrand((A, NA), A, (SignedTerm(1, NA),))
    assert render_kstrand(s) == "⟨{A, N_a}, A, ⟨+N_a⟩⟩"
    t = TStrand(Classifier.C_N, A, (SignedTerm(1, n),))
    assert render_tstrand(t) == "⟨C_N, A, ⟨+n⟩⟩"


def _map_keys(tree) -> list:
    # the key of every subscript, `.get` and `in` test of BUILDS or OPENS
    def is_map(node):
        return isinstance(node, ast.Name) and node.id in ("BUILDS", "OPENS")

    keys = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_map(node.value):
            keys.append(node.slice)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and is_map(node.func.value)):
            keys.append(node.args[0])
        elif isinstance(node, ast.Compare) and any(map(is_map, node.comparators)):
            keys.append(node.left)
    return keys


@pytest.mark.parametrize("module", ["extraction", "parser"])
def test_row_lookups_are_keyed_by_tag(module):
    # `strands._tag` is the one rule for a term's row tag (a cipher's
    # function, a pair's class, an atom's basic type): every lookup in the
    # maps is keyed by a `_tag` call, and nothing else reads a typed term's
    # basic type or class
    tree = ast.parse((ROOT / "src" / "spa" / f"{module}.py").read_text(encoding="utf-8"))
    keys = _map_keys(tree)
    assert keys
    for key in keys:
        assert (isinstance(key, ast.Call) and isinstance(key.func, ast.Name)
                and key.func.id == "_tag"), ast.unparse(key)
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.Attribute) and node.attr == "tt"), ast.unparse(node)
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "type"
                    and any(isinstance(a, ast.Attribute) and a.attr == "_typed"
                            for a in node.args)), ast.unparse(node)
