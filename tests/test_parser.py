"""Protocol source parsing, validation, projection, round-tripping."""

import ast
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spa.parser
from spa import parse, project
from spa.errors import (
    DuplicateDeclaration,
    KindMismatch,
    ParseError,
    SelfMessage,
    SpaError,
    UndeclaredIdentifier,
    Ungeneratable,
)
from spa.parser import ProtocolSpec, _line_col, _offsets, _token_texts
from spa.strands import render_kstrand
from spa.terms import Atom, AtomKind, Enc, FuncName, Pair, pair_of

from .generators import chain_spec, random_spec, render_spec
from .helpers import ANDREW, CORPUS, ROOT, X509_FULL, atoms_of, read, source_names
from .naive_parse import naive_parse
from .naive_project import naive_project, naive_validate
from .naive_tokenize import naive_tokenize

ANDREW_SRC = read(ANDREW)

MINI = """
protocol mini {
  roles A, B;
  nonce N;
  knows A: N;
  A -> B: N;
}
"""


def test_parse_andrew_structure():
    spec = parse(ANDREW_SRC)
    assert spec.name == "andrew_rpc"
    assert [r.label for r in spec.roles] == ["A", "B"]
    assert len(spec.messages) == 4
    A, B = spec.roles
    assert spec.messages[0].sender == A and spec.messages[0].recipient == B
    NA = Atom(AtomKind.NONCE, "N_a")
    assert spec.messages[0].payload == Pair(A, NA)
    KAB = Atom(AtomKind.KEY, "K_AB")
    K = Atom(AtomKind.KEY, "K")
    body = pair_of([NA, K, B])
    assert spec.messages[1].payload == Enc(body, FuncName.SK, KAB)
    assert spec.knowledge["A"] == (B, KAB)


def test_comments_and_whitespace_ignored():
    spec = parse("// leading\nprotocol mini { // inline\n  roles A, B;\n"
                 "  nonce N;\n  knows A: N;\n  A -> B: N; // done\n}\n")
    assert spec.name == "mini"


def test_term_forms():
    spec = parse("""
    protocol forms {
      roles A, B;
      nonce N;
      key K, SK;
      data D;
      knows A: N, K, SK, D;
      A -> B: N, {N}sk(K), {D}pk(K), {N, D}pvk(SK), h(N, K);
      A -> B: D, (N, D);
    }
    """)
    parts = []
    t = spec.messages[0].payload
    while isinstance(t, Pair):
        parts.append(t.right)
        t = t.left
    parts.append(t)
    parts.reverse()
    assert len(parts) == 5
    assert parts[1].func is FuncName.SK
    assert parts[2].func is FuncName.PK
    assert parts[3].func is FuncName.PVK
    assert parts[4].func is FuncName.H
    # a parenthesized group past the head keeps its own pair node
    N = Atom(AtomKind.NONCE, "N")
    D = Atom(AtomKind.USERDATA, "D")
    assert spec.messages[1].payload == Pair(D, Pair(N, D))


def test_message_payload_is_flat_pair():
    spec = parse(MINI.replace("A -> B: N;", "A -> B: N, N, N;"))
    payload = spec.messages[0].payload
    assert payload == pair_of([Atom(AtomKind.NONCE, "N")] * 3)


def test_duplicate_declaration():
    with pytest.raises(DuplicateDeclaration):
        parse(MINI.replace("nonce N;", "nonce N, N;"))
    with pytest.raises(DuplicateDeclaration):
        parse(MINI.replace("nonce N;", "nonce A;"))


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifier):
        parse(MINI.replace("knows A: N;", "knows A: X;"))


def test_kind_mismatch():
    with pytest.raises(KindMismatch):  # nonce used as encryption key
        parse(MINI.replace("A -> B: N;", "A -> B: {N}sk(N);"))
    with pytest.raises(KindMismatch):  # nonce in role position
        parse(MINI.replace("knows A: N;", "knows N: N;"))


def test_self_message():
    with pytest.raises(SelfMessage):
        parse(MINI.replace("A -> B: N;", "A -> A: N;"))


def test_reserved_words_rejected():
    with pytest.raises(ParseError):
        parse(MINI.replace("roles A, B;", "roles A, sk;"))
    with pytest.raises(ParseError):
        parse(MINI.replace("nonce N;", "nonce knows;"))


def test_single_term_parens_rejected():
    with pytest.raises(ParseError):
        parse(MINI.replace("A -> B: N;", "A -> B: (N);"))


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse(MINI + "junk")


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse(MINI.replace("A -> B: N;", "A -> B: N @;"))


# Edits for the tokenizer differential: characters no token starts with,
# whitespace that does or does not end a line, comments, multi-line gaps.
EDITS = ("@", "\r", "\t", "\n", " ", "/", "-", ">", "é", "\u2028", "\x0c", "{", ";",
         "x", "_", "7", "//", "// note\n", "//@\r\n", "\n\n\n", "\r\n  \t")


def _mutants(rng: random.Random, text: str, count: int):
    """`count` copies of text, each with one inserted, deleted or replaced
    character or edit."""
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "replace"))
        edit = "" if op == "delete" else rng.choice(EDITS)
        yield text[:at] + edit + text[at + (op != "insert"):]


def _naive_lexed(text):
    """naive_tokenize's (text, line, column) per token, end of input
    included, or its error's (message, line, column)."""
    try:
        return [(tok.text, tok.line, tok.column) for tok in naive_tokenize(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def _lexed(text):
    """The parser's tokens, each located as `_Parser.at` locates it (the
    line and column of its entry in `_offsets`), or the lexical error."""
    try:
        tokens = _token_texts(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    offsets = _offsets(text)
    assert len(offsets) == len(tokens), text
    return [(tok, *_line_col(text, pos)) for tok, pos in zip(tokens, offsets)]


def test_tokenizer_matches_naive():
    rng = random.Random(2009)
    texts = [read(path) for path in CORPUS]
    texts += [render_spec(random_spec(rng)) for _ in range(300)]
    texts += [m for text in texts for m in _mutants(rng, text, 4)]
    refused = 0
    for text in texts:
        expected = _naive_lexed(text)
        assert _lexed(text) == expected, text
        if isinstance(expected, tuple):
            refused += 1
            continue
        # errors past the tokenizer are located at a token
        try:
            parse(text)
        except ParseError as exc:
            assert exc.line is None or (exc.line, exc.column) in {t[1:] for t in expected}
        except SpaError:
            pass
    assert 100 < refused < len(texts) // 2


def test_token_texts_match_naive():
    rng = random.Random(2010)
    texts = [read(path) for path in CORPUS]
    texts += [render_spec(random_spec(rng)) for _ in range(100)]
    texts += [m for text in texts for m in _mutants(rng, text, 8)]
    for text in texts:
        assert _lexed(text) == _naive_lexed(text), text


# A lone non-ASCII letter where an identifier may stand alone, Unicode
# whitespace, a token starting with a digit, and a lone "-" or "/" at the end:
# a character-class test such as str.isalpha gets these wrong.  Each outcome
# is what parse gave before it tokenized in one pass.
_LETTER_CASES = [
    (f"protocol {c} {{ roles A, B; nonce N; A -> B: N; }}", c, 10)
    for c in "éßЖİ"
] + [
    (f"protocol p {{ roles {c}, B; nonce N; {c} -> B: N; }}", c, 20)
    for c in "éßЖİ"
] + [
    (f"protocol p {{ roles A, B; nonce {c}; A -> B: {c}; }}", c, 32)
    for c in "éßЖİ"
]
ONE_LINE = "protocol mini { roles A, B; nonce N; knows A: N; A -> B: N; }"
CHARACTER_CASES = [
    (text, f"ParseError: unexpected character {c!r} (line 1, column {col})")
    for text, c, col in _LETTER_CASES
] + [
    (ONE_LINE.replace(" ", space), "ok") for space in ("\xa0", "\x1c", "\u3000")
] + [
    ("protocol p { roles A, B; nonce 7N; A -> B: N; }",
     "ParseError: unexpected character '7' (line 1, column 32)"),
    (ONE_LINE + "-", "ParseError: unexpected character '-' (line 1, column 62)"),
    (ONE_LINE + "/", "ParseError: unexpected character '/' (line 1, column 62)"),
    (ONE_LINE + "\n-", "ParseError: unexpected character '-' (line 2, column 1)"),
]


@pytest.mark.parametrize("text, outcome", CHARACTER_CASES)
def test_character_class_edges(text, outcome):
    assert _lexed(text) == _naive_lexed(text)
    try:
        parse(text)
        got = "ok"
    except SpaError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == outcome


LONG = 200_000


@pytest.mark.parametrize("text", [
    " " * LONG + "@",
    MINI + " " * LONG,
    MINI + "/" * LONG,  # a comment of slashes, with no newline
    "x" * (LONG // 2) + "@",
], ids=["spaces-then-bad", "trailing-spaces", "long-comment", "long-ident-then-bad"])
def test_tokenizer_is_linear(text):
    start = time.perf_counter()
    try:
        parse(text)
    except ParseError:
        pass
    assert time.perf_counter() - start < 2.0
    assert _lexed(text) == _naive_lexed(text)


def _draws(count: int = 300) -> list:
    rng = random.Random(2011)
    return [random_spec(rng) for _ in range(count)]


def test_one_freshness_walk_per_role(monkeypatch):
    walk = spa.parser._fresh_atoms
    walked = []

    def counted(role, *rest):
        walked.append(role)
        return walk(role, *rest)

    monkeypatch.setattr(spa.parser, "_fresh_atoms", counted)
    texts = [read(path) for path in CORPUS] + [render_spec(s) for s in _draws()]
    for text in texts:
        walked.clear()
        spec = parse(text)
        project(spec)
        assert walked == list(spec.roles), text


_FIELDS = {"left", "right", "body", "key"}


def _reads_fields(tree) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr in _FIELDS for n in ast.walk(tree))


def test_parse_walks_no_term_after_reading_it():
    """`parse` reads the atoms of a knowledge entry or a payload off its
    tokens: `spa.parser` reads no term's fields and names no term walker,
    a function elsewhere in the package that does
    (`test_parse_matches_reference` checks the fresh sets this gives)."""
    walkers = set()
    for path in (ROOT / "src/spa").glob("*.py"):
        if path.name != "parser.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            walkers |= {node.name for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef) and _reads_fields(node)}
    assert {"render_term", "delta", "_span"} <= walkers
    parser = ROOT / "src/spa/parser.py"
    assert not _reads_fields(ast.parse(parser.read_text(encoding="utf-8")))
    assert not source_names(parser) & walkers


def test_parse_reads_atoms_in_walk_order(monkeypatch):
    """Each role's walk holds the atoms of what it holds, then each of its
    messages' atoms in the order a recursive walk of the payload gives."""
    walk = spa.parser._fresh_atoms
    walks = {}

    def kept(role, items):
        walks[role] = items
        return walk(role, items)

    monkeypatch.setattr(spa.parser, "_fresh_atoms", kept)
    rng = random.Random(0xA70)
    texts = [read(path) for path in CORPUS]
    texts += [render_spec(random_spec(rng, max_atoms=6, depth=5)) for _ in range(200)]
    walked = 0
    for text in texts:
        walks.clear()
        spec = parse(text)
        for role in spec.roles:
            (sends, held), *items = walks[role]
            entries = spec.knowledge[role.label]
            assert not sends and set(held) == {a for t in entries for a in atoms_of(t)}
            assert items == [(m.sender == role, list(atoms_of(m.payload)))
                             for m in spec.messages if role in (m.sender, m.recipient)]
            walked += len(entries) + len(items)
    assert walked > 1000


def test_projection_matches_reference():
    """Knowledge order, fresh atoms, events and Ungeneratable messages as the
    walk-per-use reference gives them; the draws with knowledge dropped make
    some roles send what they cannot create."""
    rng = random.Random(2012)
    draws = _draws()
    specs = [chain_spec(n, w) for n in range(1, 25) for w in (4, 8)] + draws
    specs += [
        ProtocolSpec(spec.name, spec.roles, spec.decls, {
            label: tuple(e for e in entries if rng.random() < 0.5)
            for label, entries in spec.knowledge.items()
        }, spec.messages, spec.fresh)
        for spec in draws
    ]
    cases = [(parse(read(path)), read(path)) for path in CORPUS]
    cases += [(spec, render_spec(spec)) for spec in specs]
    refused = 0
    for spec, text in cases:
        try:
            naive_validate(spec)
        except Ungeneratable as exc:
            with pytest.raises(Ungeneratable) as got:
                parse(text)
            assert str(got.value) == str(exc)
            refused += 1
            continue
        parsed = parse(text)
        assert project(parsed) == naive_project(parsed), text
    assert 20 < refused < 300


def _parsed(parse_text, text):
    """The spec, or the error's class, message, line and column."""
    try:
        return parse_text(text)
    except SpaError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _token_mutants(rng: random.Random, text: str, count: int):
    """`count` copies of text re-spaced token by token, each with one token
    deleted, duplicated, swapped with its neighbour or replaced by another
    of the text's tokens; the gaps put tokens on several lines."""
    tokens = [tok.text for tok in naive_tokenize(text)[:-1]]
    for _ in range(count):
        out = list(tokens)
        at = rng.randrange(len(out))
        op = rng.choice(("delete", "duplicate", "swap", "replace"))
        if op == "delete":
            del out[at]
        elif op == "duplicate":
            out.insert(at, out[at])
        elif op == "swap" and at + 1 < len(out):
            out[at], out[at + 1] = out[at + 1], out[at]
        else:
            out[at] = rng.choice(tokens)
        yield "".join(tok + rng.choice((" ", "\n", "\n  ")) for tok in out)


def _nesting_terms() -> list:
    """Terms one level under the nesting cap, at it and one past it, for
    each kind of level and for a mix of them."""
    def at_depth(d):
        return [
            "h(" * d + "N" + ")" * d,
            "{" * d + "N" + "}sk(K)" * d,
            "(" * d + "N" + ", N)" * d,
            ", ".join(["N"] * (d + 1)),
            "h(" * (d // 2) + ", ".join(["N"] * (d - d // 2 + 1)) + ")" * (d // 2),
            "(N, " * (d - 1) + "h(N" + ")" * d,
            "{(" * (d // 2) + "N, N" + ")}pk(K)" * (d // 2),
        ]

    return [t for d in (255, 256, 257) for t in at_depth(d)]


def _placed(term: str, ended: bool = True) -> list:
    """A protocol with the term as its payload, and one with it as a
    knowledge entry; unless `ended`, each stops right after the term."""
    head = "protocol p {\n  roles A, B;\n  nonce N;\n  key K;\n"
    payload = head + "  knows A: N, K;\n  A -> B: " + term
    entry = head + "  knows A: N, K, " + term
    if not ended:
        return [payload, entry]
    return [payload + ";\n}\n", entry + ";\n  A -> B: N;\n}\n"]


def _nesting_cases() -> list:
    return [text for t in _nesting_terms() for text in _placed(t)]


def _broken_nesting_cases() -> list:
    """The nesting cases cut short after each of the first and last few
    tokens of their term and around its innermost atom, and with the first
    or the last closer of their term swapped for the other kind, so that
    the reader fails with many brackets open."""
    texts = []
    for term in _nesting_terms():
        tokens = [tok.text for tok in naive_tokenize(term)[:-1]]
        closers = [k for k, tok in enumerate(tokens) if tok in ")}"]
        inner = closers[0] if closers else len(tokens) - 1
        cuts = {*range(1, 5), *range(inner - 2, inner + 3),
                *range(len(tokens) - 4, len(tokens))}
        for k in sorted(cuts):
            texts += _placed(" ".join(tokens[:k]), ended=False)
        for k in closers[:1] + closers[-1:]:
            swapped = list(tokens)
            swapped[k] = "}" if tokens[k] == ")" else ")"
            texts += _placed(" ".join(swapped))
    return texts


def test_parse_matches_reference():
    """The spec, or the error with its line and column, that the reference
    parser gives: on valid protocols, at the nesting cap, cut short or
    mis-closed near it, and on token-level mutants, whose errors cover
    every parse error."""
    rng = random.Random(2014)
    texts = [read(path) for path in CORPUS]
    texts += [render_spec(s) for s in _draws()]
    texts += [render_spec(chain_spec(n, w)) for n in range(1, 25) for w in (4, 8)]
    texts += _nesting_cases() + _broken_nesting_cases()
    for path in CORPUS:
        texts += _token_mutants(rng, read(path), 300)
    for spec in _draws(30):
        texts += _token_mutants(rng, render_spec(spec), 10)
    tokens = [tok.text for tok in naive_tokenize(read(X509_FULL))[:-1]]
    texts += [" ".join(tokens[:k]) for k in range(len(tokens) + 1)]
    kinds = Counter()
    for text in texts:
        got, want = _parsed(parse, text), _parsed(naive_parse, text)
        assert got == want, text
        kinds[want[0].__name__ if isinstance(want, tuple) else "ok"] += 1
    assert kinds["ok"] > 400
    for name in ("ParseError", "UndeclaredIdentifier", "DuplicateDeclaration",
                 "SelfMessage", "KindMismatch", "Ungeneratable"):
        assert kinds[name], kinds


def test_error_carries_location():
    try:
        parse(MINI.replace("knows A: N;", "knows A: X;"))
    except UndeclaredIdentifier as exc:
        assert exc.line is not None and exc.column is not None
        assert "line" in str(exc)
    else:
        raise AssertionError("expected UndeclaredIdentifier")
    # input that ends right after a cipher body
    text = "protocol p { roles A, B; nonce N; key K; knows A: K; A -> B: {N}"
    for read_spec in (parse, naive_parse):
        with pytest.raises(ParseError) as exc:
            read_spec(text)
        assert str(exc.value) == (
            "expected sk, pk or pvk, found 'end of input' (line 1, column 65)"
        )
        assert (exc.value.line, exc.value.column) == (1, 65)


def test_nesting_cap_boundary():
    prefix = "A -> B: "
    column = MINI.splitlines()[5].index(prefix) + len(prefix) + 1

    def payload(text):
        return MINI.replace("A -> B: N;", f"A -> B: {text};")

    parse(payload("h(" * 256 + "N" + ")" * 256))
    with pytest.raises(ParseError) as exc:  # reported at the 257th h
        parse(payload("h(" * 257 + "N" + ")" * 257))
    assert (exc.value.line, exc.value.column) == (6, column + 2 * 256)
    # a list of k components nests k - 1 levels
    parse(payload(", ".join(["N"] * 257)))
    with pytest.raises(ParseError) as exc:  # reported at the 258th component
        parse(payload(", ".join(["N"] * 258)))
    assert (exc.value.line, exc.value.column) == (6, column + 3 * 257)
    # both kinds of level add up
    parse(payload("h(" * 128 + ", ".join(["N"] * 129) + ")" * 128))
    with pytest.raises(ParseError):
        parse(payload("h(" * 128 + ", ".join(["N"] * 130) + ")" * 128))


def test_missing_roles_section():
    with pytest.raises(ParseError):
        parse("protocol p { nonce N; A -> B: N; }")


def test_sending_unheld_data_rejected():
    # user data can be neither generated nor recovered
    with pytest.raises(Ungeneratable):
        parse(MINI.replace("nonce N;", "data N;")
                  .replace("knows A: N;", "knows B: N;"))
    with pytest.raises(Ungeneratable):  # role name the sender never held
        parse("""
        protocol p {
          roles A, B, C;
          nonce N;
          knows A: N;
          A -> B: N, C;
          C -> B: N;
        }
        """)


def test_unheld_nonce_is_fresh_not_error():
    spec = parse(MINI.replace("knows A: N;", "knows B: N;"))
    assert spec.fresh["A"] == frozenset({Atom(AtomKind.NONCE, "N")})


def test_nonce_first_seen_in_reception_not_fresh():
    spec = parse("""
    protocol echo {
      roles A, B;
      nonce N;
      knows A: N;
      A -> B: N;
      B -> A: N;
    }
    """)
    assert spec.fresh["B"] == frozenset()


def test_projection_golden_knowledge_order():
    space = project(parse(ANDREW_SRC))
    by_label = {s.participant.label: s for s in space.strands}
    assert render_kstrand(by_label["A"]) == (
        "⟨{A, B, N_a, K_AB}, A, ⟨+(A, N_a), -{N_a, K, B}_sk(K_AB), "
        "+{N_a}_sk(K), -N_b⟩⟩"
    )
    assert render_kstrand(by_label["B"]) == (
        "⟨{B, A, N_b, K_AB, K}, B, ⟨-(A, N_a), +{N_a, K, B}_sk(K_AB), "
        "-{N_a}_sk(K), +N_b⟩⟩"
    )


def test_projection_fresh_sets():
    space = project(parse(ANDREW_SRC))
    by_label = {s.participant.label: s for s in space.strands}
    assert {a.label for a in by_label["A"].fresh} == {"N_a"}
    assert {a.label for a in by_label["B"].fresh} == {"K", "N_b"}
    assert Atom(AtomKind.NONCE, "N_a") not in by_label["A"].working_knowledge()


def test_projection_skips_event_less_roles():
    spec = parse("""
    protocol p {
      roles A, B, C;
      nonce N;
      knows A: N;
      A -> B: N;
    }
    """)
    space = project(spec)
    assert [s.participant.label for s in space.strands] == ["A", "B"]


def round_trips(spec):
    """The spec parses back from its rendering, declaration order included,
    and that rendering is the text its parse renders to."""
    text = render_spec(spec)
    assert parse(text) == spec
    assert render_spec(parse(text)) == text


def test_corpus_round_trips():
    for path in CORPUS:
        round_trips(parse(read(path)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_spec_round_trips(seed):
    round_trips(random_spec(random.Random(seed)))


def test_spec_equality_sees_declaration_order():
    # `project` orders a role's held atoms by declaration order
    texts = [f"protocol p {{ roles A, B; {decls} knows A: N, D; A -> B: N, D; }}"
             for decls in ("nonce N; data D;", "data D; nonce N;")]
    first, second = map(parse, texts)
    assert first != second
    assert project(first).strands != project(second).strands
