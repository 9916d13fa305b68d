"""Protocol source parsing and projection onto knowledge strands.

Source files declare roles, atoms, per-role knowledge, and an ordered list
of messages.  Projection turns each role into one knowledge strand: a sent
message is a positive event on the sender's strand and a negative event on
the recipient's, in message order.  Nonce/key atoms a role emits without
holding them are marked fresh; participant/user-data atoms in that position
are rejected, since nothing can create them.  Parsing notes the atoms of
each knowledge entry and payload as it reads their tokens, so it walks no
term after reading it; it finds both in one pass per role over what the
role holds and its own messages, and keeps the fresh atoms in
`ProtocolSpec.fresh`.  Projection walks the messages once for all roles.

Tokenizing is one `re.findall` pass that yields the token strings; a
token's kind shows in its text.  Offsets, lines and columns are worked out
only for an error, by scanning the source again (`_offsets`).  Terms are
read by recursive descent over token indices: `_Parser.term` reads one term
and `_Parser.run` a comma-separated list of them.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import (
    DuplicateDeclaration,
    KindMismatch,
    ParseError,
    SelfMessage,
    UndeclaredIdentifier,
    Ungeneratable,
)
from .strands import BUILDS, KStrand, StrandSpace, _tag
from .terms import (
    Atom,
    AtomKind,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    Term,
    Value,
)

# Deepest nesting a term may have.  Each pair, cipher and hash around a
# basic value is one level, so a list of k components nests k - 1 levels.
# The parser recurses twice per bracket level (`term` and `run`), and
# `delta`, extraction's `_construct` and `render_term` once per level (a
# term's typed term is built without recursion, from its children's); the
# cap keeps them all far from Python's recursion limit.
MAX_NESTING = 256

_KIND_WORDS = {k.value: k for k in AtomKind if k is not AtomKind.PARTICIPANT}
_FUNCS = {f.value: f for f in FuncName if f is not FuncName.H}  # a cipher's; h(...) takes no key
RESERVED = {"protocol", "roles", "knows", *_KIND_WORDS, *(f.value for f in FuncName)}
# tokens that cannot be declared: keywords, punctuation and the end of input
_NOT_NAMES = frozenset(RESERVED | {"", "->", *"{}(),;:"})

# Each match is a comment, a token, or else one non-space character, which is
# the lexical error unless it is a token itself (`_ONE_CHAR`); whitespace lies
# between matches.  Each alternative is one greedy run with nothing after it,
# so no input makes the engine backtrack.
_TOKEN_RE = re.compile(r"//[^\n]*|[A-Za-z][A-Za-z0-9_]*|->|\S")
_ONE_CHAR = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz{}(),;:")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset `pos`, for error messages only."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_texts(text: str) -> list[str]:
    """The source's tokens as strings, then "" for the end of input.

    One `findall` pass.  A valid token's kind shows in its text: an
    identifier starts with a letter, and every other token is "->" or one
    punctuation character."""
    tokens = _TOKEN_RE.findall(text)
    if "//" in text:
        tokens = [t for t in tokens if t[:2] != "//"]
    if min(map(len, set(tokens).difference(_ONE_CHAR)), default=2) < 2:
        _offsets(text)  # raises, located at the first such character
    tokens.append("")
    return tokens


def _offsets(text: str) -> list[int]:
    """The offset of each of `_token_texts`'s tokens, the end of input's
    included.  Parsing needs offsets only to locate an error, so it scans
    again for them then; a character that starts no token, whitespace or
    comment is itself the error."""
    offsets = []
    for m in _TOKEN_RE.finditer(text):
        t = m.group()
        if len(t) == 1 and t not in _ONE_CHAR:
            raise ParseError(f"unexpected character {t!r}", *_line_col(text, m.start()))
        if t[:2] != "//":
            offsets.append(m.start())
    offsets.append(len(text))
    return offsets


class Message(Value):
    __slots__ = {"sender": Atom, "recipient": Atom, "payload": Term}


class ProtocolSpec:
    __slots__ = ("name", "roles", "decls", "knowledge", "messages", "fresh")

    def __init__(self, name, roles, decls, knowledge, messages, fresh):
        self.name = name
        self.roles = roles  # tuple of role Atoms
        self.decls = decls  # label -> AtomKind, declaration order, roles included
        self.knowledge = knowledge  # role label -> tuple of Term
        self.messages = messages  # tuple of Messages
        self.fresh = fresh  # role label -> frozenset of the atoms it must create

    def __eq__(self, other):
        if type(other) is not ProtocolSpec:
            return NotImplemented
        # `project` reads declarations in order, and dicts compare without it
        return list(self.decls) == list(other.decls) and all(
            getattr(self, f) == getattr(other, f) for f in self.__slots__
        )

    def role(self, label: str) -> Atom | None:
        for r in self.roles:
            if r.label == label:
                return r
        return None


class _Parser:
    """One pass over the token strings ("" is the end of input).  Each
    method takes the index of the token it reads, and one that reads a run
    of tokens returns the index after it, so an error is located at the
    index in hand."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _token_texts(text)
        self.atoms: dict[str, Atom] = {}

    # -- errors and single tokens -------------------------------------------

    def at(self, i: int) -> tuple[int, int]:
        """Line and column of token i."""
        return _line_col(self.text, _offsets(self.text)[i])

    def expected(self, i: int, what: str) -> ParseError:
        shown = self.tokens[i] or "end of input"
        return ParseError(f"expected {what}, found {shown!r}", *self.at(i))

    def expect(self, i: int, text: str) -> None:
        if self.tokens[i] != text:
            raise self.expected(i, repr(text))

    def name(self, i: int, what: str) -> str:
        tok = self.tokens[i]
        if not tok[:1].isalpha():
            raise self.expected(i, what)
        if tok in RESERVED:
            raise ParseError(f"{tok!r} is reserved", *self.at(i))
        return tok

    def lookup(self, i: int, what: str) -> Atom:
        atom = self.atoms.get(self.tokens[i])
        if atom is None:
            raise UndeclaredIdentifier(
                f"{self.name(i, what)!r} is not declared", *self.at(i)
            )
        return atom

    def role_ref(self, i: int) -> Atom:
        atom = self.lookup(i, "role name")
        if atom.kind is not AtomKind.PARTICIPANT:
            raise KindMismatch(f"{atom.label!r} is not a role", *self.at(i))
        return atom

    # -- grammar ------------------------------------------------------------

    def declare(self, i: int, kind: AtomKind, what: str) -> tuple[list, int]:
        """The atoms a comma-separated list of names from token i to its
        ';' declares, and the index after the ';'."""
        toks, atoms = self.tokens, self.atoms
        declared = []
        while True:
            label = toks[i]
            if label in atoms or label in _NOT_NAMES:
                self.name(i, what)  # raises unless the name is taken
                raise DuplicateDeclaration(f"{label!r} already declared", *self.at(i))
            atom = atoms[label] = Atom(kind, label)
            declared.append(atom)
            if toks[i + 1] != ",":
                break
            i += 2
        self.expect(i + 1, ";")
        return declared, i + 2

    def protocol(self) -> ProtocolSpec:
        toks = self.tokens
        self.expect(0, "protocol")
        name = self.name(1, "protocol name")
        self.expect(2, "{")
        self.expect(3, "roles")
        roles, i = self.declare(4, AtomKind.PARTICIPANT, "role name")
        while (kind := _KIND_WORDS.get(toks[i])) is not None:
            i = self.declare(i + 1, kind, "identifier")[1]

        # each role's walk: (whether it sends it, the atoms read, in token
        # order) for what it holds, then for each of its messages in order
        walks: dict[Atom, list] = {r: [(False, [])] for r in roles}
        # insertion-ordered: a repeated entry keeps its first place
        knowledge: dict[str, dict[Term, None]] = {r.label: {} for r in roles}
        while toks[i] == "knows":
            role = self.role_ref(i + 1)
            found = walks[role][0][1]
            self.expect(i + 2, ":")
            entry, _, i = self.term(i + 3, found, 0)
            entries = [entry]
            while toks[i] == ",":
                entry, _, i = self.term(i + 1, found, 0)
                entries.append(entry)
            self.expect(i, ";")
            i += 1
            knowledge[role.label].update(dict.fromkeys(entries))

        messages = []
        while not messages or toks[i] != "}":
            frm = self.role_ref(i)
            self.expect(i + 1, "->")
            to = self.role_ref(i + 2)
            if frm == to:
                raise SelfMessage(f"{frm.label!r} sends to itself", *self.at(i))
            self.expect(i + 3, ":")
            walks[frm].append((True, found := []))
            walks[to].append((False, found))
            payload, _, _, i = self.run(i + 4, found, 0)
            self.expect(i, ";")
            i += 1
            messages.append(Message(frm, to, payload))
        tail = toks[i + 1]
        if tail:
            raise ParseError(f"unexpected {tail!r} after protocol", *self.at(i + 1))

        return ProtocolSpec(
            name=name,
            roles=tuple(roles),
            decls={label: atom.kind for label, atom in self.atoms.items()},
            knowledge={label: tuple(entries) for label, entries in knowledge.items()},
            messages=tuple(messages),
            fresh={r.label: _fresh_atoms(r, walks[r]) for r in roles},
        )

    def term(self, i: int, found: list, depth: int) -> tuple[Term, int, int]:
        """The term from token i, its nesting depth and the index after it.
        Every atom read, keys included, is appended to `found` in token
        order: left to right, a cipher's body before its key.

        `depth` counts the brackets around the term.  Opening one more at
        `MAX_NESTING`, or a term whose own depth would pass it, is an error
        at the term's first token."""
        tok = self.tokens[i]
        atom = self.atoms.get(tok)
        if atom is not None:
            found.append(atom)
            return atom, 0, i + 1
        if tok != "(" and tok != "{" and tok != "h":
            self.lookup(i, "a term")  # raises: not a declared name
        if depth >= MAX_NESTING:
            raise self.too_deep(i)
        if tok == "(":
            inner, height, count, j = self.run(i + 1, found, depth + 1)
            self.expect(j, ")")
            if count < 2:
                raise ParseError(
                    "parenthesized terms need at least two components", *self.at(i)
                )
            return inner, height, j + 1
        if tok == "h":
            self.expect(i + 1, "(")
            body, height, _, j = self.run(i + 2, found, depth + 1)
            self.expect(j, ")")
            term, j = Enc(body, FuncName.H, Empty()), j + 1
        else:
            body, height, _, j = self.run(i + 1, found, depth + 1)
            term, j = self.cipher(j, body, found)
        if height >= MAX_NESTING:
            raise self.too_deep(i)
        return term, height + 1, j

    def run(self, i: int, found: list, depth: int) -> tuple[Term, int, int, int]:
        """The comma-separated terms from token i as a left-nested pair
        chain, its nesting depth, its number of terms and the index after
        it.  A pair too deep is an error at its right component."""
        out, height, i = self.term(i, found, depth)
        count = 1
        while self.tokens[i] == ",":
            right, level, j = self.term(i + 1, found, depth)
            out = Pair(out, right)
            if height < level:
                height = level
            if height >= MAX_NESTING:
                raise self.too_deep(i + 1)
            height += 1
            count += 1
            i = j
        return out, height, count, i

    def cipher(self, i: int, body: Term, found: list) -> tuple[Enc, int]:
        """The cipher of body whose closing '}' is token i, and the index
        after the ')' around its key."""
        self.expect(i, "}")
        func = _FUNCS.get(self.tokens[i + 1])
        if func is None:
            raise self.expected(i + 1, "sk, pk or pvk")
        self.expect(i + 2, "(")
        key = self.lookup(i + 3, "key name")
        if key.kind is not AtomKind.KEY:
            raise KindMismatch(f"{key.label!r} is not a key", *self.at(i + 3))
        self.expect(i + 4, ")")
        found.append(key)
        return Enc(body, func, key), i + 5

    def too_deep(self, i: int) -> ParseError:
        return ParseError(f"term nests more than {MAX_NESTING} levels deep", *self.at(i))


def parse(text: str) -> ProtocolSpec:
    """Parse protocol source into a validated spec."""
    return _Parser(text).protocol()


def _fresh_atoms(role: Atom, walk: list) -> frozenset[Atom]:
    """Atoms the role must create: those it does not hold initially and first
    meets in one of its sends, whose tag (`strands._tag`, its basic type)
    must be one some operation builds (`strands.BUILDS`: nonces and keys).
    Any other unheld atom it sends is Ungeneratable.  `walk` holds
    `(sends, atoms)` items as the parser read them: first `(False, the
    atoms of every knowledge entry)`, then one per message the role sends
    or receives, in message order: whether it sends it, and the payload's
    atoms in token order."""
    known = {role}
    fresh = set()
    for sends, atoms in walk:
        for atom in atoms:
            if atom in known:
                continue
            known.add(atom)
            if not sends:
                continue
            if _tag(atom._typed) not in BUILDS:
                raise Ungeneratable(
                    f"role {role.label} sends {atom.label} without holding "
                    f"it, and {atom.kind.value} atoms cannot be generated"
                )
            fresh.add(atom)
    return frozenset(fresh)


def project(spec: ProtocolSpec) -> StrandSpace:
    """One knowledge strand per role with at least one event, and one
    communication edge per message, in message order.

    Knowledge order: own name, other role names held (declaration order),
    held or fresh basic atoms (declaration order), compound entries last.
    Message k is its sender's and its recipient's next event, so its edge
    links those two positions.
    """
    strands = tuple(s for s in _role_strands(spec, spec.roles) if s is not None)
    index = {s.participant: i for i, s in enumerate(strands)}
    placed = dict.fromkeys(index, 0)  # role -> its events so far
    comm = []
    for msg in spec.messages:
        placed[msg.sender] += 1
        placed[msg.recipient] += 1
        comm.append(((index[msg.sender], placed[msg.sender]),
                     (index[msg.recipient], placed[msg.recipient])))
    return StrandSpace(strands, tuple(comm))


def _role_strands(spec: ProtocolSpec, roles) -> Iterator[KStrand | None]:
    """Each of `roles`' knowledge strands (see `project`), None for one with
    no events.  One walk over the messages and one declaration rank serve
    them all: a message is its sender's positive event and its recipient's
    negative one, built only for the roles asked for."""
    events: dict[Atom, list[SignedTerm]] = {role: [] for role in roles}
    for msg in spec.messages:
        if msg.sender in events:
            events[msg.sender].append(SignedTerm(1, msg.payload))
        if msg.recipient in events:
            events[msg.recipient].append(SignedTerm(-1, msg.payload))
    rank = {label: i for i, label in enumerate(spec.decls)}
    for role in roles:
        if not events[role]:
            yield None
            continue
        entries = spec.knowledge[role.label]
        fresh = spec.fresh[role.label]
        held = {e for e in entries if isinstance(e, Atom)} | fresh
        held.discard(role)
        # roles are declared first, so declaration order puts them first
        knowledge = [role, *sorted(held, key=lambda a: rank[a.label])]
        knowledge += [e for e in entries if not isinstance(e, Atom)]
        yield KStrand(
            knowledge=tuple(knowledge),
            participant=role,
            seq=tuple(events[role]),
            fresh=fresh,
        )
