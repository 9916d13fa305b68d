"""Protocol source parsing and projection onto knowledge strands.

Source files declare roles, atoms, per-role knowledge, and an ordered list
of messages.  Projection turns each role into one knowledge strand: a sent
message is a positive event on the sender's strand and a negative event on
the recipient's, in message order.  Nonce/key atoms a role emits without
holding them are marked fresh; participant/user-data atoms in that position
are rejected, since nothing can create them; parsing notes each payload's
atoms as it reads their tokens, finds both in one pass per role over them,
and keeps the fresh atoms in `ProtocolSpec.fresh`.

Tokenizing is one `re.split` pass that yields the token strings; a token's
kind shows in its text.  Offsets, lines and columns are worked out only for
an error, by scanning the source again (`_tokenize`).  Terms are read by one
loop with an explicit stack of open brackets, so parsing never recurses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DuplicateDeclaration,
    KindMismatch,
    ParseError,
    SelfMessage,
    UndeclaredIdentifier,
    Ungeneratable,
)
from .strands import KStrand, StrandSpace
from .terms import (
    Atom,
    AtomKind,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    Term,
    atoms_of,
)

# Deepest nesting a term may have.  Each pair, cipher and hash around a
# basic value is one level, so a list of k components nests k - 1 levels.
# The parser does not recurse, but `type_erase`, `delta`, extraction's
# `_construct` and `render_term` recurse once per level; the cap keeps them
# far from Python's recursion limit.
MAX_NESTING = 256

RESERVED = {
    "protocol", "roles", "nonce", "key", "data", "knows", "sk", "pk", "pvk", "h",
}
# tokens that cannot be declared: keywords, punctuation and the end of input
_NOT_NAMES = frozenset(RESERVED | {"", "->", *"{}(),;:"})

_KIND_WORDS = {"nonce": AtomKind.NONCE, "key": AtomKind.KEY, "data": AtomKind.USERDATA}
_FUNCS = {"sk": FuncName.SK, "pk": FuncName.PK, "pvk": FuncName.PVK}

# Whitespace and comments are matched too, so that consecutive matches cover
# the whole source and a gap between them is an unexpected character.  Only a
# token is captured.  Each alternative is one greedy run with nothing after
# it, so no input makes the engine backtrack.
_TOKEN_RE = re.compile(r"\s+|//[^\n]*|([A-Za-z][A-Za-z0-9_]*|->|[{}(),;:])")


class Token(NamedTuple):
    kind: str  # "ident", "arrow", "punct", "eof"
    text: str
    pos: int  # offset into the source; see _line_col


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset `pos`, for error messages only."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_texts(text: str) -> list[str]:
    """The source's tokens as strings, then "" for the end of input.

    One `split` pass: the unmatched gaps sit at the even indices and must all
    be empty, and the captured tokens at the odd ones (None for whitespace
    and comments).  A valid token's kind shows in its text: an identifier
    starts with a letter, and every other token is "->" or one punctuation
    character."""
    parts = _TOKEN_RE.split(text)
    if any(parts[::2]):
        _tokenize(text)  # raises, located at the first gap
    return [*filter(None, parts[1::2]), ""]


def _tokenize(text: str) -> list[Token]:
    """`_token_texts`'s tokens with their kinds and offsets.  Parsing needs
    offsets only to locate an error, so it scans again for them then."""
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        tok = m.group(1)
        if tok:
            kind = "ident" if tok[0].isalpha() else "arrow" if tok == "->" else "punct"
            tokens.append(Token(kind, tok, pos))
        pos = m.end()
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", *_line_col(text, pos))
    tokens.append(Token("eof", "", pos))
    return tokens


@dataclass(frozen=True, slots=True)
class Message:
    sender: Atom
    recipient: Atom
    payload: Term


@dataclass(frozen=True, slots=True)
class ProtocolSpec:
    name: str
    roles: tuple[Atom, ...]
    decls: dict  # label -> AtomKind, declaration order, roles included
    knowledge: dict  # role label -> tuple of Term
    messages: tuple[Message, ...]
    fresh: dict  # role label -> frozenset of the atoms it must create

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
        return _line_col(self.text, _tokenize(self.text)[i].pos)

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

        knowledge: dict[str, list[Term]] = {r.label: [] for r in roles}
        while toks[i] == "knows":
            held = knowledge[self.role_ref(i + 1).label]
            self.expect(i + 2, ":")
            entry, i = self.term(i + 3, [], listed=False)
            entries = [entry]
            while toks[i] == ",":
                entry, i = self.term(i + 1, [], listed=False)
                entries.append(entry)
            self.expect(i, ";")
            i += 1
            for entry in entries:
                if entry not in held:
                    held.append(entry)

        messages = []
        carried = []  # each payload's atoms, in `atoms_of` order
        while not messages or toks[i] != "}":
            frm = self.role_ref(i)
            self.expect(i + 1, "->")
            to = self.role_ref(i + 2)
            if frm == to:
                raise SelfMessage(f"{frm.label!r} sends to itself", *self.at(i))
            self.expect(i + 3, ":")
            carried.append(found := [])
            payload, i = self.term(i + 4, found, listed=True)
            self.expect(i, ";")
            i += 1
            messages.append(Message(frm, to, payload))
        tail = toks[i + 1]
        if tail:
            raise ParseError(f"unexpected {tail!r} after protocol", *self.at(i + 1))

        messages = tuple(messages)
        held = {label: tuple(entries) for label, entries in knowledge.items()}
        return ProtocolSpec(
            name=name,
            roles=tuple(roles),
            decls={label: atom.kind for label, atom in self.atoms.items()},
            knowledge=held,
            messages=messages,
            fresh={
                r.label: _fresh_atoms(r, held[r.label], messages, carried)
                for r in roles
            },
        )

    def term(self, i: int, found: list, listed: bool) -> tuple[Term, int]:
        """The term from token i, or if `listed` the comma-separated terms
        from there as a left-nested pair chain, and the index after it.
        Every atom read, keys included, is appended to `found` in token
        order, which is `atoms_of` order.

        One loop reads every token.  `stack` holds the open brackets, each
        with the run of comma-separated terms it interrupted; a run is its
        pair chain so far (`out`), that chain's nesting depth (`height`) and
        its number of terms (`count`).  A term's depth counts the levels in
        it, so a list of k terms nests k - 1 levels and each cipher or hash
        adds one; the stack's length counts the brackets around it.  Either
        reaching `MAX_NESTING` is an error at the first token of the term
        that reaches it; for a pair, that is its right component."""
        toks, atoms = self.tokens, self.atoms
        stack = []
        out, height, count = None, 0, 0
        while True:
            start = i
            tok = toks[i]
            term = atoms.get(tok)
            if term is None:  # an open bracket, or an error
                if tok != "(" and tok != "{" and tok != "h":
                    self.lookup(i, "a term")  # raises: not a declared name
                if len(stack) >= MAX_NESTING:
                    raise self.too_deep(i)
                if tok == "h":
                    i += 1
                    self.expect(i, "(")
                stack.append((tok, start, (out, height, count)))
                out, height, count = None, 0, 0
                i += 1
                continue
            found.append(term)
            level = 0
            i += 1
            while True:
                # term, from token start with depth level, ends the run so far
                if count:
                    out = Pair(out, term)
                    if height < level:
                        height = level
                    if height >= MAX_NESTING:
                        raise self.too_deep(start)
                    height += 1
                else:
                    out, height = term, level
                count += 1
                tok = toks[i]
                if tok == "," and (stack or listed):
                    i += 1
                    break
                if not stack:
                    return out, i
                # the run ends its bracket: close it into a term
                bracket, start, run = stack.pop()
                if bracket == "(":
                    self.expect(i, ")")
                    if count < 2:
                        raise ParseError(
                            "parenthesized terms need at least two components",
                            *self.at(start),
                        )
                    term, level = out, height
                    i += 1
                else:
                    if bracket == "h":
                        self.expect(i, ")")
                        term = Enc(out, FuncName.H, Empty())
                        i += 1
                    else:
                        term, i = self.cipher(i, out, found)
                    if height >= MAX_NESTING:
                        raise self.too_deep(start)
                    level = height + 1
                out, height, count = run

    def cipher(self, i: int, body: Term, found: list) -> tuple[Enc, int]:
        """The cipher of body whose closing '}' is token i, and the index
        after the ')' around its key."""
        self.expect(i, "}")
        func = _FUNCS.get(self.tokens[i + 1])
        if func is None:
            raise ParseError(
                f"expected sk, pk or pvk, found {self.tokens[i + 1]!r}", *self.at(i + 1)
            )
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


def role_events(spec: ProtocolSpec, role: Atom) -> list[SignedTerm]:
    events = []
    for msg in spec.messages:
        if msg.sender == role:
            events.append(SignedTerm(1, msg.payload))
        elif msg.recipient == role:
            events.append(SignedTerm(-1, msg.payload))
    return events


def _fresh_atoms(
    role: Atom, entries: tuple, messages: tuple, carried: list
) -> frozenset[Atom]:
    """Atoms the role must create: those it does not hold initially and first
    meets in one of its sends, which must be nonces or keys.  An unheld
    participant or user-data atom it sends is Ungeneratable.  `carried`
    holds the atoms of each message's payload, in `atoms_of` order."""
    known = {role}
    for entry in entries:
        known.update(atoms_of(entry))
    fresh = set()
    for msg, atoms in zip(messages, carried):
        sends = msg.sender == role
        if not sends and msg.recipient != role:
            continue
        for atom in atoms:
            if atom in known:
                continue
            known.add(atom)
            if not sends:
                continue
            if atom.kind is AtomKind.PARTICIPANT or atom.kind is AtomKind.USERDATA:
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
    strands = (_role_strand(spec, role) for role in spec.roles)
    strands = tuple(s for s in strands if s is not None)
    index = {s.participant: i for i, s in enumerate(strands)}
    placed = dict.fromkeys(index, 0)  # role -> its events so far
    comm = []
    for msg in spec.messages:
        placed[msg.sender] += 1
        placed[msg.recipient] += 1
        comm.append(((index[msg.sender], placed[msg.sender]),
                     (index[msg.recipient], placed[msg.recipient])))
    return StrandSpace(strands, tuple(comm))


def _role_strand(spec: ProtocolSpec, role: Atom) -> KStrand | None:
    """The role's knowledge strand (see `project`); None if it has no
    events."""
    events = role_events(spec, role)
    if not events:
        return None
    entries = spec.knowledge[role.label]
    fresh = spec.fresh[role.label]
    held = {e.label: e for e in entries if isinstance(e, Atom)}
    held.update((a.label, a) for a in fresh)
    held.pop(role.label, None)
    knowledge: list[Term] = [role]
    # roles are declared first, so declaration order puts them first
    knowledge += [held[label] for label in spec.decls if label in held]
    knowledge += [e for e in entries if not isinstance(e, Atom)]
    return KStrand(
        knowledge=tuple(knowledge),
        participant=role,
        seq=tuple(events),
        fresh=fresh,
    )

