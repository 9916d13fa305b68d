"""Protocol source parsing and projection onto knowledge strands.

Source files declare roles, atoms, per-role knowledge, and an ordered list
of messages.  Projection turns each role into one knowledge strand: a sent
message is a positive event on the sender's strand and a negative event on
the recipient's, in message order.  Nonce/key atoms a role emits without
holding them are marked fresh; participant/user-data atoms in that position
are rejected, since nothing can create them; parsing walks each payload's
atoms once, finds both in one pass per role over them, and keeps the fresh
atoms in `ProtocolSpec.fresh`.

Tokenizing is one `re.split` pass that yields the token strings; a token's
kind shows in its text.  Offsets, lines and columns are worked out only for
an error, by scanning the source again (`_tokenize`).
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
# The term walks recurse once per level; the cap keeps them far from
# Python's recursion limit.
MAX_NESTING = 256

RESERVED = {
    "protocol", "roles", "nonce", "key", "data", "knows", "sk", "pk", "pvk", "h",
}

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
    """Recursive descent over token strings ("" is the end of input).  The
    cursor `pos` moves past every token `next` returns, so an error about the
    token just read is located at `pos - 1`."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _token_texts(text)
        self.pos = 0
        self.atoms: dict[str, Atom] = {}

    # -- token plumbing -----------------------------------------------------

    def at(self, i: int) -> tuple[int, int]:
        """Line and column of token i."""
        return _line_col(self.text, _tokenize(self.text)[i].pos)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        # past the end only on the way to an error: every caller that can
        # read "" raises, except the final end-of-input check
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok != text:
            shown = tok or "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", *self.at(self.pos - 1))

    def ident(self, what: str = "identifier") -> str:
        tok = self.next()
        if not tok[:1].isalpha():
            shown = tok or "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", *self.at(self.pos - 1))
        if tok in RESERVED:
            raise ParseError(f"{tok!r} is reserved", *self.at(self.pos - 1))
        return tok

    # -- declarations: each locates its error at the token just read --------

    def declare(self, label: str, kind: AtomKind) -> Atom:
        if label in self.atoms:
            raise DuplicateDeclaration(
                f"{label!r} already declared", *self.at(self.pos - 1)
            )
        atom = self.atoms[label] = Atom(kind, label)
        return atom

    def lookup(self, label: str) -> Atom:
        atom = self.atoms.get(label)
        if atom is None:
            raise UndeclaredIdentifier(
                f"{label!r} is not declared", *self.at(self.pos - 1)
            )
        return atom

    def role_ref(self, label: str) -> Atom:
        atom = self.lookup(label)
        if atom.kind is not AtomKind.PARTICIPANT:
            raise KindMismatch(
                f"{label!r} is not a role", *self.at(self.pos - 1)
            )
        return atom

    # -- grammar ------------------------------------------------------------

    def protocol(self) -> ProtocolSpec:
        self.expect("protocol")
        name = self.ident("protocol name")
        self.expect("{")

        self.expect("roles")
        roles = [self.declare(self.ident("role name"), AtomKind.PARTICIPANT)]
        while self.peek() == ",":
            self.next()
            roles.append(self.declare(self.ident("role name"), AtomKind.PARTICIPANT))
        self.expect(";")

        kind_words = {"nonce": AtomKind.NONCE, "key": AtomKind.KEY, "data": AtomKind.USERDATA}
        while self.peek() in kind_words:
            kind = kind_words[self.next()]
            self.declare(self.ident(), kind)
            while self.peek() == ",":
                self.next()
                self.declare(self.ident(), kind)
            self.expect(";")

        knowledge: dict[str, list[Term]] = {r.label: [] for r in roles}
        while self.peek() == "knows":
            self.next()
            role = self.role_ref(self.ident("role name"))
            self.expect(":")
            entries = [self.term()[0]]
            while self.peek() == ",":
                self.next()
                entries.append(self.term()[0])
            self.expect(";")
            for entry in entries:
                if entry not in knowledge[role.label]:
                    knowledge[role.label].append(entry)

        messages = [self.message()]
        while self.peek() != "}":
            messages.append(self.message())
        self.expect("}")
        tail = self.next()
        if tail:
            raise ParseError(
                f"unexpected {tail!r} after protocol", *self.at(self.pos - 1)
            )

        messages = tuple(messages)
        held = {label: tuple(entries) for label, entries in knowledge.items()}
        # each payload is walked once and shared by its sender and recipient
        carried = [tuple(atoms_of(msg.payload)) for msg in messages]
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

    def message(self) -> Message:
        frm_at = self.pos
        frm = self.role_ref(self.ident("role name"))
        self.expect("->")
        to = self.role_ref(self.ident("role name"))
        if frm == to:
            raise SelfMessage(
                f"{frm.label!r} sends to itself", *self.at(frm_at)
            )
        self.expect(":")
        payload, _, _ = self.sequence(0)
        self.expect(";")
        return Message(frm, to, payload)

    def sequence(self, depth: int) -> tuple[Term, int, int]:
        """Comma-separated terms as a left-nested pair chain: (term, its
        nesting depth, number of components)."""
        out, height = self.term(depth)
        count = 1
        while self.peek() == ",":
            self.next()
            start = self.pos
            right, right_height = self.term(depth)
            out = Pair(out, right)
            height = self.nest(max(height, right_height), start)
            count += 1
        return out, height, count

    def nest(self, inner: int, start: int) -> int:
        """Depth of a term one level above `inner`, started at token start."""
        if inner >= MAX_NESTING:
            raise ParseError(
                f"term nests more than {MAX_NESTING} levels deep", *self.at(start)
            )
        return inner + 1

    def term(self, depth: int = 0) -> tuple[Term, int]:
        """One term and its nesting depth; `depth` counts the brackets around
        it, so runaway bracketing stops before the parser recurses further."""
        start = self.pos
        tok = self.tokens[start]
        if tok == "(":
            self.nest(depth, start)
            self.next()
            inner, height, count = self.sequence(depth + 1)
            self.expect(")")
            if count < 2:
                raise ParseError(
                    "parenthesized terms need at least two components",
                    *self.at(start),
                )
            return inner, height
        if tok == "{":
            self.nest(depth, start)
            self.next()
            body, height, _ = self.sequence(depth + 1)
            self.expect("}")
            func = self.next()
            funcs = {"sk": FuncName.SK, "pk": FuncName.PK, "pvk": FuncName.PVK}
            if func not in funcs:
                raise ParseError(
                    f"expected sk, pk or pvk, found {func!r}", *self.at(self.pos - 1)
                )
            self.expect("(")
            key = self.lookup(self.ident("key name"))
            if key.kind is not AtomKind.KEY:
                raise KindMismatch(
                    f"{key.label!r} is not a key", *self.at(self.pos - 1)
                )
            self.expect(")")
            return Enc(body, funcs[func], key), self.nest(height, start)
        if tok == "h":
            self.nest(depth, start)
            self.next()
            self.expect("(")
            body, height, _ = self.sequence(depth + 1)
            self.expect(")")
            return Enc(body, FuncName.H, Empty()), self.nest(height, start)
        if tok[:1].isalpha():
            return self.lookup(self.ident()), 0
        shown = tok or "end of input"
        raise ParseError(f"expected a term, found {shown!r}", *self.at(start))


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

