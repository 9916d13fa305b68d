"""Protocol source parsing and projection onto knowledge strands.

Source files declare roles, atoms, per-role knowledge, and an ordered list
of messages.  Projection turns each role into one knowledge strand: a sent
message is a positive event on the sender's strand and a negative event on
the recipient's, in message order.  Nonce/key atoms a role emits without
holding them are marked fresh; participant/user-data atoms in that position
are rejected, since nothing can create them.
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
# the whole source and a gap between them is an unexpected character.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[{}(),;:])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "ident", "arrow", "punct", "eof"
    text: str
    pos: int  # offset into the source; see _line_col


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of offset `pos`, for error messages only."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        kind = m.lastgroup
        if kind != "ws" and kind != "comment":
            tokens.append(Token(kind, m.group(), pos))
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

    def role(self, label: str) -> Atom | None:
        for r in self.roles:
            if r.label == label:
                return r
        return None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.atoms: dict[str, Atom] = {}
        self.decl_order: list[str] = []

    # -- token plumbing -----------------------------------------------------

    def at(self, tok: Token) -> tuple[int, int]:
        return _line_col(self.text, tok.pos)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", *self.at(tok))
        return tok

    def ident(self, what: str = "identifier") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            shown = tok.text if tok.kind != "eof" else "end of input"
            raise ParseError(f"expected {what}, found {shown!r}", *self.at(tok))
        if tok.text in RESERVED:
            raise ParseError(f"{tok.text!r} is reserved", *self.at(tok))
        return tok

    # -- declarations -------------------------------------------------------

    def declare(self, tok: Token, kind: AtomKind) -> Atom:
        if tok.text in self.atoms:
            raise DuplicateDeclaration(
                f"{tok.text!r} already declared", *self.at(tok)
            )
        atom = Atom(kind, tok.text)
        self.atoms[tok.text] = atom
        self.decl_order.append(tok.text)
        return atom

    def lookup(self, tok: Token) -> Atom:
        atom = self.atoms.get(tok.text)
        if atom is None:
            raise UndeclaredIdentifier(
                f"{tok.text!r} is not declared", *self.at(tok)
            )
        return atom

    def role_ref(self, tok: Token) -> Atom:
        atom = self.lookup(tok)
        if atom.kind is not AtomKind.PARTICIPANT:
            raise KindMismatch(
                f"{tok.text!r} is not a role", *self.at(tok)
            )
        return atom

    # -- grammar ------------------------------------------------------------

    def protocol(self) -> ProtocolSpec:
        self.expect("protocol")
        name = self.ident("protocol name").text
        self.expect("{")

        self.expect("roles")
        roles = [self.declare(self.ident("role name"), AtomKind.PARTICIPANT)]
        while self.peek().text == ",":
            self.next()
            roles.append(self.declare(self.ident("role name"), AtomKind.PARTICIPANT))
        self.expect(";")

        kind_words = {"nonce": AtomKind.NONCE, "key": AtomKind.KEY, "data": AtomKind.USERDATA}
        while self.peek().text in kind_words:
            kind = kind_words[self.next().text]
            self.declare(self.ident(), kind)
            while self.peek().text == ",":
                self.next()
                self.declare(self.ident(), kind)
            self.expect(";")

        knowledge: dict[str, list[Term]] = {r.label: [] for r in roles}
        while self.peek().text == "knows":
            self.next()
            role = self.role_ref(self.ident("role name"))
            self.expect(":")
            entries = [self.term()[0]]
            while self.peek().text == ",":
                self.next()
                entries.append(self.term()[0])
            self.expect(";")
            for entry in entries:
                if entry not in knowledge[role.label]:
                    knowledge[role.label].append(entry)

        messages = [self.message()]
        while self.peek().text != "}":
            messages.append(self.message())
        self.expect("}")
        tail = self.next()
        if tail.kind != "eof":
            raise ParseError(
                f"unexpected {tail.text!r} after protocol", *self.at(tail)
            )

        spec = ProtocolSpec(
            name=name,
            roles=tuple(roles),
            decls={label: self.atoms[label].kind for label in self.decl_order},
            knowledge={label: tuple(entries) for label, entries in knowledge.items()},
            messages=tuple(messages),
        )
        _validate(spec)
        return spec

    def message(self) -> Message:
        frm_tok = self.ident("role name")
        frm = self.role_ref(frm_tok)
        self.expect("->")
        to_tok = self.ident("role name")
        to = self.role_ref(to_tok)
        if frm == to:
            raise SelfMessage(
                f"{frm.label!r} sends to itself", *self.at(frm_tok)
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
        while self.peek().text == ",":
            self.next()
            tok = self.peek()
            right, right_height = self.term(depth)
            out = Pair(out, right)
            height = self.nest(max(height, right_height), tok)
            count += 1
        return out, height, count

    def nest(self, inner: int, tok: Token) -> int:
        """Depth of a term one level above `inner`, started at tok."""
        if inner >= MAX_NESTING:
            raise ParseError(
                f"term nests more than {MAX_NESTING} levels deep", *self.at(tok)
            )
        return inner + 1

    def term(self, depth: int = 0) -> tuple[Term, int]:
        """One term and its nesting depth; `depth` counts the brackets around
        it, so runaway bracketing stops before the parser recurses further."""
        tok = self.peek()
        if tok.text == "(":
            self.nest(depth, tok)
            self.next()
            inner, height, count = self.sequence(depth + 1)
            self.expect(")")
            if count < 2:
                raise ParseError(
                    "parenthesized terms need at least two components",
                    *self.at(tok),
                )
            return inner, height
        if tok.text == "{":
            self.nest(depth, tok)
            self.next()
            body, height, _ = self.sequence(depth + 1)
            self.expect("}")
            func_tok = self.next()
            funcs = {"sk": FuncName.SK, "pk": FuncName.PK, "pvk": FuncName.PVK}
            if func_tok.text not in funcs:
                raise ParseError(
                    f"expected sk, pk or pvk, found {func_tok.text!r}",
                    *self.at(func_tok),
                )
            self.expect("(")
            key_tok = self.ident("key name")
            key = self.lookup(key_tok)
            if key.kind is not AtomKind.KEY:
                raise KindMismatch(
                    f"{key_tok.text!r} is not a key", *self.at(key_tok)
                )
            self.expect(")")
            return Enc(body, funcs[func_tok.text], key), self.nest(height, tok)
        if tok.text == "h":
            self.nest(depth, tok)
            self.next()
            self.expect("(")
            body, height, _ = self.sequence(depth + 1)
            self.expect(")")
            return Enc(body, FuncName.H, Empty()), self.nest(height, tok)
        if tok.kind == "ident":
            return self.lookup(self.ident()), 0
        shown = tok.text if tok.kind != "eof" else "end of input"
        raise ParseError(f"expected a term, found {shown!r}", *self.at(tok))


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


def _first_unheld(spec: ProtocolSpec, role: Atom) -> list[tuple[int, Atom]]:
    """(sign, atom) for each atom the role does not hold initially, at the
    first of its events that carries it, in event order."""
    known = {role}
    for entry in spec.knowledge[role.label]:
        known.update(atoms_of(entry))
    first = []
    for event in role_events(spec, role):
        for atom in atoms_of(event.payload):
            if atom not in known:
                known.add(atom)
                first.append((event.sign, atom))
    return first


def fresh_atoms(spec: ProtocolSpec, role: Atom) -> frozenset[Atom]:
    """Atoms the role must create: unheld nonces/keys first seen in a send."""
    return frozenset(
        atom for sign, atom in _first_unheld(spec, role)
        if sign > 0 and atom.kind in (AtomKind.NONCE, AtomKind.KEY)
    )


def _validate(spec: ProtocolSpec) -> None:
    for role in spec.roles:
        for sign, atom in _first_unheld(spec, role):
            if sign > 0 and atom.kind in (AtomKind.PARTICIPANT, AtomKind.USERDATA):
                raise Ungeneratable(
                    f"role {role.label} sends {atom.label} without holding "
                    f"it, and {atom.kind.value} atoms cannot be generated"
                )


def project(spec: ProtocolSpec) -> StrandSpace:
    """One knowledge strand per role with at least one event.

    Knowledge order: own name, other role names held (declaration order),
    held or fresh basic atoms (declaration order), compound entries last.
    """
    strands = []
    for role in spec.roles:
        events = role_events(spec, role)
        if not events:
            continue
        entries = spec.knowledge[role.label]
        fresh = fresh_atoms(spec, role)
        atoms_held = {e for e in entries if isinstance(e, Atom)} | fresh
        knowledge: list[Term] = [role]
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
        strands.append(
            KStrand(
                knowledge=tuple(knowledge),
                participant=role,
                seq=tuple(events),
                fresh=fresh,
            )
        )
    return StrandSpace(tuple(strands))


def _render_dsl_term(t: Term, top: bool = False) -> str:
    from .terms import _spine

    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Pair):
        inner = ", ".join(_render_dsl_term(p) for p in _spine(t))
        return inner if top else f"({inner})"
    if isinstance(t, Enc):
        inner = ", ".join(_render_dsl_term(p) for p in _spine(t.body))
        if t.func is FuncName.H:
            return f"h({inner})"
        return f"{{{inner}}}{t.func.value}({t.key.label})"
    raise TypeError(f"cannot render {t!r}")


def render_spec(spec: ProtocolSpec) -> str:
    """Pretty-print a protocol back to parseable source."""
    lines = [f"protocol {spec.name} {{"]
    lines.append("  roles " + ", ".join(r.label for r in spec.roles) + ";")
    for word, kind in (
        ("nonce", AtomKind.NONCE), ("key", AtomKind.KEY), ("data", AtomKind.USERDATA),
    ):
        labels = [lb for lb, k in spec.decls.items() if k is kind]
        if labels:
            lines.append(f"  {word} " + ", ".join(labels) + ";")
    for role in spec.roles:
        entries = spec.knowledge[role.label]
        if entries:
            rendered = ", ".join(_render_dsl_term(e) for e in entries)
            lines.append(f"  knows {role.label}: {rendered};")
    for msg in spec.messages:
        payload = _render_dsl_term(msg.payload, top=True)
        lines.append(f"  {msg.sender.label} -> {msg.recipient.label}: {payload};")
    lines.append("}")
    return "\n".join(lines) + "\n"
