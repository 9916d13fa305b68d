"""Recursive-descent reference parser for the differential tests.

`naive_parse` is a copy of `spa.parser.parse` before it read tokens by
index: a cursor moves past every token read through `next`, `peek` or
`ident`, and `term`, `sequence` and `nest` call each other once per bracket.
It lexes with `naive_tokenize`, so it shares no lexing code with the
library, and it walks every payload with `atoms_of` to find the roles'
fresh atoms.  It is kept only so that tests can require the library's specs,
and its errors with their lines and columns, to be the same.
"""

from __future__ import annotations

from spa.errors import (
    DuplicateDeclaration,
    KindMismatch,
    ParseError,
    SelfMessage,
    UndeclaredIdentifier,
)
from spa.parser import (
    MAX_NESTING,
    RESERVED,
    Message,
    ProtocolSpec,
    _fresh_atoms,
)
from spa.terms import Atom, AtomKind, Empty, Enc, FuncName, Pair, Term, atoms_of

from .naive_tokenize import naive_tokenize


class NaiveParser:
    """Recursive descent over token strings ("" is the end of input).  The
    cursor `pos` moves past every token `next` returns, so an error about the
    token just read is located at `pos - 1`."""

    def __init__(self, text: str):
        self.lexed = naive_tokenize(text)
        self.tokens = [tok.text for tok in self.lexed]
        self.pos = 0
        self.atoms: dict[str, Atom] = {}

    # -- token plumbing -----------------------------------------------------

    def at(self, i: int) -> tuple[int, int]:
        """Line and column of token i."""
        return self.lexed[i].line, self.lexed[i].column

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
                shown = func or "end of input"
                raise ParseError(
                    f"expected sk, pk or pvk, found {shown!r}", *self.at(self.pos - 1)
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


def naive_parse(text: str) -> ProtocolSpec:
    """Parse protocol source into a validated spec."""
    return NaiveParser(text).protocol()
