"""Match-at-a-time reference tokenizer for the differential tests.

`naive_tokenize` is a copy of `spa.parser._tokenize` before it became one
`finditer` pass: it matches one token at the current offset, builds a token
for every match, and carries the line and column along every match,
whitespace and comments included.  It is kept only so that tests can require
the library's tokens to sit at the same lines and columns, and its errors to
read the same, and so that `naive_parse` lexes without the library.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from spa.errors import ParseError

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


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "ident", "arrow", "punct", "eof"
    text: str
    line: int
    column: int


def naive_tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        group = m.lastgroup
        raw = m.group()
        if group not in ("ws", "comment"):
            tokens.append(Token(group, raw, line, col))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            col = len(raw) - raw.rfind("\n")
        else:
            col += len(raw)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens
