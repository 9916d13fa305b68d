"""CLI fuzz: mutated protocol files never crash `main`.

Each example takes a bundled protocol, applies a few byte-level mutations
(deleting a span, inserting a DSL token, duplicating a line, inserting an
invalid UTF-8 sequence) and runs one subcommand on the result.  Whatever
the input, `main` must return normally with a documented exit code other
than 1 (every file exists), and stderr must be empty or one line.
"""

from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from .helpers import CORPUS, DEFAULT_CONFIG, X509_ORIGINAL, run_cli

TEXTS = tuple(Path(path).read_bytes() for path in CORPUS)

TOKENS = (
    "{", "}", "(", ")", ",", ";", ":", "->", "//", "protocol", "roles", "nonce",
    "key", "data", "knows", "sk", "pk", "pvk", "h", "A", "B", "C", "N_a", "K",
    "K_AB", "{N_a}sk(K)", "h(A, B)", "(A, B)", "A -> B:", "knows A:", "\n",
)

# a stray byte, a lone continuation byte, truncated sequences, an encoded
# surrogate and an overlong five-byte form
BAD_UTF8 = (b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80")

# a command's input file goes right after its name
COMMANDS = (
    ("check",),
    ("model",),
    ("model", "--format", "json"),
    ("model", "--format", "dot"),
    ("model", "--role", "A"),
    ("model", "--role", "A", "--format", "json"),
    ("model", "--role", "A", "--format", "dot"),
    ("cost", "--role", "A", "--raw"),
    ("eval", "--role", "A", "--config", DEFAULT_CONFIG),
    ("compare", X509_ORIGINAL, "--trace", "--config", DEFAULT_CONFIG),
)


@st.composite
def mutants(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(TEXTS)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("delete", "token", "line", "bad")))
        at = draw(st.integers(0, len(data)))
        if kind == "delete":
            del data[at:at + draw(st.integers(1, 40))]
        elif kind == "token":
            data[at:at] = f" {draw(st.sampled_from(TOKENS))} ".encode()
        elif kind == "line":
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at)
            line = data[start:] if end < 0 else data[start:end + 1]
            data[start:start] = line
        else:
            data[at:at] = draw(st.sampled_from(BAD_UTF8))
    return bytes(data)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.spa"


@seed(20090501)
@settings(max_examples=600, database=None, deadline=None)
@given(text=mutants(), command=st.sampled_from(COMMANDS))
def test_mutated_corpus_exits_cleanly(mutant_path, text, command):
    mutant_path.write_bytes(text)
    code, _, err = run_cli(command[0], str(mutant_path), *command[1:])
    assert code in (0, 2, 3, 4), err
    assert err == "" or (err.endswith("\n") and err.count("\n") == 1), err
