"""Golden CLI snapshot: `spa` output on every bundled protocol, byte for byte.

`tests/golden_cli.json` holds, for each invocation listed by `invocations()`,
its exit code, stdout and stderr.  Any change to what the CLI prints on
`protocols/` fails here.  A change that alters output on purpose rewrites
the snapshot with

    PYTHONPATH=src python -m tests.test_golden --write

and the diff of `tests/golden_cli.json` then shows exactly what moved.
"""

from __future__ import annotations

import json
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from spa import parse

from .helpers import CORPUS, DEFAULT_CONFIG, ROOT, read, run_cli

GOLDEN = ROOT / "tests" / "golden_cli.json"


def _rel(path: str) -> str:
    return str(Path(path).relative_to(ROOT))


def invocations() -> list[list[str]]:
    """Every call the snapshot covers, with repo-relative paths."""
    files = [_rel(p) for p in CORPUS]
    config = _rel(DEFAULT_CONFIG)
    calls = []
    for f in files:
        roles = [r.label for r in parse(read(ROOT / f)).roles]
        calls.append(["check", f])
        for fmt in ("text", "json", "dot"):
            calls.append(["model", f, "--format", fmt])
            for role in roles:
                calls.append(["model", f, "--role", role, "--format", fmt])
        for role in roles:
            calls.append(["cost", f, "--role", role, "--raw"])
            calls.append(["cost", f, "--role", role, "--simplified"])
            calls.append(["eval", f, "--role", role, "--config", config])
    for a, b in product(files, repeat=2):
        calls.append(["compare", a, b])
        calls.append(["compare", a, b, "--trace"])
        calls.append(["compare", a, b, "--config", config])
        calls.append(["compare", a, b, "--trace", "--config", config])
    return calls


def _run(argv: list[str]) -> dict:
    absolute = [str(ROOT / a) if a.endswith((".spa", ".json")) else a for a in argv]
    code, out, err = run_cli(*absolute)
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


@cache
def _golden() -> dict:
    return {tuple(rec["argv"]): rec for rec in json.loads(read(GOLDEN))}


def test_snapshot_covers_every_invocation():
    assert set(_golden()) == {tuple(argv) for argv in invocations()}


@pytest.mark.parametrize("argv", invocations(), ids=" ".join)
def test_cli_output_matches_snapshot(argv):
    assert _run(argv) == _golden()[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    GOLDEN.write_text(
        json.dumps([_run(argv) for argv in invocations()], indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
