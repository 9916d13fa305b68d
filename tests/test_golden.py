"""Golden CLI snapshot: `spa` output on every bundled protocol, byte for byte.

`tests/golden_cli.json` holds, for each invocation listed by `invocations()`,
its exit code, stdout and stderr.  Any change to what the CLI prints on
`protocols/`, in `--help` or for a usage error fails here.  Help text is
wrapped to the terminal width, so every call runs with COLUMNS=80.  The
`--help` and usage-error records hold argparse's wording, the same under
Python 3.10 to 3.13.0; later releases may word some of them differently.
A change that alters output on purpose rewrites the snapshot with

    PYTHONPATH=src python -m tests.test_golden --write

and the diff of `tests/golden_cli.json` then shows exactly what moved.
"""

from __future__ import annotations

import json
import os
import sys
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from spa import cli, parse

from .helpers import (
    ANDREW,
    CORPUS,
    DEFAULT_CONFIG,
    ROOT,
    X509_MODIFIED,
    X509_ORIGINAL,
    read,
    run_cli,
)

GOLDEN = ROOT / "tests" / "golden_cli.json"
COLUMNS = "80"
COMMANDS = ("check", "model", "cost", "compare", "eval")


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
    calls.append(["--help"])
    calls.extend([cmd, "--help"] for cmd in COMMANDS)
    andrew = _rel(ANDREW)
    calls.extend([
        [],  # no subcommand
        ["frobnicate"],
        ["cost", andrew],  # no --role
        ["cost", andrew, "--role", "A", "--raw", "--simplified"],
        ["model", andrew, "--format", "svg"],
    ])
    return calls


def _run(argv: list[str]) -> dict:
    absolute = [str(ROOT / a) if a.endswith((".spa", ".json")) else a for a in argv]
    code, out, err = run_cli(*absolute)
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


@cache
def _golden() -> dict:
    return {tuple(rec["argv"]): rec for rec in json.loads(read(GOLDEN))}


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)


def test_snapshot_covers_every_invocation():
    assert set(_golden()) == {tuple(argv) for argv in invocations()}


@pytest.mark.parametrize("argv", invocations(), ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_output_matches_snapshot(argv):
    assert _run(argv) == _golden()[tuple(argv)]


def test_calls_in_one_process_share_no_state():
    """One parser, built once, serves every call below, in this order; each
    prints what its golden record holds.  A plain `cost` prints the `--simplified`
    record: a leftover `--raw` would show there."""
    andrew, a, b = _rel(ANDREW), _rel(X509_ORIGINAL), _rel(X509_MODIFIED)
    cost = ["cost", andrew, "--role", "A"]
    calls = [
        (cost + ["--raw", "--simplified"],) * 2,
        (cost + ["--raw"],) * 2,
        (cost, cost + ["--simplified"]),
        (["--help"],) * 2,
        (["compare", a, b, "--trace"],) * 2,
        (["compare", a, b],) * 2,
    ]
    cli._parser.cache_clear()
    for argv, recorded in calls:
        assert _run(argv) == dict(_golden()[tuple(recorded)], argv=argv)
    assert cli._parser.cache_info().misses == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden --write")
    os.environ["COLUMNS"] = COLUMNS
    GOLDEN.write_text(
        json.dumps([_run(argv) for argv in invocations()], indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
