"""Shared test plumbing: repo paths, in-process CLI invocation, the bundled
roles' costs, the whole-expression additivity rewrite the cost tests check
values against, and the atom walk the reference parser and projection use."""

from __future__ import annotations

import ast
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spa import cost_of_space, extract, parse, project
from spa.cli import main
from spa.costs import CostExpr, _expand, _simplified
from spa.errors import Ungeneratable, Unrecoverable
from spa.terms import Atom, Enc, Pair

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ROOT / "protocols"
CONFIGS = ROOT / "configs"

ANDREW = str(PROTOCOLS / "andrew_rpc.spa")
X509_ORIGINAL = str(PROTOCOLS / "x509_original.spa")
X509_MODIFIED = str(PROTOCOLS / "x509_modified.spa")
X509_FULL = str(PROTOCOLS / "x509_full.spa")
KEY_WRAP = str(PROTOCOLS / "key_wrap.spa")
DEFAULT_CONFIG = str(CONFIGS / "default.json")

CORPUS = (ANDREW, X509_ORIGINAL, X509_MODIFIED, X509_FULL, KEY_WRAP)


def read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr).

    argparse ends `--help` and usage errors with `SystemExit`; its code is
    returned like any other exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def source_names(path: Path) -> set:
    """Every name a module's code uses: names, attributes, and what it
    imports under whatever alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def stack_depth() -> int:
    """The number of frames on the stack, the caller's included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def role_costs() -> list:
    """Raw cost of every role of every bundled protocol that extracts."""
    out = []
    for path in CORPUS:
        for strand in project(parse(read(path))).strands:
            try:
                out.append(cost_of_space(extract(strand).space()))
            except (Ungeneratable, Unrecoverable):
                pass
    return out


def expand_additivity(e: CostExpr) -> CostExpr:
    """Rewrite every application over a sum into per-addend applications
    minus the per-term overhead, as `compare` does to both sides."""
    return CostExpr(tuple(_simplified(_expand(e.terms, [], "").items()).items()))


def atoms_of(t):
    """Yield every atom occurring in t, key positions included, left to right
    (a cipher's body before its key), recursively: the order in which the
    parser reads a term's atoms off its tokens."""
    if isinstance(t, Atom):
        yield t
    elif isinstance(t, Pair):
        yield from atoms_of(t.left)
        yield from atoms_of(t.right)
    elif isinstance(t, Enc):
        yield from atoms_of(t.body)
        yield from atoms_of(t.key)
