"""Shared test plumbing: repo paths, in-process CLI invocation, and the
whole-expression additivity rewrite the cost tests check values against."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spa.cli import main
from spa.costs import CostExpr, _canonical, _expand

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


def expand_additivity(e: CostExpr) -> CostExpr:
    """Rewrite every application over a sum into per-addend applications
    minus the per-term overhead, as `compare` does to both sides."""
    return _canonical(_expand(e.terms, [], "").items())
