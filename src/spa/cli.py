"""Command-line front end.

Subcommands: `check` validates a protocol file, `model` renders strand
models (text, DOT, or JSON), `cost` prints a role's symbolic cost,
`compare` orders two protocols' costs under assumptions, and `eval`
evaluates a cost numerically under a configured model.

Exit codes: 0 success (verdicts included), 1 I/O, 2 validation,
3 extraction, 4 configuration; each error class in `errors` fixes its
own, and `main` reports every one as a single stderr line.

The argument parser is built on the first `main` call and reused by every
later call in the process; importing this module does not build it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

from .config import load_config
from .costs import (
    DEFAULT_ASSUMPTIONS,
    CostExpr,
    _eval_terms,
    compare,
    cost_of_space,
    eval_cost,
    render_cost,
    render_cost_term,
    simplify,
)
from .errors import ConfigError, ParseError, SpaError, UnknownRole
from .extraction import extract
from .parser import ProtocolSpec, _role_strands, parse, project
from .strands import (
    Classifier,
    KStrand,
    StrandSpace,
    TStrand,
    edges,
    render_kstrand,
    render_tstrand,
)
from .terms import render_signed, render_term


def _load_spec(path: str) -> ProtocolSpec:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read().removeprefix("\ufeff")  # a byte-order mark
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse(text)


def _evaluate(cost: CostExpr, model, path: str) -> float:
    """`eval_cost` under a loaded model; a value too large for a float
    (inf, or nan where a zero slope meets an infinite size) is a
    configuration error."""
    value = eval_cost(cost, model)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: cost does not evaluate to a finite number")
    return value


def _strand_for(spec: ProtocolSpec, label: str) -> KStrand | None:
    role = spec.role(label)
    if role is None:
        raise UnknownRole(f"{label!r} is not a role of {spec.name}")
    return next(_role_strands(spec, (role,)))  # None for a declared role with no events


def _role_cost(spec: ProtocolSpec, label: str) -> CostExpr:
    strand = _strand_for(spec, label)
    if strand is None:
        return CostExpr(())
    return cost_of_space(extract(strand).space())


# -- subcommands ------------------------------------------------------------


def cmd_check(args) -> int:
    spec = _load_spec(args.file)
    print(f"ok: {spec.name} ({len(spec.roles)} roles, {len(spec.messages)} messages)")
    return 0


def cmd_model(args) -> int:
    spec = _load_spec(args.file)
    if args.role is not None:
        strand = _strand_for(spec, args.role)
        space = StrandSpace((strand,) if strand is not None else ())
    else:
        space = project(spec)
    strands = space.strands
    if args.format == "text":
        blocks = []
        for strand in strands:
            ext = extract(strand)
            lines = [render_kstrand(strand), render_tstrand(ext.process)]
            lines.extend(render_tstrand(op) for op in ext.ops)
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
    elif args.format == "json":
        print(_model_json(spec, strands))
    else:
        if args.role is not None and strands:
            ext = extract(strands[0])
            space = StrandSpace(ext.space().strands, ext.comm())
        title = spec.name if args.role is None else f"{spec.name}:{args.role}"
        print(_dot(space, title), end="")
    return 0


def _model_json(spec: ProtocolSpec, strands) -> str:
    def tstrand_doc(t: TStrand) -> dict:
        return {
            "classifier": t.classifier.value,
            "seq": [render_signed(e) for e in t.seq],
        }

    docs = []
    for strand in strands:
        ext = extract(strand)
        docs.append(
            {
                "role": strand.participant.label,
                "knowledge": [render_term(t) for t in strand.knowledge],
                "fresh": sorted(a.label for a in strand.fresh),
                "seq": [render_signed(e) for e in strand.seq],
                "process": tstrand_doc(ext.process),
                "ops": [tstrand_doc(op) for op in ext.ops],
            }
        )
    doc = {
        "protocol": spec.name,
        "roles": [r.label for r in spec.roles],
        "strands": docs,
        "nodes": sum(len(s.seq) for s in strands),
    }
    return json.dumps(doc, indent=2, ensure_ascii=False)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot(space: StrandSpace, title: str) -> str:
    lines = [
        f'digraph "{_dot_escape(title)}" {{',
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, strand in enumerate(space.strands):
        if isinstance(strand, TStrand):
            label = (
                "process"
                if strand.classifier is Classifier.C_P
                else strand.classifier.value
            )
        else:
            label = strand.participant.label
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="{_dot_escape(label)}";')
        for j, event in enumerate(strand.seq, start=1):
            lines.append(
                f'    n{i}_{j} [label="{_dot_escape(render_signed(event))}"];'
            )
        lines.append("  }")
    succ, comm = edges(space)
    for style, pairs in (("solid", succ), ("dashed", comm)):
        for (i, j), (k, m) in pairs:
            lines.append(f"  n{i}_{j} -> n{k}_{m} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_cost(args) -> int:
    spec = _load_spec(args.file)
    cost = _role_cost(spec, args.role)
    print(render_cost(cost if args.raw else simplify(cost)))
    return 0


def cmd_compare(args) -> int:
    spec_a = _load_spec(args.file_a)
    spec_b = _load_spec(args.file_b)
    model, assume = None, DEFAULT_ASSUMPTIONS
    if args.config is not None:
        model, assume = load_config(args.config)
    label = args.role if args.role is not None else spec_a.roles[0].label
    cost_a = simplify(_role_cost(spec_a, label))
    cost_b = simplify(_role_cost(spec_b, label))
    result = compare(cost_a, cost_b, assume)
    if model is not None:
        va, vb = (_evaluate(cost, model, args.config) for cost in (cost_a, cost_b))
    print(f"verdict: {result.verdict.value}")
    print(f"residual: {result.residual_line()}")
    if model is not None:
        print(f"numeric: {va:g} vs {vb:g}")
    if args.trace:
        print("trace:")
        for step in result.trace:
            print(f"  {step}")
    return 0


def cmd_eval(args) -> int:
    spec = _load_spec(args.file)
    model, _ = load_config(args.config)
    cost = simplify(_role_cost(spec, args.role))
    value = _evaluate(cost, model, args.config)
    print(f"value: {value:.6f}")
    # `_evaluate` found the sum finite, so every term's value is finite too
    for term, mult in cost.terms:
        print(f"  {render_cost_term(term, mult)} = {_eval_terms(((term, mult),), model):.6f}")
    return 0


# -- argument plumbing ------------------------------------------------------


@cache
def _parser() -> argparse.ArgumentParser:
    # Building costs more than most calls' analysis; parsing arguments
    # leaves the parser unchanged, and help is wrapped when it is printed.
    parser = argparse.ArgumentParser(
        prog="spa",
        description="Protocol strand models and symbolic operation costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a protocol file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("model", help="render strand models")
    p.add_argument("file")
    p.add_argument("--role", help="single role (default: all roles)")
    p.add_argument("--format", choices=("text", "dot", "json"), default="text")
    p.set_defaults(handler=cmd_model)

    p = sub.add_parser("cost", help="print a role's symbolic cost")
    p.add_argument("file")
    p.add_argument("--role", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--raw", action="store_true", help="pre-simplification form")
    group.add_argument("--simplified", action="store_true", help="canonical form (default)")
    p.set_defaults(handler=cmd_cost)

    p = sub.add_parser("compare", help="order two protocols' costs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--role", help="role to compare (default: first role of the first file)")
    p.add_argument("--config", help="JSON cost-model/assumptions file")
    p.add_argument("--trace", action="store_true", help="show every rewrite step")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("eval", help="evaluate a role's cost numerically")
    p.add_argument("file")
    p.add_argument("--role", required=True)
    p.add_argument("--config", required=True, help="JSON cost-model file")
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpaError as exc:
        role = "" if exc.role is None else f" ({exc.role})"
        print(f"{type(exc).__name__}{role}: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 1
    except UnicodeEncodeError:
        print(f"IOError: the output cannot be encoded as {sys.stdout.encoding}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
