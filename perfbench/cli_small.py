"""`cli_small`: in-process `spa.cli.main` calls on small protocols.

Each request is one `main(argv)` call with stdout and stderr captured, so
argument parsing, reading the protocol file and rendering are part of it.
Inputs are the five bundled protocols plus a seeded draw of small two-role
protocols whose compound knowledge forces splits and decryptions.  Their
files are rewritten before every pass with the atoms renamed, so no call
reads an input an earlier call has read; the bundled protocols stay as
they are.  Expected outputs come from this file's
own protocol model, the README's examples, the config read as plain JSON,
and `op_count_oracle` (the package's independent operation counter, fed
strands built here rather than by the parser).
"""

from __future__ import annotations

import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from spa.errors import SpaError
from spa.oracle import op_count_oracle
from spa.strands import KStrand
from spa.terms import Atom, AtomKind, Empty, Enc, FuncName, Pair, SignedTerm, pair_of

from reference import (
    FAILED,
    OK,
    WRONG,
    Pricer,
    expected_multiplicities,
    knowledge_dot,
    multiplicities,
    parse_cost,
    parse_dot,
    readme_examples,
    scan_protocol,
)

CONFIG = "configs/default.json"
# every (message count, atom count) stratum gets the same number of draws,
# so that the size mix, and with it the run's mean cost, varies little by seed
MESSAGES, ATOMS = range(1, 5), range(1, 7)
RANDOM_PROTOCOLS = 26 * len(MESSAGES) * len(ATOMS)
A = Atom(AtomKind.PARTICIPANT, "A")
B = Atom(AtomKind.PARTICIPANT, "B")
_KINDS = (AtomKind.NONCE, AtomKind.NONCE, AtomKind.KEY, AtomKind.USERDATA)
_DECL = {AtomKind.NONCE: "nonce", AtomKind.KEY: "key", AtomKind.USERDATA: "data"}
_ARITY = {"C_E": 2, "C_D": 2, "C_H": 2, "C_PK": 2, "C_PVK": 2, "C_K": 1, "C_N": 1, "C_C": 3, "C_I": 3}


# -- protocols --------------------------------------------------------------


def _atoms(t):
    if isinstance(t, Atom):
        yield t
    elif isinstance(t, Pair):
        yield from _atoms(t.left)
        yield from _atoms(t.right)
    elif isinstance(t, Enc):
        yield from _atoms(t.body)
        yield from _atoms(t.key)


def _spine(t) -> list:
    parts = []
    while isinstance(t, Pair):
        parts.append(t.right)
        t = t.left
    parts.append(t)
    return parts[::-1]


def _render(t, top: bool = False) -> str:
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Pair):
        inner = ", ".join(_render(p) for p in _spine(t))
        return inner if top else f"({inner})"
    inner = ", ".join(_render(p) for p in _spine(t.body))
    if t.func is FuncName.H:
        return f"h({inner})"
    return f"{{{inner}}}{t.func.value}({t.key.label})"


@dataclass
class Protocol:
    name: str
    atoms: list  # non-role atoms, declaration order
    knowledge: dict  # role label -> entries, `knows` order
    messages: list  # (sender, recipient, payload)
    oracle: dict = field(default_factory=dict)  # role label -> Counter or error class name

    def text(self) -> str:
        lines = [f"protocol {self.name} {{", "  roles A, B;"]
        for kind, word in _DECL.items():
            labels = [a.label for a in self.atoms if a.kind is kind]
            if labels:
                lines.append(f"  {word} " + ", ".join(labels) + ";")
        for role, entries in self.knowledge.items():
            if entries:
                lines.append(f"  knows {role}: " + ", ".join(_render(e) for e in entries) + ";")
        for sender, recipient, payload in self.messages:
            lines.append(f"  {sender.label} -> {recipient.label}: {_render(payload, top=True)};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def events(self, role: Atom) -> list[SignedTerm]:
        return [
            SignedTerm(1 if sender == role else -1, payload)
            for sender, recipient, payload in self.messages
            if role in (sender, recipient)
        ]

    def _walk(self, role: Atom):
        """(atom, first seen in a send) for each atom the role meets first
        in its events, as the language's freshness rule reads them."""
        known = {role}
        for entry in self.knowledge[role.label]:
            known.update(_atoms(entry))
        seen = set()
        for event in self.events(role):
            for atom in _atoms(event.payload):
                if atom not in known and atom not in seen:
                    seen.add(atom)
                    yield atom, event.sign > 0

    def valid(self) -> bool:
        """Roles and user data cannot be invented, so neither may be sent
        before the role holds or has received it."""
        return not any(
            sent and atom.kind in (AtomKind.PARTICIPANT, AtomKind.USERDATA)
            for role in (A, B)
            for atom, sent in self._walk(role)
        )

    def strand(self, role: Atom) -> KStrand:
        """Knowledge strand in the documented order: own name, other role
        names held, held or fresh basic atoms (declaration order), then
        compound entries."""
        entries = self.knowledge[role.label]
        fresh = frozenset(
            atom
            for atom, sent in self._walk(role)
            if sent and atom.kind in (AtomKind.NONCE, AtomKind.KEY)
        )
        held = {e for e in entries if isinstance(e, Atom)} | fresh
        order = [role] + [r for r in (A, B) if r != role and r in held]
        order += [a for a in self.atoms if a in held]
        order += [e for e in entries if not isinstance(e, Atom)]
        return KStrand(tuple(order), role, tuple(self.events(role)), fresh)


def _payload(rng: random.Random, leaves, keys, depth: int):
    if depth == 0 or rng.random() < 0.45:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.5:
        return Pair(_payload(rng, leaves, keys, depth - 1), _payload(rng, leaves, keys, depth - 1))
    if roll < 0.7 or not keys:
        return Enc(_payload(rng, leaves, keys, depth - 1), FuncName.H, Empty())
    func = rng.choice((FuncName.SK, FuncName.PK, FuncName.PVK))
    return Enc(_payload(rng, leaves, keys, depth - 1), func, rng.choice(keys))


def random_protocol(rng: random.Random, name: str, messages: int, atom_count: int) -> Protocol:
    """Two roles, the given numbers of messages and non-role atoms, payloads
    of depth at most three."""
    while True:
        atoms = [Atom(rng.choice(_KINDS), f"X{i}") for i in range(atom_count)]
        keys = [a for a in atoms if a.kind is AtomKind.KEY]
        leaves = [A, B] + atoms
        knowledge = {}
        for role, other in ((A, B), (B, A)):
            held = [a for a in atoms if rng.random() < 0.6]
            if rng.random() < 0.8:
                held.insert(0, other)
            compounds = []
            if keys and rng.random() < 0.5:
                # a sealed bundle; usually its key is held, so it opens
                lock = rng.choice(keys)
                bodies = [a for a in atoms if a != lock and rng.random() < 0.7]
                if bodies:
                    compounds.append(Enc(pair_of(bodies), FuncName.SK, lock))
                    held = [a for a in held if a not in bodies and a != lock]
                    if rng.random() < 0.8:
                        held.append(lock)
            for _ in range(rng.randint(0, 2)):
                entry = _payload(rng, leaves, keys, 2)
                if not isinstance(entry, Atom) and entry not in compounds:
                    compounds.append(entry)
            knowledge[role.label] = held + compounds
        sent = []
        for _ in range(messages):
            sender, recipient = (A, B) if rng.random() < 0.5 else (B, A)
            sent.append((sender, recipient, _payload(rng, leaves, keys, 3)))
        proto = Protocol(name, atoms, knowledge, sent)
        if proto.valid():
            for role in (A, B):
                try:
                    counts = op_count_oracle(proto.strand(role))
                except SpaError as exc:  # the oracle's refusal is the reference
                    proto.oracle[role.label] = type(exc).__name__
                else:
                    proto.oracle[role.label] = Counter({c.value: n for c, n in counts.items()})
            return proto


def extended(proto: Protocol) -> Protocol:
    """The same protocol plus a last message in which A sends a fresh nonce,
    so A's cost grows by exactly f_ng(|n|) + L_P."""
    fresh = Atom(AtomKind.NONCE, "NX")
    return Protocol(
        proto.name + "_plus",
        proto.atoms + [fresh],
        proto.knowledge,
        proto.messages + [(A, B, fresh)],
    )


# -- requests and their checks ---------------------------------------------


@dataclass(frozen=True)
class CliRequest:
    argv: tuple
    kind: str
    proto: Protocol | None = None
    expected: object = None  # stdout, or (roles, messages) for a DOT model
    extracts: tuple = ()  # roles the command extracts, in order


def call(main, req: CliRequest):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(req.argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refusal(proto: Protocol, roles) -> tuple[str, str] | None:
    """(role, error class) of the first listed role the oracle refuses."""
    for role in roles:
        result = proto.oracle[role]
        if isinstance(result, str):
            return role, result
    return None


def check(req: CliRequest, outcome, pricer: Pricer | None = None) -> tuple[str, str]:
    where = " ".join(req.argv)
    if isinstance(outcome, BaseException):
        return FAILED, f"{where}: raised {outcome!r}"
    code, out, err = outcome
    refusal = _refusal(req.proto, req.extracts) if req.extracts else None
    if refusal is not None:
        role, cls = refusal
        if code == 0:
            return WRONG, f"{where}: exit 0, the oracle refuses {role} with {cls}"
        if code != 3:
            return FAILED, f"{where}: exit {code}: {err.strip()}"
        if not err.startswith(f"{cls} ({role}):"):
            return WRONG, f"{where}: {err.strip()!r}, the oracle raises {cls}"
        return OK, ""
    if code != 0:
        return FAILED, f"{where}: exit {code}: {err.strip()}"
    try:
        problem = _CHECKS[req.kind](req, out, pricer)
    except (ValueError, LookupError, TypeError) as exc:
        problem = f"unreadable output {out!r}: {exc}"
    return (WRONG, f"{where}: {problem}") if problem else (OK, "")


def _fixed(req: CliRequest, out: str, pricer):
    if out != req.expected:
        return f"printed {out!r}, expected {req.expected!r}"


def _cost(req: CliRequest, out: str, pricer):
    return _terms_match(out.rstrip("\n"), req.proto.oracle[req.extracts[0]])


def _terms_match(line: str, ops: Counter):
    if multiplicities(line) != expected_multiplicities(ops):
        return f"cost {line!r} disagrees with oracle counts {dict(ops)}"


def _model_text(req: CliRequest, out: str, pricer):
    got = Counter()
    for line in out.splitlines():
        if line.startswith("⟨C_"):
            classifier, role = line[1:].split(", ", 2)[:2]
            got[role, classifier] += 1
    want = Counter()
    for role in ("A", "B"):
        want[role, "C_P"] += 1
        for classifier, n in req.proto.oracle[role].items():
            want[role, classifier] += n
    if got != want:
        return f"strands {dict(got)} != {dict(want)}"


def _model_json(req: CliRequest, out: str, pricer):
    doc = json.loads(out)
    proto = req.proto
    if doc["roles"] != ["A", "B"] or [s["role"] for s in doc["strands"]] != ["A", "B"]:
        return "roles differ from A, B"
    if doc["nodes"] != 2 * len(proto.messages):
        return f"nodes {doc['nodes']} != {2 * len(proto.messages)}"
    for strand in doc["strands"]:
        role = A if strand["role"] == "A" else B
        if len(strand["seq"]) != len(proto.events(role)) or strand["process"]["classifier"] != "C_P":
            return f"{role.label}: event sequence or process strand differs"
        ops = Counter(op["classifier"] for op in strand["ops"])
        if ops != proto.oracle[role.label]:
            return f"{role.label}: ops {dict(ops)} != {dict(proto.oracle[role.label])}"


def _model_dot(req: CliRequest, out: str, pricer):
    roles, messages = req.expected
    got = parse_dot(out)
    if got != knowledge_dot(roles, messages):
        return "clusters or edges differ from the message sequence"


def _model_role_dot(req: CliRequest, out: str, pricer):
    clusters, _, _ = parse_dot(out)
    ops = req.proto.oracle["A"]
    want = [("process", len(req.proto.events(A)))]
    got = Counter(clusters[1:])
    if clusters[:1] != want or got != Counter(
        {(c, _ARITY[c]): n for c, n in ops.items()}
    ):
        return f"clusters {clusters} disagree with oracle counts {dict(ops)}"


def _eval(req: CliRequest, out: str, pricer: Pricer):
    lines = out.splitlines()
    if not lines or not lines[0].startswith("value: "):
        return "no value line"
    value = float(lines[0][len("value: "):])
    terms, total = [], 0.0
    for line in lines[1:]:
        term, _, part = line.strip().rpartition(" = ")
        (func, arg, mult), = parse_cost(term)
        priced = mult * pricer.term(func, arg)
        if abs(float(part) - priced) > 1e-6 + 1e-9 * abs(priced):
            return f"{term} = {part}, priced {priced:.6f} from the config"
        terms.append(term)
        total += priced
    if abs(value - total) > 1e-6 * len(lines):
        return f"value {value} != sum of terms {total:.6f}"
    return _terms_match(" + ".join(terms) or "0", req.proto.oracle["A"])


def _compare(req: CliRequest, out: str, pricer: Pricer):
    lines = out.splitlines()
    if lines[:2] != ["verdict: Less", "residual: 0 < f_ng(|n|) + L_P"] or len(lines) != 3:
        return f"printed {out!r}"
    va, _, vb = lines[2][len("numeric: "):].partition(" vs ")
    gap = pricer.term("f_ng", "|n|") + pricer.term("L_P", "")
    if abs(float(vb) - float(va) - gap) > 1e-5 * max(1.0, abs(float(vb))):
        return f"numeric gap {float(vb) - float(va)} != {gap}"


_CHECKS = {
    "fixed": _fixed,
    "check": _fixed,
    "cost": _cost,
    "model_text": _model_text,
    "model_json": _model_json,
    "model_dot": _model_dot,
    "model_role_dot": _model_role_dot,
    "eval": _eval,
    "compare": _compare,
}


def preflight(root: Path) -> list[CliRequest]:
    """The README's `spa` examples and a DOT model of andrew_rpc, which every
    workload runs and checks before it starts measuring."""
    requests = [
        CliRequest(tuple(argv), "fixed", expected=out)
        for argv, out in readme_examples((root / "README.md").read_text(encoding="utf-8"))
    ]
    if not requests:
        raise ValueError("README.md shows no `$ spa` examples")
    path = "protocols/andrew_rpc.spa"
    _, roles, messages = scan_protocol((root / path).read_text(encoding="utf-8"))
    requests.append(CliRequest(("model", path, "--format", "dot"), "model_dot", expected=(roles, messages)))
    return requests


def tagged(text: str, tag: str) -> str:
    """The generator's protocol text with every non-role atom renamed; the
    tag goes after the shared prefix, so labels keep their order."""
    return re.sub(r"\b(N?X)(\d*)\b", lambda m: m.group(1) + tag + m.group(2), text)


class CliSmall:
    name = "cli_small"
    failures_expected = True  # AmbiguousMatch, ROADMAP item 3

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.pricer = Pricer(json.loads((root / CONFIG).read_text(encoding="utf-8")))
        pool = preflight(root)
        for path in sorted((root / "protocols").glob("*.spa")):
            rel = str(path.relative_to(root))
            name, roles, messages = scan_protocol(path.read_text(encoding="utf-8"))
            pool.append(CliRequest(
                ("check", rel), "check",
                expected=f"ok: {name} ({len(roles)} roles, {len(messages)} messages)\n",
            ))
            pool.append(CliRequest(("model", rel, "--format", "dot"), "model_dot", expected=(roles, messages)))
        self.rng = rng = random.Random(seed)
        self.files = []  # (path, text) of every generated protocol
        for i in range(RANDOM_PROTOCOLS):
            messages = MESSAGES[i % len(MESSAGES)]
            atoms = ATOMS[i // len(MESSAGES) % len(ATOMS)]
            proto = random_protocol(rng, f"gen_{i}", messages, atoms)
            path = workdir / f"{proto.name}.spa"
            plus = workdir / f"{proto.name}_plus.spa"
            self.files += [(path, proto.text()), (plus, extended(proto).text())]
            p = str(path)
            summary = f"ok: {proto.name} (2 roles, {len(proto.messages)} messages)\n"
            dot = (["A", "B"], [(s.label, r.label) for s, r, _ in proto.messages])
            both, a = ("A", "B"), ("A",)
            pool += [
                CliRequest(("check", p), "check", proto, summary),
                CliRequest(("cost", p, "--role", "A"), "cost", proto, extracts=a),
                CliRequest(("cost", p, "--role", "B"), "cost", proto, extracts=("B",)),
                CliRequest(("model", p), "model_text", proto, extracts=both),
                CliRequest(("model", p, "--format", "json"), "model_json", proto, extracts=both),
                CliRequest(("model", p, "--format", "dot"), "model_dot", proto, dot),
                CliRequest(
                    ("model", p, "--role", "A", "--format", "dot"), "model_role_dot", proto, extracts=a
                ),
                CliRequest(("eval", p, "--role", "A", "--config", CONFIG), "eval", proto, extracts=a),
                CliRequest(
                    ("compare", p, str(plus), "--config", CONFIG), "compare", proto, extracts=a
                ),
            ]
        self.pool = pool

    def requests(self, number: int) -> list[CliRequest]:
        """Pass `number`: the files rewritten with atoms tagged with it, and
        every request in a fresh order."""
        for path, text in self.files:
            path.write_text(tagged(text, f"p{number}x"), encoding="utf-8")
        pool = list(self.pool)
        self.rng.shuffle(pool)
        return pool

    @staticmethod
    def call(fns, req: CliRequest):
        return call(fns.main, req)

    def check(self, req: CliRequest, outcome) -> tuple[str, str]:
        return check(req, outcome, self.pricer)
