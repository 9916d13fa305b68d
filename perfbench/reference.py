"""References that do not come from the code under test.

Readers for what `spa` prints (cost lines, DOT graphs, README examples) and
an evaluator that prices a printed cost term straight from the JSON config.
Counting rules follow the README's tables: each operation strand maps to
one cost function, and every transmission an operation strand carries adds
one processing term, folded into L_P.
"""

from __future__ import annotations

import math
import re
import shlex
from collections import Counter

# outcome of one request: passed its check, failed (raised, refused or
# exited with an unexpected code), or printed a wrong answer
OK, FAILED, WRONG = "ok", "failed", "wrong"

# cost function (as printed after simplification) -> classifiers it counts
FUNC_OF_CLASSIFIER = {
    "C_E": "f_sk",
    "C_D": "f_sk",
    "C_PK": "f_pk",
    "C_PVK": "f_pk",
    "C_H": "f_h",
    "C_K": "f_kg",
    "C_N": "f_ng",
    "C_C": "L_C",
    "C_I": "f_s",
}

# transmissions (positive nodes) on one operation strand of each classifier
TRANSMISSIONS = {c: 1 for c in FUNC_OF_CLASSIFIER}
TRANSMISSIONS["C_I"] = 2


def expected_multiplicities(op_counts) -> Counter:
    """Total multiplicity per printed cost function for the given
    classifier counts (keys are classifier names such as "C_E")."""
    out: Counter = Counter()
    for classifier, count in op_counts.items():
        if count:
            out[FUNC_OF_CLASSIFIER[classifier]] += count
            out["L_P"] += TRANSMISSIONS[classifier] * count
    return out


def _split_top(text: str, seps: tuple[str, ...]) -> list[tuple[str, str]]:
    """Split at separators outside parentheses; yields (separator, part)."""
    parts = []
    depth = 0
    start = 0
    lead = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0:
            sep = next((s for s in seps if text.startswith(s, i)), None)
            if sep is not None:
                parts.append((lead, text[start:i]))
                lead = sep
                i += len(sep)
                start = i
                continue
        i += 1
    parts.append((lead, text[start:]))
    return parts


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(f_[a-z]+\((.*)\)|L_C|L_P|Ov_h)$")


def parse_cost(line: str) -> list[tuple[str, str, int]]:
    """(function, argument text, signed multiplicity) per printed term."""
    if line == "0":
        return []
    terms = []
    for sep, part in _split_top(line, (" + ", " - ")):
        if part.startswith("-"):
            sep, part = " - ", part[1:]
        m = _TERM_RE.match(part)
        if m is None:
            raise ValueError(f"unreadable cost term {part!r}")
        mult = int(m.group(1) or 1)
        body = m.group(2)
        func = body.split("(", 1)[0]
        terms.append((func, m.group(3) or "", -mult if sep == " - " else mult))
    return terms


def multiplicities(line: str) -> Counter:
    out: Counter = Counter()
    for func, _, mult in parse_cost(line):
        out[func] += mult
    return Counter({func: mult for func, mult in out.items() if mult})


class Pricer:
    """Prices printed cost terms with a config document read as plain JSON."""

    def __init__(self, config: dict):
        self.config = config

    def size(self, text: str) -> float:
        if text == "0":
            return 0.0
        total = 0.0
        for _, part in _split_top(text, (" + ",)):
            m = re.match(r"^(\d*)(\|[rnkm]\||S_hash|S_asym\((.*)\))$", part)
            if m is None:
                raise ValueError(f"unreadable size {part!r}")
            coeff = int(m.group(1) or 1)
            unit = m.group(2)
            if unit == "S_hash":
                value = self.config["s_hash"]
            elif unit.startswith("S_asym"):
                asym = self.config["s_asym"]
                inner = self.size(m.group(3))
                value = math.ceil((inner + asym["pad"]) / asym["blk_in"]) * asym["blk_out"]
            else:
                value = self.config["sizes"][unit[1]]
            total += coeff * value
        return total

    def term(self, func: str, arg: str) -> float:
        if func == "L_C":
            return self.config["lambda_c"]
        if func == "L_P":
            return self.config["lambda_p"]
        if func == "Ov_h":
            return self.config["ov_h"]
        coeffs = self.config["funcs"][func]
        return coeffs["alpha"] + coeffs["beta"] * self.size(arg)


# -- DOT output -------------------------------------------------------------

_CLUSTER_RE = re.compile(r"^  subgraph cluster_(\d+) \{$")
_LABEL_RE = re.compile(r'^    label="(.*)";$')
_NODE_RE = re.compile(r"^    (n\d+_\d+) \[label=")
_EDGE_RE = re.compile(r"^  (n\d+_\d+) -> (n\d+_\d+) \[style=(solid|dashed)\];$")


def parse_dot(text: str):
    """(cluster labels with node counts, solid edges, dashed edges)."""
    clusters: list[list] = []
    solid, dashed = set(), set()
    for line in text.splitlines():
        if _CLUSTER_RE.match(line):
            clusters.append([None, 0])
        elif (m := _LABEL_RE.match(line)) and clusters:
            clusters[-1][0] = m.group(1)
        elif _NODE_RE.match(line) and clusters:
            clusters[-1][1] += 1
        elif m := _EDGE_RE.match(line):
            (solid if m.group(3) == "solid" else dashed).add((m.group(1), m.group(2)))
    return [tuple(c) for c in clusters], solid, dashed


def knowledge_dot(roles: list[str], messages: list[tuple[str, str]]):
    """Expected parse_dot result for `spa model FILE --format dot` on a
    protocol whose roles all take part: one cluster per role, succession
    along each role's events, one dashed edge per message."""
    index = {r: i for i, r in enumerate(roles)}
    events = {r: 0 for r in roles}
    dashed = set()
    for sender, recipient in messages:
        events[sender] += 1
        events[recipient] += 1
        dashed.add(
            (
                f"n{index[sender]}_{events[sender]}",
                f"n{index[recipient]}_{events[recipient]}",
            )
        )
    solid = {
        (f"n{index[r]}_{j}", f"n{index[r]}_{j + 1}")
        for r in roles
        for j in range(1, events[r])
    }
    return [(r, events[r]) for r in roles], solid, dashed


# -- README and bundled protocol files -------------------------------------


def readme_examples(text: str) -> list[tuple[list[str], str]]:
    """(argv, expected stdout) for every `$ spa ...` example in a README
    code block; the output runs to the next blank line, prompt or fence."""
    examples = []
    in_block = False
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            in_block = not in_block
            i += 1
            continue
        if in_block and line.startswith("$ spa "):
            command = line[len("$ spa "):]
            while command.endswith("\\"):
                i += 1
                command = command[:-1].rstrip() + " " + lines[i].strip()
            out = []
            i += 1
            while (
                i < len(lines)
                and lines[i].strip()
                and not lines[i].startswith(("$ ", "```"))
            ):
                out.append(lines[i])
                i += 1
            examples.append((shlex.split(command), "\n".join(out) + "\n"))
            continue
        i += 1
    return examples


def scan_protocol(text: str):
    """(name, roles, [(sender, recipient)]) read from protocol source with
    regular expressions, independently of the package's parser."""
    body = re.sub(r"//[^\n]*", "", text)
    name = re.search(r"\bprotocol\s+(\w+)", body).group(1)
    roles = [r.strip() for r in re.search(r"\broles\s+([^;]+);", body).group(1).split(",")]
    messages = re.findall(r"(?m)^\s*(\w+)\s*->\s*(\w+)\s*:", body)
    return name, roles, messages
