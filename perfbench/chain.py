"""`chain`: the scaling family for extraction.

Roles A and B both hold K0 and K1.  Message i carries a block of w fresh
nonces as `{block}sk(K0), h(prev, block), {block}pk(K1)`, where prev is the
previous message's block (K0 for the first message), and the sender
alternates starting with A.  Extraction's recovery scans grow about as
n^1.9 here, and faster with w.

A pass is stratified so that every seed measures the same size mix: each
n in 4..24 with w = 4, and n = 4, 8, .., 20 with w = 8 (five in 26).
Latency grows steadily with n at w = 4, so no gap in the mix lies near
its percentiles.  The seed sets the order of each pass.  Every pass names its nonces afresh, so no request
repeats an earlier input.  One request analyses every role of one protocol.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from reference import FAILED, OK, WRONG, expected_multiplicities, multiplicities

SIZES = range(4, 25)
WIDE_SIZES = range(4, 21, 4)  # also sent with w = 8


@dataclass(frozen=True)
class ChainRequest:
    n: int
    w: int
    text: str


def chain_text(n: int, w: int, tag: str = "") -> str:
    blocks = [", ".join(f"N{tag}{i}_{j}" for j in range(w)) for i in range(n)]
    lines = [
        f"protocol chain{tag}_{n}_{w} {{",
        "  roles A, B;",
        "  nonce " + ", ".join(blocks) + ";",
        "  key K0, K1;",
        "  knows A: B, K0, K1;",
        "  knows B: A, K0, K1;",
    ]
    prev = "K0"
    for i, block in enumerate(blocks):
        sender, recipient = ("A", "B") if i % 2 == 0 else ("B", "A")
        lines.append(
            f"  {sender} -> {recipient}: {{{block}}}sk(K0), h({prev}, {block}), "
            f"{{{block}}}pk(K1);"
        )
        prev = block
    lines.append("}")
    return "\n".join(lines) + "\n"


def expected_counts(n: int, w: int) -> dict[str, Counter]:
    """Operation counts per role, from the closed form.

    Sending a message costs w nonce generations, 2w+1 concatenations (w-1
    for the block, w for the hash input, 2 for the payload) and one each of
    symmetric encryption, hashing and public-key encryption.  A message that
    follows one the role received also recovers the previous block: two
    splits down to `{prev}sk(K0)` and one decryption.
    """
    counts = {"A": Counter(), "B": Counter()}
    for i in range(n):
        sender = counts["A" if i % 2 == 0 else "B"]
        sender.update({"C_N": w, "C_C": 2 * w + 1, "C_E": 1, "C_H": 1, "C_PK": 1})
        if i > 0:
            sender.update({"C_D": 1, "C_I": 2})
    return counts


class Chain:
    name = "chain"
    failures_expected = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def requests(self, number: int) -> list[ChainRequest]:
        """Pass `number`: every (n, w) of the mix, nonces tagged with it."""
        tag = f"p{number}x"
        sizes = [(n, 4) for n in SIZES] + [(n, 8) for n in WIDE_SIZES]
        self.rng.shuffle(sizes)
        return [ChainRequest(n, w, chain_text(n, w, tag)) for n, w in sizes]

    @staticmethod
    def call(fns, req: ChainRequest):
        spec = fns.parse(req.text)
        out = []
        for strand in fns.project(spec).strands:
            ext = fns.extract(strand)
            cost = fns.simplify(fns.cost_of_space(ext.space()))
            out.append((strand.participant.label, ext.ops, fns.render_cost(cost)))
        return out

    @staticmethod
    def check(req: ChainRequest, outcome) -> tuple[str, str]:
        if isinstance(outcome, BaseException):
            return FAILED, f"raised {outcome!r}"
        expected = expected_counts(req.n, req.w)
        if [role for role, _, _ in outcome] != ["A", "B"]:
            return WRONG, "roles differ from A, B"
        for role, ops, rendered in outcome:
            got = Counter(op.classifier.value for op in ops)
            if got != expected[role]:
                return WRONG, f"{role}: ops {dict(got)} != {dict(expected[role])}"
            if multiplicities(rendered) != expected_multiplicities(expected[role]):
                return WRONG, f"{role}: cost {rendered!r} disagrees with the op counts"
        return OK, ""
