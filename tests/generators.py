"""Seeded random generators for property and acceptance tests.

Everything takes an explicit random.Random so runs are reproducible.  The
model samplers construct cost models that provably satisfy a given
assumption set over [1, max_bytes]: dominance levels are separated by a
multiplicative band wider than max_bytes, so the smallest value a
dominating function can take exceeds the largest value of anything it
must dominate.
"""

from __future__ import annotations

import itertools
import random

from spa import parse
from spa.costs import (
    EXPANDABLE,
    Affine,
    App,
    AssumptionSet,
    CostExpr,
    CostFunc,
    CostModel,
    LambdaC,
    LambdaP,
    Overhead,
    cost_expr,
)
from spa.parser import Message, ProtocolSpec
from spa.sizes import AsymSize, HashSize, SizeModel, Sum, TypeSize, ssum
from spa.strands import Classifier, KStrand, StrandSpace, TStrand
from spa.terms import (
    Atom,
    AtomKind,
    Basic,
    BasicTT,
    Empty,
    Enc,
    FuncName,
    Pair,
    SignedTerm,
    TEnc,
    TPair,
    _spine,
    pair_of,
)

BASICS = tuple(BasicTT)


# -- typed terms (size-algebra laws) ---------------------------------------


def random_tterm(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.4:
        return Basic(rng.choice(BASICS))
    if rng.random() < 0.55:
        return TPair(random_tterm(rng, depth - 1), random_tterm(rng, depth - 1))
    return TEnc(random_tterm(rng, depth - 1), rng.choice(tuple(FuncName)))


# -- protocol specs (extraction vs oracle) ---------------------------------

_KINDS = (AtomKind.NONCE, AtomKind.NONCE, AtomKind.KEY, AtomKind.USERDATA)


def _random_payload(rng: random.Random, leaves, keys, depth: int):
    if depth == 0 or rng.random() < 0.45:
        return rng.choice(leaves)
    roll = rng.random()
    if roll < 0.5:
        return Pair(
            _random_payload(rng, leaves, keys, depth - 1),
            _random_payload(rng, leaves, keys, depth - 1),
        )
    if roll < 0.7 or not keys:
        return Enc(_random_payload(rng, leaves, keys, depth - 1), FuncName.H, Empty())
    func = rng.choice((FuncName.SK, FuncName.PK, FuncName.PVK))
    return Enc(_random_payload(rng, leaves, keys, depth - 1), func, rng.choice(keys))


def random_spec(rng: random.Random, max_atoms: int = 4, depth: int = 3) -> ProtocolSpec:
    """A small validated protocol: 2 roles, <= max_atoms non-role atoms."""
    for _ in range(200):
        roles = (Atom(AtomKind.PARTICIPANT, "A"), Atom(AtomKind.PARTICIPANT, "B"))
        atoms = [
            Atom(rng.choice(_KINDS), f"X{i}")
            for i in range(rng.randint(1, max_atoms))
        ]
        keys = [a for a in atoms if a.kind is AtomKind.KEY]
        decls = {r.label: r.kind for r in roles}
        decls.update({a.label: a.kind for a in atoms})
        knowledge = {}
        for role, other in ((roles[0], roles[1]), (roles[1], roles[0])):
            held = [a for a in atoms if rng.random() < 0.6]
            if rng.random() < 0.8:
                held.insert(0, other)
            # compound entries force recovery (splits and decryptions)
            compounds = []
            if keys and rng.random() < 0.5:
                lock_key = rng.choice(keys)
                bodies = [a for a in atoms if a is not lock_key and rng.random() < 0.7]
                if bodies:
                    compounds.append(
                        Enc(pair_of(bodies), FuncName.SK, lock_key)
                    )
                    held = [a for a in held if a not in bodies]
                    if rng.random() < 0.8:
                        if lock_key not in held:
                            held.append(lock_key)
                    else:
                        held = [a for a in held if a is not lock_key]
            for _ in range(rng.randint(0, 2)):
                entry = _random_payload(rng, list(roles) + atoms, keys, 2)
                if not isinstance(entry, Atom) and entry not in compounds:
                    compounds.append(entry)
            knowledge[role.label] = tuple(held + compounds)
        leaves = list(roles) + atoms
        messages = []
        for _ in range(rng.randint(1, 4)):
            sender, recipient = roles if rng.random() < 0.5 else roles[::-1]
            payload = _random_payload(rng, leaves, keys, depth)
            messages.append(Message(sender, recipient, payload))
        # render_spec ignores `fresh`; parsing the rendering fills it in
        spec = ProtocolSpec("gen", roles, decls, knowledge, tuple(messages), {})
        try:
            return parse(render_spec(spec))
        except Exception:
            continue
    raise RuntimeError("could not generate a valid protocol")


def random_strand(rng: random.Random) -> KStrand:
    """One role's strand that leans on recovery: compound knowledge entries,
    often sealed under keys the role holds only once a reception delivers
    them, and sends drawn from the same atoms."""
    role = Atom(AtomKind.PARTICIPANT, "A")
    keys = [Atom(AtomKind.KEY, f"K{i}") for i in range(rng.randint(1, 3))]
    nonces = [Atom(AtomKind.NONCE, f"N{i}") for i in range(rng.randint(1, 4))]
    leaves = keys + nonces + [Atom(AtomKind.USERDATA, "D")]

    def draw(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice(leaves)
        roll = rng.random()
        if roll < 0.45:
            return Pair(draw(depth - 1), draw(depth - 1))
        if roll < 0.85:
            return Enc(draw(depth - 1), FuncName.SK, rng.choice(keys))
        if roll < 0.92:
            return Enc(draw(depth - 1), FuncName.H, Empty())
        return Enc(draw(depth - 1), FuncName.PK, rng.choice(keys))

    knowledge = [role]
    for _ in range(rng.randint(0, 4)):
        entry = draw(rng.randint(1, 4))
        if entry not in knowledge:
            knowledge.append(entry)
    seq = tuple(
        SignedTerm(rng.choice((1, -1, -1)), draw(rng.randint(0, 3)))
        for _ in range(rng.randint(1, 6))
    )
    return KStrand(tuple(knowledge), role, seq)


def chain_spec(n: int, w: int) -> ProtocolSpec:
    """n messages, alternately A -> B and B -> A, each carrying a block of w
    new nonces as `{block}sk(K0), h(prev, block), {block}pk(K1)`, where prev
    is the previous message's block (K0 for the first).  Both roles hold K0
    and K1, so each message after the first makes its sender recover the
    block it last received."""
    blocks = [", ".join(f"N{i}_{j}" for j in range(w)) for i in range(n)]
    lines = [
        f"protocol chain_{n}_{w} {{",
        "roles A, B;",
        "nonce " + ", ".join(blocks) + ";",
        "key K0, K1;",
        "knows A: B, K0, K1;",
        "knows B: A, K0, K1;",
    ]
    prev = "K0"
    for i, block in enumerate(blocks):
        route = "A -> B" if i % 2 == 0 else "B -> A"
        lines.append(f"{route}: {{{block}}}sk(K0), h({prev}, {block}), {{{block}}}pk(K1);")
        prev = block
    lines.append("}")
    return parse("\n".join(lines))


# -- cost expressions and models -------------------------------------------

def _units(rng: random.Random):
    from spa.sizes import AsymSize

    pool = [TypeSize(b) for b in BASICS] + [HashSize()]
    pool += [AsymSize(TypeSize(b)) for b in BASICS]
    return pool


def random_size_expr(rng: random.Random):
    pool = _units(rng)
    parts = []
    for _ in range(rng.randint(1, 4)):
        parts.extend([rng.choice(pool)] * rng.randint(1, 3))
    return ssum(parts)


def sum_items(e) -> tuple:
    """The (coefficient, unit) pairs of a size expression; a lone unit is
    one pair with coefficient 1, zero has none."""
    return e.items if isinstance(e, Sum) else ((1, e),)


def normal_items(items) -> bool:
    """Whether (coefficient, unit) pairs are in normal form, stated here
    apart from `Sum`'s own check: integer coefficients of at least 1 that
    never increase, distinct units that are not sums, and not one unit with
    coefficient 1."""
    coeffs = [coeff for coeff, _ in items]
    units = [unit for _, unit in items]
    return (
        all(type(c) is int and c >= 1 for c in coeffs)
        and all(a >= b for a, b in zip(coeffs, coeffs[1:]))
        and len(set(units)) == len(units)
        and not any(isinstance(u, Sum) for u in units)
        and coeffs != [1]
    )


def normal_form(items):
    """The normal size of (coefficient, unit) pairs with integer
    coefficients, a nested sum counting as its own units."""
    return ssum([unit for coeff, unit in items for _ in range(coeff)])


def refused(items) -> tuple:
    """items, once `Sum` has refused to build them."""
    try:
        Sum(items)
    except ValueError:
        return items
    raise AssertionError(f"Sum accepted the non-normal {items!r}")


def denormal_size(rng: random.Random, e) -> tuple:
    """(coefficient, unit) pairs equal to e in value but not in normal form,
    so `Sum` refuses them: units reordered and coefficients split into
    repeated units.  Pairs that are still normal after that (the empty sum
    among them) become a nested sum: one coefficient-1 unit, their sum."""
    parts = []
    for coeff, unit in sum_items(e):
        if coeff > 1 and rng.random() < 0.5:
            parts += [(coeff - 1, unit), (1, unit)]
        else:
            parts.append((coeff, unit))
    rng.shuffle(parts)
    if normal_items(parts):
        return ((1, Sum(tuple(parts))),)
    return tuple(parts)


def denormal_cost_expr(rng: random.Random, e: CostExpr) -> CostExpr:
    """e with about half its applications' arguments drawn by
    `denormal_size`: each draw is checked to be refused, and the
    application takes its normal form instead, which is what `compare` and
    `simplify` made of such an argument when `Sum` accepted it."""
    items = []
    for term, mult in e.terms:
        if isinstance(term, App) and rng.random() < 0.5:
            args = (normal_form(refused(denormal_size(rng, a))) for a in term.args)
            term = App(term.func, tuple(args))
        items.append((term, mult))
    return cost_expr(items)


def hashed_terms() -> list:
    """Cost terms over size expressions, the overhead term, a cost
    expression with a negative overhead, an assumption set, a knowledge
    strand, a typed strand and a strand space over them: hash-consed values
    built from other ones."""
    sr, sn, sk = (TypeSize(b) for b in (BasicTT.R, BasicTT.N, BasicTT.K))
    a = Atom(AtomKind.PARTICIPANT, "A")
    na = Atom(AtomKind.NONCE, "N_a")
    kstrand = KStrand((a,), a, (SignedTerm(1, na),), frozenset({na}))
    tstrand = TStrand(Classifier.C_N, a, (SignedTerm(1, Basic(BasicTT.N)),))
    return [
        App(CostFunc.F_H, (ssum([sn, sn, sr]),)),
        App(CostFunc.F_C, (sn, sr)),
        App(CostFunc.F_PK, (AsymSize(ssum([sn, sk])),)),
        Overhead(),
        cost_expr([App(CostFunc.F_NG, (sn,)), (Overhead(), -2)]),
        AssumptionSet(dominance=((CostFunc.F_PK, CostFunc.F_H),), max_bytes=512.0),
        kstrand,
        tstrand,
        StrandSpace((kstrand, tstrand), (((0, 1), (1, 1)),)),
    ]


def random_cost_expr(rng: random.Random) -> CostExpr:
    items = []
    for _ in range(rng.randint(1, 6)):
        roll, sign = rng.random(), 1
        if roll < 0.5:
            term = App(rng.choice(EXPANDABLE), (random_size_expr(rng),))
        elif roll < 0.6:
            term = App(CostFunc.F_C, (random_size_expr(rng), random_size_expr(rng)))
        elif roll < 0.7:
            term = App(CostFunc.F_P, (random_size_expr(rng),))
        elif roll < 0.8:
            term = LambdaC()
        elif roll < 0.9:
            term = LambdaP()
        else:
            term, sign = Overhead(), 1 if rng.random() < 0.5 else -1
        items.append((term, sign * rng.randint(1, 3)))
    return cost_expr(items)


def _random_size_model(rng: random.Random) -> SizeModel:
    return SizeModel(
        sizes={b: rng.uniform(1, 32) for b in BASICS},
        s_hash=rng.uniform(8, 64),
        blk_in=rng.uniform(50, 120),
        blk_out=rng.uniform(64, 256),
        pad=rng.uniform(1, 40),
    )


def random_eval_model(rng: random.Random) -> CostModel:
    """Affine model with the shared-overhead premise alpha_f = Ov_h."""
    ov = rng.uniform(0, 5)
    return CostModel(
        funcs={f: Affine(ov, rng.uniform(0, 3)) for f in EXPANDABLE},
        lambda_c=rng.uniform(0, 5),
        lambda_p=rng.uniform(0, 5),
        ov_h=ov,
        size_model=_random_size_model(rng),
    )


# the five assumption sets of acceptance criterion 8
ASSUMPTION_SETS = (
    AssumptionSet(),
    AssumptionSet(ignore_overhead=False),
    AssumptionSet(
        dominance=(
            (CostFunc.F_PK, CostFunc.F_H),
            (CostFunc.F_H, CostFunc.F_SK),
            (CostFunc.F_SK, CostFunc.F_NG),
        ),
        max_bytes=1024.0,
    ),
    AssumptionSet(
        ignore_overhead=False,
        dominance=((CostFunc.F_C, CostFunc.F_P), (CostFunc.F_PK, CostFunc.F_C)),
    ),
    AssumptionSet(dominance=()),
)


def _dominance_levels(assume: AssumptionSet) -> dict:
    closure = assume.closure()

    def level(f) -> int:
        below = [l for g, l in closure if g is f]
        if not below:
            return 0
        return 1 + max(level(l) for l in below)

    return {f: level(f) for f in CostFunc}


def sound_model(rng: random.Random, assume: AssumptionSet) -> CostModel:
    """A model numerically satisfying `assume` over [1, max_bytes]."""
    span = assume.max_bytes
    band = 2 * span + 16
    levels = _dominance_levels(assume)
    constrained = {f for pair in assume.closure() for f in pair}
    ov = 0.0 if assume.ignore_overhead else rng.uniform(0.1, 1.0)
    funcs = {
        f: Affine(ov, rng.uniform(1, 2) * band ** levels[f]) for f in EXPANDABLE
    }

    def constant(func: CostFunc) -> float:
        if func in constrained:
            return rng.uniform(1, 2) * band ** levels[func]
        return rng.uniform(0.5, 5)

    return CostModel(
        funcs=funcs,
        lambda_c=constant(CostFunc.F_C),
        lambda_p=constant(CostFunc.F_P),
        ov_h=ov,
        size_model=_random_size_model(rng),
    )


def bounded_size_expr(rng: random.Random, cap: float = 4096.0):
    """Size expression whose value stays within [1, cap] for the size
    ranges _random_size_model draws from."""
    weighted = (
        [(TypeSize(b), 32.0) for b in BASICS]
        + [(HashSize(), 64.0)]
        + [(AsymSize(TypeSize(b)), 512.0) for b in BASICS]
    )
    parts = []
    budget = cap
    for _ in range(rng.randint(1, 5)):
        unit, worst = rng.choice(weighted)
        coeff = rng.randint(1, 3)
        if coeff * worst <= budget:
            parts.extend([unit] * coeff)
            budget -= coeff * worst
    if not parts:
        parts = [TypeSize(BasicTT.N)]
    return ssum(parts)


def _extra_term(rng: random.Random, func: CostFunc, assume: AssumptionSet,
                narrow: bool = False):
    if func is CostFunc.F_C:
        return LambdaC()
    if func is CostFunc.F_P:
        return LambdaP()
    if assume.ignore_overhead and not narrow:
        arg = bounded_size_expr(rng, cap=assume.max_bytes)
    else:
        arg = ssum([rng.choice(_units(rng))])  # single unit: expansion-free
    return App(func, (arg,))


def decisive_pair(rng: random.Random, assume: AssumptionSet):
    """(a, b, expected-side) where compare should not be Indeterminate.

    expected-side is "equal", or "less" meaning a < b.
    """
    base = []
    for _ in range(rng.randint(0, 4)):
        func = rng.choice(EXPANDABLE + (CostFunc.F_C, CostFunc.F_P))
        base.append((_extra_term(rng, func, assume), rng.randint(1, 3)))
    kind = rng.choice(("equal", "subset", "dominated", "wider"))
    left = list(base)
    right = list(base)
    if kind == "equal":
        rng.shuffle(right)
        return cost_expr(left), cost_expr(right), "equal"
    if kind == "subset" or (kind == "dominated" and not assume.dominance):
        for _ in range(rng.randint(1, 3)):
            func = rng.choice(EXPANDABLE + (CostFunc.F_C, CostFunc.F_P))
            right.append((_extra_term(rng, func, assume), rng.randint(1, 2)))
        return cost_expr(left), cost_expr(right), "less"
    if kind == "dominated":
        # single-unit extras: expansion must not skew the instance counts,
        # since n dominated terms are only below n dominating ones
        # sorted: a frozenset of enum members iterates in identity-hash
        # order, which differs from process to process
        pairs = sorted(assume.closure(), key=lambda pair: [f.value for f in pair])
        greater, lesser = rng.choice(pairs)
        count = rng.randint(1, 2)
        for _ in range(count):
            left.append((_extra_term(rng, lesser, assume, narrow=True), 1))
            right.append((_extra_term(rng, greater, assume, narrow=True), 1))
        return cost_expr(left), cost_expr(right), "less"
    # wider: same function over a strictly wider sum; decisive only when
    # overhead is ignored, so fall back to subset otherwise
    if not assume.ignore_overhead:
        right.append((_extra_term(rng, rng.choice(EXPANDABLE), assume), 1))
        return cost_expr(left), cost_expr(right), "less"
    func = rng.choice(EXPANDABLE)
    narrow = bounded_size_expr(rng, cap=assume.max_bytes / 2)
    extra = ssum([rng.choice(_units(rng))])
    wide = ssum([narrow, extra])
    left.append((App(func, (narrow,)), 1))
    right.append((App(func, (wide,)), 1))
    return cost_expr(left), cost_expr(right), "less"


# -- protocol source -------------------------------------------------------


def _render_dsl_term(t, top: bool = False) -> str:
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Pair):
        inner = ", ".join(_render_dsl_term(p) for p in _spine(t))
        return inner if top else f"({inner})"
    if isinstance(t, Enc):
        inner = ", ".join(_render_dsl_term(p) for p in _spine(t.body))
        if t.func is FuncName.H:
            return f"h({inner})"
        return f"{{{inner}}}{t.func.value}({t.key.label})"
    raise TypeError(f"cannot render {t!r}")


_DECL_WORDS = {AtomKind.NONCE: "nonce", AtomKind.KEY: "key", AtomKind.USERDATA: "data"}


def render_spec(spec: ProtocolSpec) -> str:
    """Pretty-print a protocol back to parseable source."""
    lines = [f"protocol {spec.name} {{"]
    lines.append("  roles " + ", ".join(r.label for r in spec.roles) + ";")
    # declarations in declaration order, one line per run of one kind
    atoms = [(lb, k) for lb, k in spec.decls.items() if k is not AtomKind.PARTICIPANT]
    for kind, run in itertools.groupby(atoms, key=lambda decl: decl[1]):
        lines.append(f"  {_DECL_WORDS[kind]} " + ", ".join(lb for lb, _ in run) + ";")
    for role in spec.roles:
        entries = spec.knowledge[role.label]
        if entries:
            rendered = ", ".join(_render_dsl_term(e) for e in entries)
            lines.append(f"  knows {role.label}: {rendered};")
    for msg in spec.messages:
        payload = _render_dsl_term(msg.payload, top=True)
        lines.append(f"  {msg.sender.label} -> {msg.recipient.label}: {payload};")
    lines.append("}")
    return "\n".join(lines) + "\n"
