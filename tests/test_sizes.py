"""Size algebra: symbolic sizes, normal form, numeric evaluation."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spa.sizes import (
    AsymSize,
    HashSize,
    SizeModel,
    Sum,
    TypeSize,
    contains_hash,
    delta,
    eval_size,
    render_size,
    ssum,
)
from spa.terms import _TABLES, Atom, AtomKind, Basic, BasicTT, FuncName, TEnc, TPair

from .generators import (
    denormal_size,
    normal_form,
    normal_items,
    random_size_expr,
    random_tterm,
    sum_items,
)

R, N, K, M = (Basic(tt) for tt in BasicTT)
SR, SN = TypeSize(BasicTT.R), TypeSize(BasicTT.N)
SH = HashSize()

_MODEL_FIELDS = {
    "sizes": {BasicTT.R: 8, BasicTT.N: 16, BasicTT.K: 16, BasicTT.M: 100},
    "s_hash": 20,
    "blk_in": 117,
    "blk_out": 128,
    "pad": 11,
}
MODEL = SizeModel(**_MODEL_FIELDS)


def test_delta_basics():
    assert delta(N) == TypeSize(BasicTT.N)
    assert delta(TPair(R, N)) == ssum([SR, SN])


def test_delta_ciphertexts():
    for body, size in ((N, SN), (TPair(N, R), ssum([SN, SR]))):
        assert delta(TEnc(body, FuncName.SK)) == size  # transparent
        assert delta(TEnc(body, FuncName.H)) == HashSize()
        assert delta(TEnc(body, FuncName.PK)) == AsymSize(size)
        assert delta(TEnc(body, FuncName.PVK)) == AsymSize(size)


def test_ssum_merges_and_orders():
    # descending coefficient, first occurrence breaking ties
    e = ssum([SN, SR, SN])
    assert e == Sum(((2, SN), (1, SR)))
    assert render_size(e) == "2|n| + |r|"
    e = ssum([SR, SN, SN])
    assert render_size(e) == "2|n| + |r|"
    e = ssum([SR, HashSize(), SN])
    assert render_size(e) == "|r| + S_hash + |n|"


def test_ssum_collapses_singleton():
    assert ssum([SN]) == SN
    assert ssum([]) is Sum(())
    assert ssum([SN, SN]) == Sum(((2, SN),))


def test_nested_sums_flatten():
    inner = ssum([SN, SR])
    assert ssum([inner, SN]) == Sum(((2, SN), (1, SR)))


def test_normal_sums_are_accepted():
    for items in ((), ((1, SN), (1, SR)), ((2, SN),), ((3, SN), (3, SH), (1, AsymSize(SR)))):
        assert Sum(items).items == items


@pytest.mark.parametrize(
    "items",
    [
        ((2, SN), (0, SR)),  # zero coefficient
        ((3, SN), (-1, SR)),  # negative coefficient
        ((1, SN), (2, SR)),  # coefficients increase
        ((1, SN), (1, SN)),  # repeated unit
        ((2, SN), (1, SN)),  # repeated unit, coefficients in order
        ((1, SN), (1, Sum(((2, SR),)))),  # nested sum
        ((1, SN),),  # a lone unit with coefficient 1 is the bare unit
    ],
)
def test_non_normal_sums_are_refused(items):
    assert not normal_items(items)
    with pytest.raises(ValueError, match="not a normal sum"):
        Sum(items)


def test_denormal_sums_are_refused():
    # each draw of the generator equals its source in value and is refused
    # when built; all three of its kinds of draw occur
    rng = random.Random(0x50B)
    kinds = set()
    for _ in range(500):
        e = random_size_expr(rng)
        items = denormal_size(rng, e)
        assert not normal_items(items)
        with pytest.raises(ValueError, match="not a normal sum"):
            Sum(items)
        assert set(sum_items(normal_form(items))) == set(sum_items(e))
        if isinstance(items[0][1], Sum):
            kinds.add("nested")
        elif len({unit for _, unit in items}) < len(items):
            kinds.add("repeated")
        else:
            kinds.add("reordered or lone")
    assert kinds == {"nested", "repeated", "reordered or lone"}


def test_contains_hash():
    assert contains_hash(HashSize())
    assert contains_hash(ssum([SN, HashSize()]))
    assert contains_hash(AsymSize(HashSize()))
    assert not contains_hash(ssum([SN, SR]))
    assert not contains_hash(AsymSize(SN))


def test_render_size():
    assert render_size(Sum(())) == "0"
    assert render_size(SN) == "|n|"
    assert render_size(HashSize()) == "S_hash"
    assert render_size(AsymSize(TypeSize(BasicTT.M))) == "S_asym(|m|)"


def test_what_is_not_sized_is_refused():
    with pytest.raises(TypeError, match="^not a typed term: "):
        delta(Atom(AtomKind.NONCE, "N"))
    for size_of in (render_size, lambda e: eval_size(e, MODEL)):
        with pytest.raises(TypeError, match="^not a size expression: "):
            size_of(BasicTT.N)


def test_size_model_validated():
    # each range rule has its message, whatever model is alive, and a
    # refused model enters nothing
    cases = [
        ({**_MODEL_FIELDS, "sizes": {BasicTT.R: 8}}, "^sizes must cover r, n, k, m$"),
        ({**_MODEL_FIELDS, "s_hash": -1}, "^size-model values must be finite and positive$"),
        ({**_MODEL_FIELDS, "sizes": {**MODEL.sizes, BasicTT.M: 0}},
         "^size-model values must be finite and positive$"),
        ({**_MODEL_FIELDS, "blk_in": 10}, "^blk_in must exceed pad$"),
    ]
    before = set(_TABLES[SizeModel])
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            SizeModel(**fields)
    assert set(_TABLES[SizeModel]) <= before
    assert SizeModel(**_MODEL_FIELDS) is MODEL


def test_eval_size_asym_blocks():
    # one input block
    assert eval_size(AsymSize(TypeSize(BasicTT.M)), MODEL) == 128
    # 200 + 16 + 11 = 227 -> 2 input blocks
    big = ssum([TypeSize(BasicTT.M), TypeSize(BasicTT.M), SN])
    assert eval_size(AsymSize(big), MODEL) == 2 * 128
    # 200 + 32 + 11 = 243 -> 3 input blocks
    bigger = ssum([big, SN])
    assert eval_size(AsymSize(bigger), MODEL) == 3 * 128
    assert eval_size(Sum(()), MODEL) == 0.0
    assert eval_size(ssum([SN, SN, SR]), MODEL) == 40.0


def test_eval_size_beyond_the_float_range_is_inf():
    # an infinite block count made math.ceil raise OverflowError, and an
    # int block count times an int blk_out was an int beyond the float range
    def sized(m, **fields):
        return SizeModel(**{**_MODEL_FIELDS, **fields,
                            "sizes": {**_MODEL_FIELDS["sizes"], BasicTT.M: m}})

    huge = sized(10**306, blk_out=10**6)
    tiny_blocks = sized(1e10, blk_in=2e-300, pad=1e-300)
    for model in (huge, tiny_blocks):
        value = eval_size(AsymSize(TypeSize(BasicTT.M)), model)
        assert type(value) is float and value == math.inf


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_delta_pair_additivity(seed):
    rng = random.Random(seed)
    a, b = random_tterm(rng), random_tterm(rng)
    assert delta(TPair(a, b)) is ssum([delta(a), delta(b)])


@given(seeds)
def test_delta_hash_constant(seed):
    rng = random.Random(seed)
    assert delta(TEnc(random_tterm(rng), FuncName.H)) == HashSize()


@given(seeds)
def test_delta_sk_transparent(seed):
    rng = random.Random(seed)
    t = random_tterm(rng)
    assert delta(TEnc(t, FuncName.SK)) == delta(t)


@given(seeds)
def test_ssum_of_a_normal_size_is_itself(seed):
    rng = random.Random(seed)
    e = delta(random_tterm(rng))
    assert ssum([e]) is e


@given(seeds)
def test_every_ssum_result_is_normal(seed):
    # ssum over normal sums, units and repeats builds only sums that the
    # constructor accepts, and building one again gives the same object
    rng = random.Random(seed)
    parts = [random_size_expr(rng) for _ in range(rng.randint(0, 4))]
    parts += [rng.choice(parts + [SN, SH])] * rng.randint(0, 3)
    e = ssum(parts)
    if isinstance(e, Sum):
        assert normal_items(e.items)
        assert Sum(e.items) is e
    assert ssum([e]) is e


@given(seeds)
def test_eval_respects_addition(seed):
    rng = random.Random(seed)
    a, b = delta(random_tterm(rng)), delta(random_tterm(rng))
    lhs = eval_size(ssum([a, b]), MODEL)
    rhs = eval_size(a, MODEL) + eval_size(b, MODEL)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)
