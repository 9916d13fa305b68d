"""Size algebra: symbolic sizes, normal form, numeric evaluation."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spa.sizes import (
    ZERO,
    AsymSize,
    HashSize,
    SizeModel,
    Sum,
    TypeSize,
    contains_hash,
    delta,
    eval_size,
    normalize,
    render_size,
    ssum,
)
from spa.terms import Basic, BasicTT, FuncName, TEmpty, TEnc, TPair

from .generators import denormal_size, random_size_expr, random_tterm, sum_items

R, N, K, M = (Basic(tt) for tt in BasicTT)
SR, SN = TypeSize(BasicTT.R), TypeSize(BasicTT.N)

MODEL = SizeModel(
    sizes={BasicTT.R: 8, BasicTT.N: 16, BasicTT.K: 16, BasicTT.M: 100},
    s_hash=20,
    blk_in=117,
    blk_out=128,
    pad=11,
)


def test_delta_basics():
    assert delta(TEmpty()) == ZERO
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
    assert ssum([]) == ZERO
    assert ssum([SN, SN]) == Sum(((2, SN),))


def test_nested_sums_flatten():
    inner = ssum([SN, SR])
    assert ssum([inner, SN]) == Sum(((2, SN), (1, SR)))


def test_contains_hash():
    assert contains_hash(HashSize())
    assert contains_hash(ssum([SN, HashSize()]))
    assert contains_hash(AsymSize(HashSize()))
    assert not contains_hash(ssum([SN, SR]))
    assert not contains_hash(AsymSize(SN))


def test_render_size():
    assert render_size(ZERO) == "0"
    assert render_size(SN) == "|n|"
    assert render_size(HashSize()) == "S_hash"
    assert render_size(AsymSize(TypeSize(BasicTT.M))) == "S_asym(|m|)"


def test_size_model_validated():
    with pytest.raises(ValueError):
        SizeModel(sizes={BasicTT.R: 8}, s_hash=20, blk_in=117, blk_out=128, pad=11)
    with pytest.raises(ValueError):
        SizeModel(sizes=MODEL.sizes, s_hash=-1, blk_in=117, blk_out=128, pad=11)
    with pytest.raises(ValueError):
        SizeModel(sizes=MODEL.sizes, s_hash=20, blk_in=10, blk_out=128, pad=11)


def test_eval_size_asym_blocks():
    # one input block
    assert eval_size(AsymSize(TypeSize(BasicTT.M)), MODEL) == 128
    # 200 + 16 + 11 = 227 -> 2 input blocks
    big = ssum([TypeSize(BasicTT.M), TypeSize(BasicTT.M), SN])
    assert eval_size(AsymSize(big), MODEL) == 2 * 128
    # 200 + 32 + 11 = 243 -> 3 input blocks
    bigger = ssum([big, SN])
    assert eval_size(AsymSize(bigger), MODEL) == 3 * 128
    assert eval_size(ZERO, MODEL) == 0.0
    assert eval_size(ssum([SN, SN, SR]), MODEL) == 40.0


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
def test_delta_pair_additivity(seed):
    rng = random.Random(seed)
    a, b = random_tterm(rng), random_tterm(rng)
    assert normalize(delta(TPair(a, b))) == ssum([delta(a), delta(b)])


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
def test_normalize_idempotent(seed):
    rng = random.Random(seed)
    e = delta(random_tterm(rng))
    assert normalize(e) == normalize(normalize(e))


def test_normalize_keeps_normal_sums():
    # normalize agrees with ssum, and returns its argument exactly when that
    # is already what ssum would build
    rng = random.Random(0x50B)
    kept = rebuilt = 0
    for _ in range(500):
        e = random_size_expr(rng)
        backwards = Sum(tuple(reversed(sum_items(e))))
        for x in (e, denormal_size(rng, e), backwards):
            got = normalize(x)
            assert got == ssum([x])
            if ssum([x]) == x:
                assert got is x
                kept += 1
            else:
                rebuilt += 1
    assert kept > 500 and rebuilt > 300
    assert normalize(SR) is SR and normalize(ZERO) is ZERO


@given(seeds)
def test_eval_respects_addition(seed):
    rng = random.Random(seed)
    a, b = delta(random_tterm(rng)), delta(random_tterm(rng))
    lhs = eval_size(ssum([a, b]), MODEL)
    rhs = eval_size(a, MODEL) + eval_size(b, MODEL)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)
