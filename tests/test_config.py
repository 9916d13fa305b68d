"""Cost-model configuration loading and schema validation."""

import copy
import json
import math

import pytest

from spa import load_config
from spa.config import parse_config
from spa.costs import DEFAULT_ASSUMPTIONS, CostFunc
from spa.errors import ConfigError
from spa.terms import BasicTT

from .helpers import DEFAULT_CONFIG, X509_MODIFIED, X509_ORIGINAL, read, run_cli

BASE = json.loads(read(DEFAULT_CONFIG))


def variant(**changes):
    data = copy.deepcopy(BASE)
    data.update(changes)
    return data


def test_load_default_config():
    model, assume = load_config(DEFAULT_CONFIG)
    assert model.size_model.sizes[BasicTT.N] == 16
    assert model.size_model.s_hash == 20
    assert model.funcs[CostFunc.F_PK].alpha == 250.0
    assert model.lambda_c == 0.1
    assert model.ov_h == 0.25
    assert assume.ignore_overhead is True
    assert (CostFunc.F_PK, CostFunc.F_H) in assume.closure()
    assert (CostFunc.F_PK, CostFunc.F_SK) in assume.closure()


def test_assumptions_default_when_absent():
    data = variant()
    del data["assumptions"]
    _, assume = parse_config(data)
    assert assume == DEFAULT_ASSUMPTIONS


def test_assumptions_null_is_refused(tmp_path):
    # only an absent section takes the defaults; null is a value of the
    # wrong type, refused like `"assumptions": []` or `"s_asym": null`
    for bad in (None, []):
        with pytest.raises(ConfigError) as exc:
            parse_config(variant(assumptions=bad))
        assert str(exc.value) == "assumptions must be an object"
    path = tmp_path / "null.json"
    path.write_text(json.dumps(variant(assumptions=None)), encoding="utf-8")
    code, out, err = run_cli("compare", X509_MODIFIED, X509_ORIGINAL, "--config", str(path))
    assert (code, out) == (4, "")
    assert err == "ConfigError: assumptions must be an object\n"


def test_top_level_must_be_object():
    with pytest.raises(ConfigError):
        parse_config([1, 2])


def test_unknown_key_named():
    with pytest.raises(ConfigError) as exc:
        parse_config(variant(typo=1))
    assert "typo" in str(exc.value)


def test_monotone_is_an_unknown_key():
    # the key left the schema: a config that still sets it is refused by
    # name rather than read and ignored
    data = variant()
    data["assumptions"]["monotone"] = True
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert str(exc.value) == "unknown key 'monotone' in assumptions"


def test_missing_key_named():
    data = variant()
    del data["lambda_c"]
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert "lambda_c" in str(exc.value)


def test_sizes_schema_closed():
    data = variant()
    data["sizes"] = dict(data["sizes"], extra=4)
    with pytest.raises(ConfigError):
        parse_config(data)
    data = variant()
    del data["sizes"]["n"]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_funcs_must_cover_exactly_six():
    data = variant()
    del data["funcs"]["f_sk"]
    with pytest.raises(ConfigError):
        parse_config(data)
    data = variant()
    data["funcs"]["f_c"] = {"alpha": 0, "beta": 0}  # constants live elsewhere
    with pytest.raises(ConfigError):
        parse_config(data)
    data = variant()
    del data["funcs"]["f_h"]["beta"]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_numbers_type_checked():
    with pytest.raises(ConfigError):
        parse_config(variant(lambda_c="fast"))
    with pytest.raises(ConfigError):
        parse_config(variant(lambda_c=True))  # bool is not a number here
    data = variant()
    data["funcs"]["f_h"]["alpha"] = None
    with pytest.raises(ConfigError):
        parse_config(data)


def test_flags_type_checked():
    data = variant()
    data["assumptions"]["ignore_overhead"] = "yes"
    with pytest.raises(ConfigError):
        parse_config(data)


def test_negative_values_rejected():
    data = variant()
    data["funcs"]["f_h"]["alpha"] = -1
    with pytest.raises(ConfigError):
        parse_config(data)
    with pytest.raises(ConfigError):
        parse_config(variant(ov_h=-0.5))
    data = variant()
    data["sizes"]["n"] = 0
    with pytest.raises(ConfigError):
        parse_config(data)


def test_asym_block_consistency():
    data = variant()
    data["s_asym"] = {"blk_in": 10, "blk_out": 128, "pad": 11}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_dominance_validation():
    data = variant()
    data["assumptions"]["dominance"] = [["f_pk", "nope"]]
    with pytest.raises(ConfigError):
        parse_config(data)
    data["assumptions"]["dominance"] = [["f_pk"]]
    with pytest.raises(ConfigError):
        parse_config(data)
    data["assumptions"]["dominance"] = "f_pk > f_h"
    with pytest.raises(ConfigError):
        parse_config(data)
    data["assumptions"]["dominance"] = [["f_pk", "f_h"], ["f_h", "f_pk"]]
    with pytest.raises(ConfigError):
        parse_config(data)


@pytest.mark.parametrize("name", [["f_pk"], {"f": "f_pk"}])
def test_dominance_names_must_be_function_names(name):
    data = variant()
    data["assumptions"]["dominance"] = [[name, "f_h"]]
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert str(exc.value) == f"unknown cost function {name!r} in dominance"


def test_dominance_may_name_constants():
    data = variant()
    data["assumptions"]["dominance"] = [["f_c", "f_p"]]
    _, assume = parse_config(data)
    assert (CostFunc.F_C, CostFunc.F_P) in assume.closure()


def test_bad_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    # malformed, not UTF-8, nested beyond the JSON reader's recursion limit
    for data in (b"{not json", b'{"siz\xe9s": {}}', b"[" * 100_000 + b"]" * 100_000):
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            load_config(path)


@pytest.mark.parametrize("text, key", [
    ('"lambda_c": 0.1', "lambda_c"),
    ('"sizes": {"r": 8', "r"),
    ('"ignore_overhead": true', "ignore_overhead"),
], ids=["top", "sizes", "assumptions"])
def test_duplicate_key_is_config_error(tmp_path, text, key):
    """A repeated key in any object is refused, not read last-wins."""
    path = tmp_path / "dup.json"
    repeated = text + ", " + text.rsplit("{", 1)[-1]
    path.write_text(read(DEFAULT_CONFIG).replace(text, repeated, 1), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == f"{path}: duplicate key {key!r}"


@pytest.mark.parametrize("bad", [0, -1, -0.5])
def test_max_bytes_must_be_positive(bad):
    data = variant()
    data["assumptions"]["max_bytes"] = bad
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert str(exc.value) == "max_bytes must be finite and positive"
    data["assumptions"]["max_bytes"] = 1e-9
    assert parse_config(data)[1].max_bytes == 1e-9


def test_missing_file_is_os_error(tmp_path):
    with pytest.raises(OSError):
        load_config(tmp_path / "absent.json")


def _numeric_keys(data, where=()):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _numeric_keys(value, where + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield where + (key,)


@pytest.mark.parametrize("key", sorted(_numeric_keys(BASE)), ids=".".join)
def test_non_finite_numbers_rejected(key):
    for bad in (math.nan, math.inf, -math.inf, 10**400):
        data = variant()
        *outer, last = key
        target = data
        for part in outer:
            target = target[part]
        target[last] = bad
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        name = ".".join(key) if outer else f"config.{last}"
        assert str(exc.value) == f"{name} must be finite"


def _set(path, value):
    def change(data):
        *outer, last = path.split(".")
        for part in outer:
            data = data[part]
        data[last] = value
    return change


@pytest.mark.parametrize("faults, message", [
    # the top level's keys before any section
    ((_set("typo", 1), _set("sizes", "x")), "unknown key 'typo' in config"),
    # a section's keys before its numbers
    ((_set("sizes.n", math.nan), _set("sizes.extra", 1)), "unknown key 'extra' in sizes"),
    # sizes' numbers before s_asym's keys
    ((_set("sizes.r", "x"), _set("s_asym.extra", 1)), "sizes.r must be a number"),
    # s_asym's keys before funcs' keys
    ((_set("s_asym.extra", 1), _set("funcs.typo", 1)), "unknown key 'extra' in s_asym"),
    # funcs entries before the size-model numbers
    ((_set("funcs.f_sk.alpha", "x"), _set("s_hash", "x")), "funcs.f_sk.alpha must be a number"),
    ((_set("s_asym.blk_in", "x"), _set("funcs.f_h", "x")), "funcs.f_h must be an object"),
    ((_set("funcs.f_h.gamma", 1), _set("sizes.n", -1)), "unknown key 'gamma' in funcs.f_h"),
    ((_set("funcs.f_sk.alpha", -1), _set("lambda_c", -1)),
     "funcs.f_sk: affine coefficients must be finite and nonnegative"),
    # the size model before the cost model's constants
    ((_set("sizes.n", 0), _set("lambda_c", -1)), "size-model values must be finite and positive"),
    # assumptions last
    ((_set("assumptions.typo", 1), _set("sizes.n", 0)), "size-model values must be finite and positive"),
    ((_set("assumptions", None), _set("ov_h", "x")), "config.ov_h must be a number"),
], ids=["top", "sizes-keys", "sizes", "s_asym", "funcs-number", "funcs-object", "funcs-keys",
        "funcs-range", "size-model", "assumptions", "assumptions-null"])
def test_first_fault_wins(faults, message):
    """A config with two faults is refused for the one checked first."""
    for ordered in (faults, faults[::-1]):
        data = variant()
        for fault in ordered:
            fault(data)
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert str(exc.value) == message
