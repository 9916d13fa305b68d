"""Cost-model and assumption configuration.

One JSON document supplies numeric type sizes, hash and asymmetric
ciphertext parameters, affine coefficients for the six size-dependent cost
functions, the three constants, and optional comparison assumptions.  The
schema is closed: unknown and repeated keys are rejected so typos cannot
silently fall back to defaults or be overridden.
"""

from __future__ import annotations

import json

from .costs import (
    DEFAULT_ASSUMPTIONS,
    Affine,
    AssumptionSet,
    CostFunc,
    CostModel,
    EXPANDABLE,
)
from .errors import ConfigError
from .sizes import _FLOAT_MAX, SizeModel
from .terms import BasicTT

_SIZE_KEYS = {"r": BasicTT.R, "n": BasicTT.N, "k": BasicTT.K, "m": BasicTT.M}
_FUNC_NAMES = {f.value: f for f in CostFunc}


def _section(value, where: str, keys, required=None) -> dict:
    """`value` as a closed object: no key outside `keys`, and every key of
    `required` (all of `keys` by default) present."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    missing = sorted(set(keys if required is None else required) - set(value))
    if missing:
        raise ConfigError(f"missing key {missing[0]!r} in {where}")
    return value


def _number(data: dict, key: str, where: str) -> float:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:  # NaN, inf, or an int beyond a float
        raise ConfigError(f"{where}.{key} must be finite")
    return float(value)


def _flag(data: dict, key: str, where: str) -> bool:
    value = data[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false")
    return value


def parse_config(data) -> tuple[CostModel, AssumptionSet]:
    required = ("sizes", "s_hash", "s_asym", "funcs", "lambda_c", "lambda_p", "ov_h")
    top = _section(data, "config", required + ("assumptions",), required)

    sizes_raw = _section(top["sizes"], "sizes", _SIZE_KEYS)
    sizes = {tt: _number(sizes_raw, key, "sizes") for key, tt in _SIZE_KEYS.items()}

    asym = _section(top["s_asym"], "s_asym", ("blk_in", "blk_out", "pad"))

    wanted = {f.value: f for f in EXPANDABLE}
    funcs_raw = _section(top["funcs"], "funcs", wanted)
    funcs = {}
    for name, func in wanted.items():
        entry = _section(funcs_raw[name], f"funcs.{name}", ("alpha", "beta"))
        try:
            funcs[func] = Affine(
                _number(entry, "alpha", f"funcs.{name}"),
                _number(entry, "beta", f"funcs.{name}"),
            )
        except ValueError as exc:
            raise ConfigError(f"funcs.{name}: {exc}") from exc

    try:
        size_model = SizeModel(
            sizes=sizes,
            s_hash=_number(top, "s_hash", "config"),
            blk_in=_number(asym, "blk_in", "s_asym"),
            blk_out=_number(asym, "blk_out", "s_asym"),
            pad=_number(asym, "pad", "s_asym"),
        )
        model = CostModel(
            funcs=funcs,
            lambda_c=_number(top, "lambda_c", "config"),
            lambda_p=_number(top, "lambda_p", "config"),
            ov_h=_number(top, "ov_h", "config"),
            size_model=size_model,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "assumptions" not in top:
        return model, DEFAULT_ASSUMPTIONS
    return model, _parse_assumptions(top["assumptions"])


def _parse_assumptions(raw) -> AssumptionSet:
    data = _section(raw, "assumptions", ("ignore_overhead", "dominance", "max_bytes"), ())
    kwargs = {}
    if "ignore_overhead" in data:
        kwargs["ignore_overhead"] = _flag(data, "ignore_overhead", "assumptions")
    if "max_bytes" in data:
        kwargs["max_bytes"] = _number(data, "max_bytes", "assumptions")
    if "dominance" in data:
        entries = data["dominance"]
        if not isinstance(entries, list):
            raise ConfigError("assumptions.dominance must be a list of pairs")
        pairs = []
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ConfigError("assumptions.dominance entries must be [greater, lesser]")
            named = []
            for name in entry:
                func = _FUNC_NAMES.get(name) if isinstance(name, str) else None
                if func is None:
                    raise ConfigError(f"unknown cost function {name!r} in dominance")
                named.append(func)
            pairs.append(tuple(named))
        kwargs["dominance"] = tuple(pairs)
    try:
        return AssumptionSet(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"duplicate key {key!r}")
        data[key] = value
    return data


def load_config(path) -> tuple[CostModel, AssumptionSet]:
    """Read and validate a JSON config file."""
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read().removeprefix("\ufeff")  # a byte-order mark
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            # malformed or too deeply nested JSON, a key repeated in one
            # object, or text that is not UTF-8
            raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(data)
