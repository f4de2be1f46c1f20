"""Config fuzzing: any --config document and any VULNRANK_* strings
either build a RunConfig whose fields have their declared types, or
fail the way main reports as exit 2 with one ``error:`` line; and a flag
value builds what the same string in its env var builds."""

import argparse
import io
import json
import os
from contextlib import redirect_stderr
from decimal import Decimal
from types import MappingProxyType
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from vulnrank.cli import CONFIG_KEYS, ENV_PREFIX, RunConfig, build_config, build_parser, main
from vulnrank.report import ExportFormat
from vulnrank.scoring import DEFAULT_ENV_WEIGHTS, InvalidConfig

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
# Values near the accepted forms, so the success paths are drawn too.
PLAUSIBLE_STRINGS = [
    "0", "7", " 7 ", "-1", "-1e-3", "-5,1", "4294967295", "4294967296", "2.5", "1e-3", "nan",
    "inf", "yes", "Off", "maybe", "text", "json-lines", "structured", "xml", "64,32,16,8", "8,16", "1,,2", "",
    "out.txt", "1e999999999,1",
]
PLAUSIBLE_TEXT = st.sampled_from(PLAUSIBLE_STRINGS)
PLAUSIBLE_JSON = PLAUSIBLE_TEXT | st.sampled_from(
    [
        [64, 32], ["8", 4.5], [], 3, True,
        {"exposure": {"Public": 2, "Private": "1.0"}},
        {"criticality": {"High": 0}},
        {"exposure": {"DMZ": 1}},
        {"exposure": {"Public": "NaN"}},
        {"exposure": {"Public": 1e300}},
        {"exposure": {"Public": 1e-30}},
        {"exposure": []},
    ]
)
# Values of each field's declared type, mostly accepted as they are.
TYPED = {
    "str | None": st.none() | st.text(min_size=1),
    "str": st.text(min_size=1),
    "ExportFormat | None": st.none() | st.sampled_from(["text", "csv", "json-lines", "structured"]),
    "int": st.integers() | st.integers().map(str),
    "float": st.floats() | st.integers(),
    "bool": st.booleans() | st.sampled_from(["yes", "no", "1", "0", "on", "off"]),
    "Mapping[Exposure | Criticality, Decimal]": st.fixed_dictionaries(
        {},
        optional={
            "exposure": st.dictionaries(
                st.sampled_from(["Public", "Private"]),
                st.floats(0.5, 3) | st.floats(0.5, 3).map(lambda w: round(w, 4)),
            ),
            "criticality": st.dictionaries(st.sampled_from(["High", "Low"]), st.integers(1, 3)),
        },
    ),
    "tuple[Decimal, ...]": st.lists(st.integers(), min_size=1, unique=True).map(
        lambda xs: sorted(xs, reverse=True)
    ),
}
# Each RunConfig field's declared type, as written in the class.
FIELD_TYPES = {name: ref.__forward_arg__ for name, ref in RunConfig.__annotations__.items()}
DOCS = (
    st.fixed_dictionaries({}, optional={name: TYPED[t] for name, t in FIELD_TYPES.items()})
    | st.dictionaries(st.sampled_from(list(CONFIG_KEYS)), JSON_VALUES | PLAUSIBLE_JSON, max_size=3)
    | JSON_VALUES
)
ENV = st.dictionaries(
    st.sampled_from([ENV_PREFIX + key.upper() for key in CONFIG_KEYS]),
    st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0")) | PLAUSIBLE_TEXT,
    max_size=3,
)


# The documented ranges: weights in [0.0001, 10000], tier bounds in
# [0, 10^9], each with at most four decimals.
def _bounded(value, low, high) -> bool:
    return (
        isinstance(value, Decimal)
        and value.is_finite()
        and Decimal(low) <= value <= Decimal(high)
        and value.as_tuple().exponent >= -4
    )


def _weights_ok(weights) -> bool:
    return all(_bounded(w, "0.0001", 10**4) for w in weights.values())


DECLARED = {
    "str | None": lambda v: v is None or isinstance(v, str),
    "str": lambda v: isinstance(v, str),
    "ExportFormat | None": lambda v: v is None or isinstance(v, ExportFormat),
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) is float,
    "bool": lambda v: type(v) is bool,
    "Mapping[Exposure | Criticality, Decimal]": lambda v: (
        isinstance(v, MappingProxyType) and _weights_ok(v)
    ),
    "tuple[Decimal, ...]": lambda v: (
        isinstance(v, tuple) and all(_bounded(b, 0, 10**9) for b in v)
    ),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(doc=DOCS, env=ENV)
def test_config_is_typed_or_exits_2(tmp_path_factory, doc, env):
    path = tmp_path_factory.getbasetemp() / "fuzz_config.json"
    path.write_text(json.dumps(doc))
    clean = {k: v for k, v in os.environ.items() if not k.startswith(ENV_PREFIX)}
    with mock.patch.dict(os.environ, clean | env, clear=True):
        try:
            config = build_config(argparse.Namespace(config=str(path)))
        except Exception:
            stderr = io.StringIO()
            with redirect_stderr(stderr):
                assert main(["ingest", "--config", str(path)]) == 2
            err = stderr.getvalue()
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return
    for name, t in FIELD_TYPES.items():
        assert DECLARED[t](getattr(config, name)), (name, getattr(config, name))
    assert 0 <= config.seed <= 2**32 - 1
    if not isinstance(doc, dict) or "env_weights" not in doc:
        assert config.env_weights == DEFAULT_ENV_WEIGHTS


def _outcome(argv: list[str]):
    # The RunConfig, or the error main would print with exit 2.
    try:
        return build_config(build_parser().parse_args(argv))
    except InvalidConfig as exc:
        return f"error: {exc}"


# stratified is a switch that takes no value; score takes every other flag.
@pytest.mark.parametrize(
    "key", [k for k, (_, help_text) in CONFIG_KEYS.items() if help_text and k != "stratified"]
)
def test_flag_value_builds_what_env_value_builds(monkeypatch, key):
    for name in [n for n in os.environ if n.startswith(ENV_PREFIX)]:
        monkeypatch.delenv(name)
    flag, name = "--" + key.replace("_", "-"), ENV_PREFIX + key.upper()
    for value in PLAUSIBLE_STRINGS:
        monkeypatch.setenv(name, value)
        from_env = _outcome(["score"])
        monkeypatch.delenv(name)
        if isinstance(from_env, str):
            from_env = from_env.replace(f"error: {name}: ", f"error: {flag}: ", 1)
            assert from_env.count("\n") == 0
        # Both forms, so a value that starts with "-" must reach the parser too.
        assert _outcome(["score", f"{flag}={value}"]) == from_env, (key, value)
        assert _outcome(["score", flag, value]) == from_env, (key, value)


def test_stratified_switch_builds_what_env_true_builds(monkeypatch):
    monkeypatch.setenv("VULNRANK_STRATIFIED", "true")
    from_env = _outcome(["score"])
    monkeypatch.delenv("VULNRANK_STRATIFIED")
    assert _outcome(["score", "--stratified"]) == from_env
    assert from_env.stratified is True
