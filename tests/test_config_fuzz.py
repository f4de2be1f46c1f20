"""Config fuzzing: any --config document and any VULNRANK_* strings
either build a RunConfig whose fields have their declared types, or
fail the way main reports as exit 2 with one ``error:`` line."""

import argparse
import io
import json
import os
from contextlib import redirect_stderr
from dataclasses import fields
from decimal import Decimal
from unittest import mock

from hypothesis import given, settings, strategies as st

from vulnrank.cli import CONFIG_KEYS, ENV_PREFIX, RunConfig, build_config, main
from vulnrank.scoring import DEFAULT_ENV_WEIGHTS, EnvWeights

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
# Values near the accepted forms, so the success paths are drawn too.
PLAUSIBLE_TEXT = st.sampled_from(
    ["7", " 7 ", "-1", "4294967295", "4294967296", "2.5", "1e-3", "nan", "inf", "yes", "Off",
     "maybe", "text",
     "json-lines", "structured", "xml", "64,32,16,8", "8,16", "1,,2", "", "out.txt",
     "1e999999999,1"]
)
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
    "int": st.integers() | st.integers().map(str),
    "float": st.floats() | st.integers(),
    "bool": st.booleans() | st.sampled_from(["yes", "no", "1", "0", "on", "off"]),
    "EnvWeights": st.fixed_dictionaries(
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
DOCS = (
    st.fixed_dictionaries({}, optional={f.name: TYPED[f.type] for f in fields(RunConfig)})
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
    tables = (weights.exposure, weights.criticality)
    return all(_bounded(w, "0.0001", 10**4) for t in tables for w in t.values())


DECLARED = {
    "str | None": lambda v: v is None or isinstance(v, str),
    "str": lambda v: isinstance(v, str),
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) is float,
    "bool": lambda v: type(v) is bool,
    "EnvWeights": lambda v: isinstance(v, EnvWeights) and _weights_ok(v),
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
    for f in fields(RunConfig):
        assert DECLARED[f.type](getattr(config, f.name)), (f.name, getattr(config, f.name))
    assert 0 <= config.seed <= 2**32 - 1
    if not isinstance(doc, dict) or "env_weights" not in doc:
        assert config.env_weights == DEFAULT_ENV_WEIGHTS
