"""Records the loaders and ``score_portfolio`` build through slot setters,
without the frozen ``__init__``, are the records the constructor builds
from the same values: equal, with equal hashes and reprs, ``replace``
alike, and with every slot set. Asset context is no record:
``load_asset_context`` maps each CVE to one of six shared pairs. Nor is
a label store line: ``iter_label_rows`` yields its values, with one of
the twelve shared judgments, and builds no ``LabeledExample``."""

import dataclasses
import itertools
import re
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from vulnrank import feeds
from vulnrank.cvss import base_score, parse_vector
from vulnrank.feeds import (
    Criticality,
    CveRecord,
    Exposure,
    InvalidCategory,
    LabeledExample,
    Labeler,
    iter_cve_records,
    iter_label_rows,
    load_asset_context,
    shared_judgment,
)
from vulnrank.scoring import NEUTRAL_ENV, ScoredVulnerability, env_factor, score_portfolio

from conftest import write_jsonl

VECTOR = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
STAMP = datetime(2021, 6, 1, tzinfo=timezone.utc)


def assert_same_record(loaded, built, **changes):
    assert type(loaded) is type(built)
    for field in dataclasses.fields(built):
        # A slot left unset raises AttributeError here.
        assert getattr(loaded, field.name) == getattr(built, field.name), field.name
    assert loaded == built and built == loaded
    assert hash(loaded) == hash(built)
    assert repr(loaded) == repr(built)
    assert dataclasses.replace(loaded, **changes) == dataclasses.replace(built, **changes)
    assert dataclasses.replace(loaded) == built


def test_cve_records(tmp_path):
    path = write_jsonl(tmp_path / "cves.jsonl", [
        {"id": "CVE-2020-0001", "description": "a", "vector": VECTOR, "score": 9.8},
        {"id": "CVE-2020-0002", "description": "", "score": 7},
        {"id": "CVE-2020-0003", "description": "c"},
    ])
    built = [
        CveRecord("CVE-2020-0001", "a", parse_vector(VECTOR), Decimal("9.8")),
        CveRecord("CVE-2020-0002", "", published_score=Decimal("7.0")),
        CveRecord("CVE-2020-0003", "c"),
    ]
    for loaded, expected in zip(iter_cve_records(path), built, strict=True):
        assert_same_record(loaded, expected, description="changed")


@pytest.mark.parametrize("store_form", [True, False], ids=["store-line", "json"])
def test_labeled_examples(tmp_path, store_form):
    path = tmp_path / "labels.jsonl"
    rows = [("CVE-2020-0001", 2, 1, "SME"), ("CVE-2020-0002", 0, 0, "Model")]
    sep = (",", ":") if store_form else (", ", ": ")
    path.write_text("".join(
        f'{{"cve"{sep[1]}"{cve}"{sep[0]}"utility"{sep[1]}{u}{sep[0]}"opportune"{sep[1]}{o}'
        f'{sep[0]}"labeler"{sep[1]}"{who}"{sep[0]}"ts"{sep[1]}"2021-06-01T00:00:00Z"}}\n'
        for cve, u, o, who in rows
    ))
    lines = feeds._line_scan(feeds._STORE_LINE)(path.read_bytes())
    assert [raw == b"" for *_, raw in lines] == [store_form] * len(rows)
    built = [LabeledExample(cve, u, o, Labeler(who), STAMP) for cve, u, o, who in rows]
    loaded = list(iter_label_rows(path))
    # A row holds a line's values in the example's field order.
    for (cve_id, judgment, ts), expected in zip(loaded, built, strict=True):
        assert_same_record(LabeledExample(cve_id, *judgment, ts), expected, utility=0)
        assert judgment is shared_judgment(expected.utility, expected.opportune, expected.labeler)


def test_a_labeled_example_holds_a_store_line():
    # The fields are the store line's keys, in order, the id and the
    # stamp under their own names.
    keys = re.findall(r'"(\w+)":', feeds._LABEL_LINE)
    names = {"cve": "cve_id", "ts": "labeled_at"}
    assert [names.get(key, key) for key in keys] == [f.name for f in dataclasses.fields(LabeledExample)]


def test_asset_context(tmp_path):
    # Every combination twice, the second round in reverse: equal
    # combinations load as one shared pair, and the six pairs are the
    # product of the two enums.
    combos = list(itertools.product(Exposure, Criticality))
    rows = combos + combos[::-1]
    path = write_jsonl(tmp_path / "context.jsonl", [
        {"cve": f"CVE-2020-{k:04d}", "exposure": e.value, "criticality": c.value}
        for k, (e, c) in enumerate(rows, start=1)
    ])
    loaded = load_asset_context(path)
    assert list(loaded) == [f"CVE-2020-{k:04d}" for k in range(1, len(rows) + 1)]
    assert list(loaded.values()) == rows
    assert all(type(pair) is tuple for pair in loaded.values())
    pairs = list(loaded.values())
    for k in range(len(combos)):
        assert pairs[k] is pairs[-1 - k]
    distinct = list({id(pair): pair for pair in pairs}.values())
    assert distinct == combos


def test_scored_rows():
    records = [
        CveRecord("CVE-2020-0001", "a", parse_vector(VECTOR)),
        CveRecord("CVE-2020-0002", "b", published_score=Decimal("7.5")),
        CveRecord("CVE-2020-0003", "c", published_score=Decimal("7.50")),
        CveRecord("CVE-2020-0004", "d", published_score=Decimal("7.5")),
    ]
    labels = {
        "CVE-2020-0001": LabeledExample("CVE-2020-0001", 2, 1, Labeler.SME, STAMP),
        "CVE-2020-0002": LabeledExample("CVE-2020-0002", 1, 0, Labeler.MODEL, STAMP),
        "CVE-2020-0003": LabeledExample("CVE-2020-0003", 0, 1, Labeler.SME, STAMP),
        "CVE-2020-0004": LabeledExample("CVE-2020-0004", 2, 0, Labeler.MODEL, STAMP),
    }
    wx = {"CVE-2020-0001": 3}
    ctx = {
        cve_id: (Exposure.PUBLIC, Criticality.HIGH) for cve_id in ("CVE-2020-0002", "CVE-2020-0003")
    }
    scored = score_portfolio(records, wx, labels, ctx)
    for row, record in zip(scored, records, strict=True):
        built = ScoredVulnerability(
            row.cve_id, row.cvss, wx.get(row.cve_id, 0), labels[row.cve_id],
            env_factor(ctx.get(row.cve_id)),
        )
        assert row.threat_score.as_tuple() == built.threat_score.as_tuple()
        assert_same_record(row, built, wx=row.wx + 1)
        # Each factor is a plain value: the published score is the
        # record's own Decimal, a vector's is its base score.
        if record.vector is None:
            assert row.cvss is record.published_score
        else:
            assert row.cvss is base_score(record.vector)
    # Rows with one context share one env Decimal; the others are neutral.
    assert scored[1].env is scored[2].env
    assert str(scored[1].env) == "2.25"
    assert scored[0].env is scored[3].env is NEUTRAL_ENV
    assert [str(row.cvss) for row in scored] == ["9.8", "7.5", "7.50", "7.5"]


@pytest.mark.parametrize("value", [True, 3, "1"], ids=repr)
@pytest.mark.parametrize("field", ["utility", "opportune"])
def test_constructor_still_checks_labels(field, value):
    values = {"utility": 1, "opportune": 0, field: value}
    with pytest.raises(InvalidCategory, match=f"^{field} must be one of "):
        LabeledExample("CVE-2020-0001", labeler=Labeler.SME, labeled_at=STAMP, **values)
