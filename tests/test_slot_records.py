"""Records are named tuples. The ones the loaders and ``score_portfolio``
build with ``tuple.__new__``, past any checking ``__new__``, are the
records the constructor builds from the same values: equal, with equal
hashes and reprs, and ``_replace`` alike. ``_make`` and ``_replace``
keep a record's invariants, and a copy or a pickle round trip gives an
equal record; every vulnrank enum member hashes by identity and survives
both as itself. Asset context is no record: ``load_asset_context`` maps
each CVE to one of six shared pairs. Nor is a label store line:
``iter_label_rows`` yields it as the row ``(cve_id, judgment, ts)``, the
judgment one of twelve shared values, which its constructor checks and
returns, a copy and an unpickled judgment included."""

import copy
import enum
import importlib
import itertools
import pickle
import pkgutil
import re
from datetime import datetime, timezone
from decimal import Decimal

import pytest

import vulnrank
from vulnrank import feeds
from vulnrank.cli import RunConfig, build_config, build_parser
from vulnrank.cvss import base_score, parse_vector
from vulnrank.feeds import (
    Criticality,
    CveRecord,
    Exposure,
    InvalidCategory,
    Judgment,
    Labeler,
    iter_cve_records,
    iter_label_rows,
    load_asset_context,
)
from vulnrank.report import compare
from vulnrank.scoring import (
    DEFAULT_ENV_WEIGHTS,
    NEUTRAL_ENV,
    ScoredVulnerability,
    env_factor,
    score_portfolio,
    threat_score,
)

from conftest import write_jsonl

VECTOR = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
STAMP = datetime(2021, 6, 1, tzinfo=timezone.utc)


def assert_same_record(loaded, built, **changes):
    assert type(loaded) is type(built)
    assert len(loaded) == len(built._fields)
    assert not hasattr(loaded, "__dict__")
    for name in built._fields:
        assert getattr(loaded, name) == getattr(built, name), name
    assert loaded == built and built == loaded
    assert hash(loaded) == hash(built)
    assert repr(loaded) == repr(built)
    assert loaded._replace(**changes) == built._replace(**changes)
    assert loaded._replace() == built


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
def test_label_rows(tmp_path, store_form):
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
    built = [(cve, Judgment(u, o, Labeler(who)), STAMP) for cve, u, o, who in rows]
    loaded = list(iter_label_rows(path))
    for (cve_id, judgment, ts), (expected_id, expected, expected_ts) in zip(loaded, built, strict=True):
        assert (cve_id, ts) == (expected_id, expected_ts)
        assert judgment is expected
        assert_same_record(judgment, tuple.__new__(Judgment, tuple(expected)), utility=0)


def test_a_row_holds_a_store_line():
    # The id, the judgment's fields and the stamp are the store line's
    # keys, in order.
    keys = re.findall(r'"(\w+)":', feeds._LABEL_LINE)
    assert keys == ["cve", *Judgment._fields, "ts"]


def test_the_twelve_judgments_are_shared():
    judgments = [Judgment(u, o, lab) for u in (0, 1, 2) for o in (0, 1) for lab in Labeler]
    assert len({id(j) for j in judgments}) == 12
    assert all(Judgment(*j) is j and Judgment._make(j) is j and j._replace() is j for j in judgments)
    assert Judgment(2, 1, Labeler.SME)._replace(utility=0) is Judgment(0, 1, Labeler.SME)


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
        "CVE-2020-0001": Judgment(2, 1, Labeler.SME),
        "CVE-2020-0002": Judgment(1, 0, Labeler.MODEL),
        "CVE-2020-0003": Judgment(0, 1, Labeler.SME),
        "CVE-2020-0004": Judgment(2, 0, Labeler.MODEL),
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


# The field a bad value is given to, the value, and the start of the message.
BAD_FIELDS = [
    *(("utility", value, "utility must be one of ") for value in (True, 3, "1")),
    *(("opportune", value, "opportune must be one of ") for value in (True, 3, "1")),
    *(("labeler", value, "labeler must be SME or Model") for value in ("SME", None)),
]


@pytest.mark.parametrize(
    "field, value, message", BAD_FIELDS, ids=[f"{field}-{value!r}" for field, value, _ in BAD_FIELDS]
)
def test_constructor_still_checks_labels(field, value, message):
    values = {"utility": 1, "opportune": 0, "labeler": Labeler.SME, field: value}
    with pytest.raises(InvalidCategory, match=f"^{message}"):
        Judgment(**values)


JUDGMENT = Judgment(2, 1, Labeler.SME)
ROW = ScoredVulnerability("CVE-2020-0001", Decimal("9.8"), 3, JUDGMENT, Decimal("2.25"))


@pytest.mark.parametrize("changes", [
    {"utility": 7}, {"opportune": True}, {"utility": "1"}, {"labeler": "SME"}, {"labeler": None},
], ids=repr)
def test_make_and_replace_check_labels(changes):
    with pytest.raises(InvalidCategory):
        JUDGMENT._replace(**changes)
    with pytest.raises(InvalidCategory):
        Judgment._make({**JUDGMENT._asdict(), **changes}.values())


@pytest.mark.parametrize("changes", [
    {"wx": 0}, {"cvss": Decimal("7.50")}, {"env": Decimal(1), "labels": Judgment(0, 0, Labeler.MODEL)},
    {"threat_score": Decimal(1)},
], ids=repr)
def test_make_and_replace_compute_the_threat_score(changes):
    # A threat score given to either is computed again from the other fields.
    inputs = {**ROW._asdict(), **changes}
    inputs.pop("threat_score")
    for row in (ROW._replace(**changes), ScoredVulnerability._make({**ROW._asdict(), **changes}.values())):
        assert type(row) is ScoredVulnerability
        assert row[:5] == tuple(inputs.values())
        expected = threat_score(row.cvss, row.wx, row.labels, row.env)
        assert row.threat_score.as_tuple() == expected.as_tuple()


def _records() -> list:
    vector = parse_vector(VECTOR)
    return [
        vector,
        CveRecord("CVE-2020-0001", "a", vector, Decimal("9.8")),
        CveRecord("CVE-2020-0002", "b"),
        JUDGMENT,
        ROW,
        ROW._replace(labels=Judgment(1, 0, Labeler.MODEL)),
        compare([ROW]),
        # The default weights are a read-only mapping proxy, which neither
        # deepcopy nor pickle takes, so these configs hold a dict.
        RunConfig(env_weights=dict(DEFAULT_ENV_WEIGHTS)),
        build_config(build_parser().parse_args(["score", "--cves", "x", "--tier-bounds", "9,3"]))._replace(
            env_weights={Exposure.PUBLIC: Decimal(2)}
        ),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r, pickle.HIGHEST_PROTOCOL))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_and_pickles_are_equal(record, clone):
    cloned = clone(record)
    assert type(cloned) is type(record)
    assert cloned == record
    assert repr(cloned) == repr(record)
    # A judgment is one of the twelve shared values, whichever way it is made.
    if type(record) is Judgment:
        assert cloned is record


def test_a_record_equals_the_plain_tuple_of_its_fields():
    for record in _records():
        assert record == tuple(record)
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)


def _vulnrank_enums() -> list[type[enum.Enum]]:
    found = set()
    for info in pkgutil.walk_packages(vulnrank.__path__, "vulnrank."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, enum.EnumMeta) and value.__module__.startswith("vulnrank") and len(value):
                found.add(value)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def test_every_enum_member_hashes_by_identity_and_pickles_as_itself():
    enums = _vulnrank_enums()
    assert {cls.__name__ for cls in enums} >= {"AttackVector", "Severity", "Labeler", "Task", "ExportFormat"}
    for cls in enums:
        for member in cls:
            assert hash(member) == object.__hash__(member), member
            assert pickle.loads(pickle.dumps(member)) is member
            assert copy.deepcopy(member) is member
