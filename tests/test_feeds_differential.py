"""Differential test of the four feed loaders against ``feeds_reference``.

Both versions read the same feed: records whose fields are valid,
missing, ``null`` or of the wrong type; good and bad CVE ids, repeated
ones included; known, unknown and non-string reference sources with
repeated URLs; ``exploit`` flags that are not true, false or null; bad
categories, bool, float and string labels; valid, bad and repeated
stamps, stamps outside years 1-9999 in UTC among the bad; inline
``references`` of any shape, which neither version reads; and now and
then a line that is not a JSON object. They must return equal records
and log the same warnings, or raise the same exception type with the
same message.

Some label lines are rendered as the store writes them (``compact_json``,
keys in store order), so ``load_labels`` reads them without the JSON
decoder; the near misses of that form below must be decoded as JSON, and
still load as the reference loads them.
"""

import json
import logging
from contextlib import contextmanager

import pytest
from hypothesis import event, given, settings, strategies as st

from vulnrank import feeds

import feeds_reference

MISSING = object()  # the field is left out
DUPLICATE = object()  # the id of the feed's first record
IDS = [f"CVE-2020-{n:04d}" for n in range(1, 13)] + ["CVE-2021-123456"]
WRONG = st.sampled_from([True, False, 0, 1, 1.5, "x", [], {}, ["a"], {"a": 1}])
ABSENT = st.sampled_from([MISSING, None])


def optional(valid):
    return st.one_of(valid, valid, ABSENT)


def bad(*values):
    """A field value a loader must reject: absent, null, of another type,
    or one of ``values``."""
    return st.one_of(ABSENT, ABSENT, WRONG, *([st.sampled_from(values)] if values else []))


BAD_ID = bad("CVE-20-1", "CVE-2020-0001\n", "CVE-\u0662\u0660\u0662\u0660-0001", "cve-2020-0001", "")
SOURCE = st.one_of(
    st.sampled_from(["ExploitDB", "Metasploit", "GitHub", "Other"]),
    st.sampled_from(["PacketStorm", "exploitdb", MISSING, None, ["GitHub"], {"GitHub": 1}, 5, True]),
)
EXPLOIT = st.sampled_from([True, False, MISSING, None])
URL = st.sampled_from(["https://x/1", "https://x/2", "https://x/3"])
BAD_URL = bad("")
VECTOR = st.sampled_from([
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", "AV:P/AC:H/PR:H/UI:R/S:C/C:L/I:N/A:N",
    " AV:L/AC:L/PR:L/UI:N/S:U/C:N/I:N/A:N ",
])
# 0, 1 and -0.0 are equal to false and true as dict keys.
SCORE = st.sampled_from([0, 1, 1.0, -0.0, 0.3, 7, 7.5, 10]) | st.integers(0, 100).map(lambda tenths: tenths / 10)
STAMPS = st.sampled_from(["2021-01-01T00:00:00Z", "2021-01-01T00:00:00", "2021-06-01T12:00:00+02:00"])
INLINE_REF = st.fixed_dictionaries({"url": URL, "source": SOURCE, "exploit": EXPLOIT})

# Per feed: how each field of a valid record is drawn, and how a faulty
# value of it is. Ids of the CVE and context feeds are drawn apart, since
# a repeat is a fault there.
VALID = {
    "cves": {
        "description": st.text(max_size=5),
        "vector": optional(VECTOR),
        "score": optional(SCORE),
        "references": st.just(MISSING) | st.lists(INLINE_REF, max_size=3),
    },
    "refs": {"cve": st.sampled_from(IDS[:3]), "url": URL, "source": SOURCE, "exploit": EXPLOIT},
    "labels": {
        "cve": st.sampled_from(IDS[:3]),
        "utility": st.sampled_from([0, 1, 2]),
        "opportune": st.sampled_from([0, 1]),
        "labeler": st.sampled_from(["SME", "Model"]),
        "ts": STAMPS,
    },
    "context": {
        "exposure": st.sampled_from(["Public", "Private"]),
        "criticality": st.sampled_from(["Low", "Medium", "High"]),
    },
}
FAULTS = {
    "cves": {
        "id": st.one_of(st.just(DUPLICATE), st.just(DUPLICATE), BAD_ID),
        "description": bad(),
        "vector": bad("AV:N/AC:L", "AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H/E:F", "AV:X", ""),
        "score": bad(True, False, 7.25, 0.05, 1e-7, -1, 11, 10.5, float("nan"), "7.5"),
        # Neither loader reads it: a line with only this "fault" must load alike.
        "references": st.one_of(
            st.sampled_from(
                [None, None, [], "", "x", 0, 2.5, True, ["url"], [5], {"url": "https://x/1"}]
            ),
            st.lists(st.fixed_dictionaries({"url": BAD_URL, "source": SOURCE}), min_size=1, max_size=2),
        ),
    },
    "refs": {"cve": BAD_ID, "url": BAD_URL, "exploit": st.sampled_from(["false", 0, 1, [], [0]])},
    "labels": {
        "cve": BAD_ID,
        "utility": bad(3, -1, 1.0, "1"),
        "opportune": bad(2, 1.0, "0"),
        "labeler": bad("Bot", "sme"),
        "ts": bad(
            "2021-13-01", "soon", "2021-01-01T00:00:00ZZ",
            "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
            # In the store's own stamp form, so read without the decoder.
            "2021-13-01T00:00:00Z", "0000-12-31T23:59:59Z", "2021-02-29T00:00:00Z",
        ),
    },
    "context": {
        "cve": st.one_of(st.just(DUPLICATE), st.just(DUPLICATE), BAD_ID),
        "exposure": bad("DMZ", "public"),
        "criticality": bad("Critical"),
    },
}
ID_FIELD = {"cves": "id", "context": "cve"}
LOADERS = {
    "cves": "load_cve_records",
    "refs": "load_exploit_refs",
    "labels": "load_labels",
    "context": "load_asset_context",
}


def present(value):
    """The value without its absent fields, nested ones included."""
    if isinstance(value, dict):
        return {k: present(v) for k, v in value.items() if v is not MISSING}
    if isinstance(value, list):
        return [present(v) for v in value]
    return value


STORE_KEYS = ("cve", "utility", "opportune", "labeler", "ts")


def store_form(record: dict) -> str:
    """``record`` as ``compact_json`` renders it with the store's keys
    first, in the store's order, and any other key after them."""
    return feeds.compact_json({**{k: record[k] for k in STORE_KEYS if k in record}, **record})


@st.composite
def feeds_for(draw, kind: str) -> bytes:
    """A feed of valid records; most feeds then get one line with faulty
    fields or a line that is not a JSON object."""
    count = draw(st.integers(1, 8))
    records = [draw(st.fixed_dictionaries(VALID[kind])) for _ in range(count)]
    if kind in ID_FIELD:
        ids = draw(st.lists(st.sampled_from(IDS), min_size=count, max_size=count, unique=True))
        for record, cve_id in zip(records, ids):
            record[ID_FIELD[kind]] = cve_id
    # Label lines are rendered one way or the other, each on its own draw.
    render = st.sampled_from([json.dumps, store_form] if kind == "labels" else [json.dumps])
    lines = [draw(render)(present(record)) for record in records]
    fault = draw(st.sampled_from(["none", "fields", "fields", "fields", "line"]))
    at = draw(st.integers(0, count - 1))
    if fault == "fields":
        # One faulty field, or each field faulty by a coin toss: several
        # faults on one line show which of them a loader checks first.
        fields = sorted(FAULTS[kind])
        names = [draw(st.sampled_from(fields))]
        if draw(st.integers(0, 2)):
            names = [name for name in fields if draw(st.booleans())] or names
        faulty = dict(records[at])
        for name in names:
            faulty[name] = draw(FAULTS[kind][name])
            if faulty[name] is DUPLICATE:
                faulty[name] = records[0][ID_FIELD[kind]]
                at = max(at, min(1, count - 1))
        lines[at] = draw(render)(present(faulty))
    elif fault == "line":
        lines[at] = draw(st.sampled_from(["[]", "5", "not json", "", "{}"]))
    event(f"fault: {fault}")
    return ("\n".join(lines) + "\n").encode("utf-8")


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def warnings_logged():
    handler = _Messages()
    logger = logging.getLogger("vulnrank.feeds")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


def outcome(loader, path):
    """What ``loader`` returns (as its repr) and logs, or the error it raises."""
    with warnings_logged() as messages:
        try:
            result = repr(loader(path))
        except Exception as exc:  # the error is the outcome
            return None, (type(exc).__name__, str(exc)), messages
    return result, None, messages


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_matches_reference(tmp_path_factory, kind, data):
    path = tmp_path_factory.getbasetemp() / f"loader_differential_{kind}.jsonl"
    path.write_bytes(data.draw(feeds_for(kind)))
    name = LOADERS[kind]
    got = outcome(getattr(feeds, name), path)
    expected = outcome(getattr(feeds_reference, name), path)
    event(expected[1][0] if expected[1] else "loaded")
    assert got == expected


@pytest.mark.parametrize(
    "references",
    [None, [], "", "x", {}, 0, 2.5, True, False, ["url"], [5], [None], [[]],
     {"url": "https://x/1"}, [{"url": 5}], [{"source": "GitHub"}], [{"url": "https://x/1"}, 5],
     [{"url": "https://x/1", "source": "PacketStorm", "exploit": True}]],
    ids=repr,
)
def test_every_inline_reference_shape_loads(tmp_path, references):
    # Exploit references come only from the reference feed: whatever the
    # shape, both versions load the record as if the key were absent and
    # log nothing.
    path = tmp_path / "cves.jsonl"
    record = {"id": "CVE-2020-0001", "description": "a", "references": references}
    path.write_text(json.dumps(record) + "\n")
    got = outcome(feeds.load_cve_records, path)
    assert got == outcome(feeds_reference.load_cve_records, path)
    assert got == (repr([feeds.CveRecord("CVE-2020-0001", "a")]), None, [])


STORE_LINE = '{"cve":"CVE-2020-0001","utility":1,"opportune":0,"labeler":"SME","ts":"2021-01-01T00:00:00Z"}'
# Lines close to the store's own form that the pattern must not match; the
# JSON path reads each, and the reference says what that must give.
NEAR_MISSES = {
    "utility 3": STORE_LINE.replace('"utility":1', '"utility":3'),
    "utility true": STORE_LINE.replace('"utility":1', '"utility":true'),
    "utility 1.0": STORE_LINE.replace('"utility":1', '"utility":1.0'),
    "opportune 2": STORE_LINE.replace('"opportune":0', '"opportune":2'),
    "labeler sme": STORE_LINE.replace('"SME"', '"sme"'),
    "escaped cve": STORE_LINE.replace('"CVE-', '"\\u0043VE-'),
    "escaped ts": STORE_LINE.replace('"2021-', '"\\u0032021-'),
    "escaped key": STORE_LINE.replace('"labeler"', '"label\\u0065r"'),
    "extra key": STORE_LINE[:-1] + ',"note":"x"}',
    "reordered keys": '{"utility":1,"cve":"CVE-2020-0001","opportune":0,"labeler":"SME","ts":"2021-01-01T00:00:00Z"}',
    "duplicate cve first": '{"cve":"CVE-2020-0009",' + STORE_LINE[1:],
    "duplicate cve last": STORE_LINE[:-1] + ',"cve":"CVE-2020-0009"}',
    "duplicate cve bad": STORE_LINE[:-1] + ',"cve":"CVE-20-9"}',
    "offset stamp": STORE_LINE.replace("00:00:00Z", "02:00:00+02:00"),
    "naive stamp": STORE_LINE.replace("00:00:00Z", "00:00:00"),
    "fractional stamp": STORE_LINE.replace("00:00:00Z", "00:00:00.5Z"),
    "spaced": json.dumps(json.loads(STORE_LINE)),
    "leading space": " " + STORE_LINE,
    "trailing spaces": STORE_LINE + "  ",
    "trailing tab": STORE_LINE + "\t",
    "crlf": STORE_LINE + "\r",
    "short id": STORE_LINE.replace("0001", "001"),
}


@pytest.mark.parametrize("ending", ["\n", ""], ids=["lf", "eof"])
@pytest.mark.parametrize("line", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_of_the_store_form_load_as_json(tmp_path, line, ending):
    data = f"{STORE_LINE}\n{line}{ending}".encode("utf-8")
    store_form, near_miss = data.splitlines(keepends=True)
    assert feeds._STORE_LINE(store_form) is not None
    assert feeds._STORE_LINE(near_miss) is None
    path = tmp_path / "labels.jsonl"
    path.write_bytes(data)
    assert outcome(feeds.load_labels, path) == outcome(feeds_reference.load_labels, path)


@pytest.mark.parametrize(
    "stamp", ["2021-13-01T00:00:00Z", "2021-02-29T00:00:00Z", "2021-01-01T24:00:00Z", "0000-12-31T23:59:59Z"]
)
def test_bad_stamp_in_the_store_form_fails_at_its_line(tmp_path, stamp):
    # The pattern admits any digits in a stamp; parse_ts still decides.
    line = STORE_LINE.replace("2021-01-01T00:00:00Z", stamp).encode("utf-8")
    assert feeds._STORE_LINE(line) is not None
    path = tmp_path / "labels.jsonl"
    path.write_bytes(STORE_LINE.encode("utf-8") + b"\n" + line + b"\n")
    got = outcome(feeds.load_labels, path)
    assert got == outcome(feeds_reference.load_labels, path)
    assert got[1][1].startswith(f"{path}:2: ts '{stamp}' ")
