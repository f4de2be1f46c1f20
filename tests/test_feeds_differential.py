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

Some lines of every feed are rendered in the loader's canonical form
(``compact_json``, keys in the loader's order), so the loader reads them
from the block scan's groups without the JSON decoder; the near misses of
each form below must be decoded as JSON, and still load as the reference
loads them. The loaders also run with blocks of a few dozen bytes or
fewer, so that lines straddle the blocks they are read in.
"""

import json
import logging
import string
from contextlib import contextmanager

from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import event, given, settings, strategies as st

from vulnrank import feeds
from vulnrank.cvss import parse_vector
from vulnrank.synth import write_cve_feed, write_ref_feed

import feeds_reference
from conftest import write_jsonl

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
        # Printable ASCII text is what the canonical form admits.
        "description": st.text(max_size=5) | st.text(string.printable[:-5], max_size=5),
        "vector": optional(VECTOR),
        "score": optional(SCORE),
        # Mostly absent, so that more lines are in the loader's canonical form.
        "references": st.just(MISSING) | st.just(MISSING) | st.lists(INLINE_REF, max_size=3),
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
# Each feed's loader, read whole, and its oracle in feeds_reference.
LOADERS = {
    "cves": (lambda path: list(feeds.iter_cve_records(path)), feeds_reference.load_cve_records),
    "refs": (feeds.load_exploit_refs, feeds_reference.load_exploit_refs),
    "labels": (lambda path: list(feeds.iter_label_rows(path)), feeds_reference.label_rows),
    "context": (feeds.load_asset_context, feeds_reference.load_asset_context),
}


def present(value):
    """The value without its absent fields, nested ones included."""
    if isinstance(value, dict):
        return {k: present(v) for k, v in value.items() if v is not MISSING}
    if isinstance(value, list):
        return [present(v) for v in value]
    return value


# Each loader's keys in the order of its canonical form, and that form.
KEY_ORDER = {
    "cves": ("id", "description", "vector", "score"),
    "refs": ("cve", "url", "source", "exploit"),
    "labels": ("cve", "utility", "opportune", "labeler", "ts"),
    "context": ("cve", "exposure", "criticality"),
}
FORMS = {
    "cves": feeds._CVE_LINE,
    "refs": feeds._REF_LINE,
    "labels": feeds._STORE_LINE,
    "context": feeds._CONTEXT_LINE,
}


def loader_form(kind: str, dumps=feeds.compact_json):
    """A renderer of ``kind``'s records as ``dumps`` writes them, with the
    loader's keys first, in its order, and any other key after."""

    def render(record: dict) -> str:
        return dumps({**{k: record[k] for k in KEY_ORDER[kind] if k in record}, **record})

    return render


def decoded(kind: str, data: bytes) -> list[bool]:
    """Per line of ``data``, whether the block scan leaves it to the JSON decoder."""
    return [raw != b"" for *_, raw in feeds._line_scan(FORMS[kind])(data)]


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
    # Lines are rendered one way or the other, each on its own draw.
    render = st.sampled_from([json.dumps, loader_form(kind)])
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
    loader, reference = LOADERS[kind]
    block_bytes = data.draw(st.sampled_from([feeds.BLOCK_BYTES, 1, 16, 48]), label="block bytes")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds, "BLOCK_BYTES", block_bytes)
        got = outcome(loader, path)
    expected = outcome(reference, path)
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
    loader, reference = LOADERS["cves"]
    got = outcome(loader, path)
    assert got == outcome(reference, path)
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
    assert decoded("labels", data) == [False, True]
    path = tmp_path / "labels.jsonl"
    path.write_bytes(data)
    load, reference = LOADERS["labels"]
    assert outcome(load, path) == outcome(reference, path)


@pytest.mark.parametrize(
    "stamp", ["2021-13-01T00:00:00Z", "2021-02-29T00:00:00Z", "2021-01-01T24:00:00Z", "0000-12-31T23:59:59Z"]
)
def test_bad_stamp_in_the_store_form_fails_at_its_line(tmp_path, stamp):
    # The pattern admits any digits in a stamp; parse_ts still decides.
    line = STORE_LINE.replace("2021-01-01T00:00:00Z", stamp).encode("utf-8")
    assert decoded("labels", line) == [False]
    path = tmp_path / "labels.jsonl"
    path.write_bytes(STORE_LINE.encode("utf-8") + b"\n" + line + b"\n")
    load, reference = LOADERS["labels"]
    got = outcome(load, path)
    assert got == outcome(reference, path)
    assert got[1][1].startswith(f"{path}:2: ts '{stamp}' ")


VECTOR_TEXT = "AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
CVE_LINE = '{"id":"CVE-2020-0002","description":"a b","vector":"%s","score":7.5}' % VECTOR_TEXT
REF_LINE = '{"cve":"CVE-2020-0002","url":"https://x/1","source":"GitHub","exploit":true}'
CONTEXT_LINE = '{"cve":"CVE-2020-0002","exposure":"Public","criticality":"High"}'
# A canonical first line, whose id the lines after it do not repeat.
FIRST = {
    "cves": CVE_LINE.replace("0002", "0001"),
    "refs": REF_LINE.replace("0002", "0001"),
    "context": CONTEXT_LINE.replace("0002", "0001"),
}
# Per form: lines close to it that the scan must leave to the JSON decoder.
FORM_NEAR_MISSES = {
    "cves": {
        "spaced": json.dumps(json.loads(CVE_LINE)),
        "reordered keys": '{"description":"a b","id":"CVE-2020-0002","score":7.5}',
        "score before vector": '{"id":"CVE-2020-0002","description":"a b","score":7.5,"vector":"%s"}' % VECTOR_TEXT,
        "extra key": CVE_LINE[:-1] + ',"note":"x"}',
        "escaped slash": CVE_LINE.replace("AV:N/AC:L", "AV:N\\/AC:L"),
        "escaped letter": CVE_LINE.replace('"a b"', '"\\u0041 b"'),
        "escaped quote": CVE_LINE.replace('"a b"', '"a \\" b"'),
        "non-ASCII": CVE_LINE.replace('"a b"', '"é b"'),
        "DEL": CVE_LINE.replace('"a b"', '"a\x7fb"'),
        "CR inside": CVE_LINE.replace(',"score"', ',\r"score"'),
        "crlf": CVE_LINE + "\r",
        "score null": CVE_LINE.replace("7.5", "null"),
        "score 7.25": CVE_LINE.replace("7.5", "7.25"),
        "score 7.50": CVE_LINE.replace("7.5", "7.50"),
        "score 1e1": CVE_LINE.replace("7.5", "1e1"),
        "score -0.0": CVE_LINE.replace("7.5", "-0.0"),
        "score 07": CVE_LINE.replace("7.5", "07"),
        "score 100": CVE_LINE.replace("7.5", "100"),
        "score string": CVE_LINE.replace("7.5", '"7.5"'),
        "empty vector": CVE_LINE.replace(VECTOR_TEXT, ""),
        "vector null": CVE_LINE.replace(f'"{VECTOR_TEXT}"', "null"),
        "description null": CVE_LINE.replace('"a b"', "null"),
        "bad id": CVE_LINE.replace("CVE-2020-0002", "CVE-20-2"),
    },
    "refs": {
        "spaced": json.dumps(json.loads(REF_LINE)),
        "reordered keys": '{"url":"https://x/1","cve":"CVE-2020-0002","source":"GitHub","exploit":true}',
        "extra key": REF_LINE[:-1] + ',"note":"x"}',
        "escaped slash": REF_LINE.replace("https://", "https:\\/\\/"),
        "escaped letter": REF_LINE.replace('"GitHub"', '"\\u0047itHub"'),
        "non-ASCII": REF_LINE.replace("x/1", "x/é"),
        "CR inside": REF_LINE.replace(',"exploit"', ',\r"exploit"'),
        "crlf": REF_LINE + "\r",
        "exploit null": REF_LINE.replace("true", "null"),
        "exploit absent": REF_LINE.replace(',"exploit":true', ""),
        "exploit string": REF_LINE.replace("true", '"true"'),
        "exploit 1": REF_LINE.replace("true", "1"),
        "empty url": REF_LINE.replace("https://x/1", ""),
        "source null": REF_LINE.replace('"GitHub"', "null"),
        "source absent": REF_LINE.replace(',"source":"GitHub"', ""),
    },
    "context": {
        "spaced": json.dumps(json.loads(CONTEXT_LINE)),
        "reordered keys": '{"exposure":"Public","cve":"CVE-2020-0002","criticality":"High"}',
        "extra key": CONTEXT_LINE[:-1] + ',"note":"x"}',
        "repeated cve": CONTEXT_LINE[:-1] + ',"cve":"CVE-2020-0001"}',
        "escaped letter": CONTEXT_LINE.replace('"Public"', '"\\u0050ublic"'),
        "non-ASCII": CONTEXT_LINE.replace('"Public"', '"Publïc"'),
        "CR inside": CONTEXT_LINE.replace(',"criticality"', ',\r"criticality"'),
        "crlf": CONTEXT_LINE + "\r",
        "lowercase": CONTEXT_LINE.replace('"Public"', '"public"'),
        "criticality null": CONTEXT_LINE.replace('"High"', "null"),
        "critical": CONTEXT_LINE.replace('"High"', '"Critical"'),
    },
}
# Per form: lines in it that still load only as the reference does.
FORM_EDGES = {
    "cves": {
        "padded vector": CVE_LINE.replace(VECTOR_TEXT, f" {VECTOR_TEXT} "),
        "prefixed vector": CVE_LINE.replace(VECTOR_TEXT, "CVSS:3.1/" + VECTOR_TEXT),
        "bad vector": CVE_LINE.replace("AV:N", "AV:X"),
        "short vector": CVE_LINE.replace(VECTOR_TEXT, "AV:N/AC:L"),
        "score 10": CVE_LINE.replace("7.5", "10"),
        "score 10.0": CVE_LINE.replace("7.5", "10.0"),
        "score 10.5": CVE_LINE.replace("7.5", "10.5"),
        "score 0": CVE_LINE.replace("7.5", "0"),
        "score 0.3": CVE_LINE.replace("7.5", "0.3"),
        "no score": CVE_LINE.replace(',"score":7.5', ""),
        "no vector": CVE_LINE.replace(f',"vector":"{VECTOR_TEXT}"', ""),
        "neither": '{"id":"CVE-2020-0002","description":"a b"}',
        "empty description": CVE_LINE.replace('"a b"', '""'),
        "punctuation": CVE_LINE.replace('"a b"', "\"it's a/b {x} [y] ~!\""),
        "duplicate id": FIRST["cves"],
    },
    "refs": {
        "unknown source": REF_LINE.replace("GitHub", "PacketStorm"),
        "empty source": REF_LINE.replace("GitHub", ""),
        "exploit false": REF_LINE.replace("true", "false"),
        "spaces in url": REF_LINE.replace("https://x/1", " x 1 "),
        "repeated url": FIRST["refs"].replace("true", "false"),
    },
    "context": {
        "private low": CONTEXT_LINE.replace("Public", "Private").replace("High", "Low"),
        "duplicate id": FIRST["context"],
        "long id": CONTEXT_LINE.replace("CVE-2020-0002", "CVE-2020-1234567"),
    },
}
FORM_CASES = [
    pytest.param(kind, line, canonical, id=f"{kind}: {name}")
    for canonical, cases in ((False, FORM_NEAR_MISSES), (True, FORM_EDGES))
    for kind, lines in cases.items()
    for name, line in lines.items()
]


@pytest.mark.parametrize("ending", ["\n", ""], ids=["lf", "eof"])
@pytest.mark.parametrize("kind, line, canonical", FORM_CASES)
def test_lines_near_each_form_load_as_the_reference(tmp_path, kind, line, canonical, ending):
    data = f"{FIRST[kind]}\n{line}{ending}".encode("utf-8")
    assert decoded(kind, data) == [False, not canonical]
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(data)
    loader, reference = LOADERS[kind]
    assert outcome(loader, path) == outcome(reference, path)


def cve_line(n: int, vector: str = VECTOR_TEXT) -> str:
    return f'{{"id":"CVE-2020-{n:04d}","description":"d","vector":"{vector}"}}'


def context_line(n: int) -> str:
    return f'{{"cve":"CVE-2020-{n:04d}","exposure":"Private","criticality":"Low"}}'


def store_line(n: int, stamp: str = "2021-01-01T00:00:00Z") -> str:
    return STORE_LINE.replace("0001", f"{n:04d}").replace("2021-01-01T00:00:00Z", stamp)


def ref_line(n: int) -> str:
    return REF_LINE.replace("0002", f"{n:04d}")


# Five good lines, then a sixth with the error, in the form or not; the
# lines of a feed have equal lengths, give or take the error's few bytes.
THIRD_BLOCK_ERRORS = {
    "duplicate CVE id": ("cves", cve_line, cve_line(3), True, "duplicate CVE id CVE-2020-0003"),
    "AV:X": ("cves", cve_line, cve_line(6, VECTOR_TEXT.replace("AV:N", "AV:X")), True, "bad vector: "),
    "duplicate context": (
        "context", context_line, context_line(2), True, "duplicate context entry for CVE-2020-0002"
    ),
    "bad stamp": (
        "labels", store_line, store_line(6, "2021-13-01T00:00:00Z"), True, "ts '2021-13-01T00:00:00Z' "
    ),
    "JSON path": (
        "refs", ref_line, json.dumps({**json.loads(ref_line(6)), "exploit": "yes"}), False,
        "exploit must be true or false",
    ),
}


@pytest.mark.parametrize(
    "kind, good, bad_line, canonical, message", THIRD_BLOCK_ERRORS.values(), ids=THIRD_BLOCK_ERRORS
)
def test_an_error_in_the_third_block_names_its_line(
    tmp_path, monkeypatch, kind, good, bad_line, canonical, message
):
    lines = [good(n) for n in range(1, 6)] + [bad_line]
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    assert decoded(kind, data) == [False] * 5 + [not canonical]
    # A block reads a little under two lines and is extended to the end of
    # the second, so block k holds lines 2k-1 and 2k: line 6 is in the third.
    monkeypatch.setattr(feeds, "BLOCK_BYTES", 2 * len(lines[0]) - 3)
    path = tmp_path / f"{kind}.jsonl"
    path.write_bytes(data)
    loader, reference = LOADERS[kind]
    got = outcome(loader, path)
    assert got == outcome(reference, path)
    assert got[1][1].startswith(f"{path}:6: ") and message in got[1][1], got


@pytest.mark.parametrize("block_bytes", [feeds.BLOCK_BYTES, 1, 30], ids=lambda n: f"{n}B")
@pytest.mark.parametrize("last", [cve_line(9), json.dumps(json.loads(cve_line(9)))], ids=["form", "json"])
def test_a_last_line_without_a_newline_loads(tmp_path, monkeypatch, block_bytes, last):
    monkeypatch.setattr(feeds, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "cves.jsonl"
    path.write_bytes(f"{cve_line(1)}\n{cve_line(2)}\n{last}".encode("utf-8"))
    loader, reference = LOADERS["cves"]
    got = outcome(loader, path)
    assert got == outcome(reference, path)
    assert got[0].count("CveRecord(") == 3


@pytest.mark.parametrize("block_bytes", [feeds.BLOCK_BYTES, 1, 100], ids=lambda n: f"{n}B")
def test_blank_lines_mid_block_are_skipped_and_counted(tmp_path, monkeypatch, block_bytes):
    # Blank and whitespace-only lines sit between lines in the form; the
    # error after them still names its line.
    monkeypatch.setattr(feeds, "BLOCK_BYTES", block_bytes)
    blanks = ["", "  ", "\t\r", "\x0b", "\r", " \xa0 "]
    lines = [item for n, blank in enumerate(blanks, 1) for item in (context_line(n), blank)]
    lines.append(context_line(3))
    path = tmp_path / "context.jsonl"
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    assert decoded("context", path.read_bytes()) == [False, True] * len(blanks) + [False]
    got = outcome(feeds.load_asset_context, path)
    assert got == outcome(feeds_reference.load_asset_context, path)
    assert got[1] == ("DuplicateId", f"{path}:13: duplicate context entry for CVE-2020-0003")


@pytest.mark.parametrize("block_bytes", [feeds.BLOCK_BYTES, 1, 40], ids=lambda n: f"{n}B")
def test_a_cut_utf8_sequence_at_eof_is_unexpected_end_of_data(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(feeds, "BLOCK_BYTES", block_bytes)
    path = tmp_path / "refs.jsonl"
    path.write_bytes(f"{ref_line(1)}\n{ref_line(2)}\n".encode("utf-8") + b'{"cve":"CVE-2020-0003","url":"\xc3')
    got = outcome(feeds.load_exploit_refs, path)
    assert got == outcome(feeds_reference.load_exploit_refs, path)
    assert got[1][0] == "ParseError" and got[1][1].startswith(f"{path}:3: not UTF-8 ("), got
    assert "unexpected end of data" in got[1][1]


# Records in each loader's documented key order, with every string printable
# ASCII without '"' or '\': the values each canonical form admits.
FORM_TEXT = st.text(st.sampled_from([chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\']), max_size=12)
FORM_ID = st.sampled_from(IDS) | st.builds("CVE-{}-{:04d}".format, st.integers(1999, 2030), st.integers(0, 10**6))
FORM_TIME = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(timezone.utc))
FORM_FIELDS = {
    "cves": st.fixed_dictionaries(
        {"id": FORM_ID, "description": FORM_TEXT},
        optional={"vector": VECTOR, "score": st.integers(0, 10) | st.integers(0, 100).map(lambda n: n / 10)},
    ),
    "refs": st.fixed_dictionaries({
        "cve": FORM_ID,
        "url": FORM_TEXT.filter(bool),
        "source": SOURCE.filter(lambda source: isinstance(source, str)) | FORM_TEXT,
        "exploit": st.booleans(),
    }),
    "labels": st.fixed_dictionaries({
        "cve": FORM_ID,
        "utility": st.sampled_from([0, 1, 2]),
        "opportune": st.sampled_from([0, 1]),
        "labeler": st.sampled_from(["SME", "Model"]),
        "ts": FORM_TIME.map(feeds.format_ts),
    }),
    "context": st.fixed_dictionaries({"cve": FORM_ID, **VALID["context"]}),
}
FORM_RECORDS = {
    kind: st.lists(
        fields.map(lambda record, kind=kind: {k: record[k] for k in KEY_ORDER[kind] if k in record}),
        max_size=8,
        unique_by=(lambda record, key=ID_FIELD[kind]: record[key]) if kind in ID_FIELD else None,
    )
    for kind, fields in FORM_FIELDS.items()
}
# Each way of spacing a line, and whether the block scan reads it from its
# groups: only the compact form is; every other spacing is decoded.
SPACINGS = {
    "compact": (feeds.compact_json, True),
    "json.dumps": (json.dumps, False),
    "spaced commas": (json.JSONEncoder(separators=(", ", ":")).encode, False),
    "spaced colons": (json.JSONEncoder(separators=(",", ": ")).encode, False),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_compact_lines_are_scanned_and_any_other_spacing_is_decoded(tmp_path_factory, kind, data):
    records = data.draw(FORM_RECORDS[kind])
    path = tmp_path_factory.getbasetemp() / f"spacing_{kind}.jsonl"
    loader, reference = LOADERS[kind]
    outcomes = set()
    for dumps, scanned in SPACINGS.values():
        feed = "".join(loader_form(kind, dumps)(record) + "\n" for record in records).encode("utf-8")
        assert decoded(kind, feed) == [not scanned] * len(records)
        path.write_bytes(feed)
        got = outcome(loader, path)
        assert got == outcome(reference, path)
        outcomes.add(repr(got))
    assert len(outcomes) == 1


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_writer_writes_a_scanned_form(tmp_path_factory, data):
    """What vulnrank's writers and the tests' write_jsonl write is read
    without the JSON decoder: a writer that drifts off the compact form fails."""
    root = tmp_path_factory.getbasetemp()
    cves, refs = data.draw(FORM_RECORDS["cves"]), data.draw(FORM_RECORDS["refs"])
    records = [
        feeds.CveRecord(
            row["id"],
            row["description"],
            parse_vector(VECTOR_TEXT) if "vector" in row else None,
            Decimal(str(row["score"])) if "score" in row else None,
        )
        for row in cves
    ]
    write_cve_feed(root / "synth_cves.jsonl", records)
    write_ref_feed(root / "synth_refs.jsonl", refs)
    judgment = st.builds(feeds.Judgment, st.sampled_from([0, 1, 2]), st.sampled_from([0, 1]),
                         st.sampled_from(feeds.Labeler))
    store = data.draw(st.dictionaries(FORM_ID, st.tuples(judgment, FORM_TIME), max_size=8))
    judgments, stamps = {k: j for k, (j, _) in store.items()}, {k: t for k, (_, t) in store.items()}
    feeds.write_labels(root / "store.jsonl", judgments, stamps)
    written = {"synth_cves": "cves", "synth_refs": "refs", "store": "labels"}
    for kind in LOADERS:
        write_jsonl(root / f"jsonl_{kind}.jsonl", data.draw(FORM_RECORDS[kind]))
        written[f"jsonl_{kind}"] = kind
    for name, kind in written.items():
        feed = (root / f"{name}.jsonl").read_bytes()
        assert not any(decoded(kind, feed)), name
    assert list(feeds.iter_cve_records(root / "synth_cves.jsonl")) == records
