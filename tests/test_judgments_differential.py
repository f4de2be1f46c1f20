"""Differential test of the label store's fold against ``feeds_reference``.

``load_judgments`` and the reference merge of the reference rows
(``merge_label_rows(label_rows(...))``) read the same generated store: a few CVEs with several rows each,
so most rows are superseded, and stamps drawn from a small set in which
``Z``, ``+02:00`` and naive forms name the same instant, so many rows
tie exactly. Lines are rendered in the store's canonical form or spaced
by ``json.dumps``, each on its own draw, and most stores get one bad
line. The readers must give the same ``(utility, opportune, labeler)``
and the same winning stamp, offset included, per id, in the same order,
or raise the same exception type with the same message. They run with
blocks of a few dozen bytes or fewer as well, so that lines straddle
the blocks they are read in. ``save_labels`` must write what the
reference merge of a stored file's rows and then the new rows gives.
"""

import json

import pytest
from hypothesis import event, given, settings, strategies as st

from vulnrank import feeds

import feeds_reference

MISSING = object()  # the field is left out
IDS = ["CVE-2020-0001", "CVE-2020-0002", "CVE-2021-123456"]
# 00:00Z, 02:00+02:00 and a naive 00:00 are one instant.
STAMPS = [
    "2021-01-01T00:00:00Z", "2021-01-01T02:00:00+02:00", "2021-01-01T00:00:00",
    "2021-06-01T00:00:00Z", "2020-12-31T23:59:59Z",
]
ROW = st.fixed_dictionaries({
    "cve": st.sampled_from(IDS),
    "utility": st.sampled_from([0, 1, 2]),
    "opportune": st.sampled_from([0, 1]),
    "labeler": st.sampled_from(["SME", "Model"]),
    "ts": st.sampled_from(STAMPS),
})
FAULTS = {
    "cve": st.sampled_from([MISSING, None, 5, "CVE-20-1", "cve-2020-0001", ""]),
    "utility": st.sampled_from([MISSING, None, 3, -1, 1.0, True, "1"]),
    "opportune": st.sampled_from([MISSING, None, 2, 1.0, False, "0"]),
    "labeler": st.sampled_from([MISSING, None, "Bot", "sme", 1]),
    # The last two are in the store's own stamp form.
    "ts": st.sampled_from([MISSING, None, 7, "soon", "2021-13-01T00:00:00Z", "0000-12-31T23:59:59Z"]),
}
KEYS = ("cve", "utility", "opportune", "labeler", "ts")


def canonical(row: dict) -> str:
    return feeds.compact_json({k: row[k] for k in KEYS if k in row})


def present(row: dict) -> dict:
    return {k: v for k, v in row.items() if v is not MISSING}


@st.composite
def stores(draw) -> bytes:
    rows = draw(st.lists(ROW, min_size=1, max_size=12))
    render = st.sampled_from([json.dumps, canonical])
    lines = [draw(render)(row) for row in rows]
    fault = draw(st.sampled_from(["none", "fields", "fields", "line"]))
    at = draw(st.integers(0, len(lines) - 1))
    if fault == "fields":
        faulty = dict(rows[at])
        for name in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True)):
            faulty[name] = draw(FAULTS[name])
        lines[at] = draw(render)(present(faulty))
    elif fault == "line":
        lines[at] = draw(st.sampled_from(["[]", "5", "not json", "", "{}", "\t"]))
    event(f"fault: {fault}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def outcome(read, path):
    """``read(path)`` as ``[(id, (utility, opportune, labeler), stamp)]``,
    each stamp in ISO form, or the error it raises."""
    try:
        judgments, stamps = read(path)
    except Exception as exc:  # the error is the outcome
        return None, (type(exc).__name__, str(exc))
    assert list(judgments) == list(stamps)
    return [
        (cve_id, (j.utility, j.opportune, j.labeler), stamps[cve_id].isoformat())
        for cve_id, j in judgments.items()
    ], None


def reference_merge(path):
    return feeds_reference.merge_label_rows(feeds_reference.label_rows(path))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_load_judgments_matches_the_reference_merge(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "judgments_differential.jsonl"
    path.write_bytes(data.draw(stores(), label="store"))
    block_bytes = data.draw(st.sampled_from([feeds.BLOCK_BYTES, 1, 16, 48]), label="block bytes")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feeds, "BLOCK_BYTES", block_bytes)
        got = outcome(feeds.load_judgments, path)
        judgments = feeds.load_judgments(path)[0] if got[1] is None else {}
    expected = outcome(reference_merge, path)
    event(expected[1][0] if expected[1] else "loaded")
    assert got == expected
    # Every value is one of the twelve shared judgments.
    assert {id(j) for j in judgments.values()} <= {id(j) for j in feeds._JUDGMENTS.values()}


def test_an_exact_tie_goes_to_the_later_line(tmp_path):
    # One instant in three spellings: the last line wins, in either form.
    rows = [
        {"cve": IDS[0], "utility": u, "opportune": 0, "labeler": "SME", "ts": ts}
        for u, ts in zip((0, 1, 2), STAMPS[:3])
    ]
    path = tmp_path / "labels.jsonl"
    path.write_text(canonical(rows[0]) + "\n" + json.dumps(rows[1]) + "\n" + canonical(rows[2]) + "\n")
    judgments, stamps = feeds.load_judgments(path)
    assert judgments == {IDS[0]: (2, 0, feeds.Labeler.SME)}
    assert stamps[IDS[0]].isoformat() == "2021-01-01T00:00:00+00:00"
    assert outcome(feeds.load_judgments, path) == outcome(reference_merge, path)


NEW_ROW = st.tuples(
    st.sampled_from(IDS),
    st.builds(
        feeds.Judgment,
        utility=st.sampled_from([0, 1, 2]),
        opportune=st.sampled_from([0, 1]),
        labeler=st.sampled_from(feeds.Labeler),
    ),
    st.sampled_from(STAMPS).map(lambda ts: feeds.parse_ts(ts, "ts")),
)


def rendered(judgments, stamps) -> bytes:
    """A folded store as compact_json writes each line, sorted by id."""
    return b"".join(
        feeds.compact_json({
            "cve": cve_id, "utility": utility, "opportune": opportune,
            "labeler": labeler.value, "ts": feeds.format_ts(stamps[cve_id]),
        }).encode() + b"\n"
        for cve_id, (utility, opportune, labeler) in sorted(judgments.items())
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_save_labels_writes_the_reference_merge(tmp_path_factory, data):
    # The stored rows, if there is a store, come first, then the new
    # rows in their order.
    path = tmp_path_factory.getbasetemp() / "save_differential.jsonl"
    path.unlink(missing_ok=True)
    stored = data.draw(st.none() | stores(), label="store")
    if stored is not None:
        path.write_bytes(stored)
    new_rows = data.draw(st.lists(NEW_ROW, max_size=8), label="rows")
    try:
        rows = feeds_reference.label_rows(path) if stored is not None else []
    except feeds.FeedError as exc:
        with pytest.raises(type(exc)) as raised:
            feeds.save_labels(path, new_rows)
        assert str(raised.value) == str(exc)
        assert path.read_bytes() == stored
        event("store refused")
        return
    feeds.save_labels(path, new_rows)
    event("saved")
    assert path.read_bytes() == rendered(*feeds_reference.merge_label_rows(rows + new_rows))
