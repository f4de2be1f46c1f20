"""Feed-line fuzzing: any CVE feed either scores, with every ``cvss``
column equal to the published score or to the reference score of the
vector, or fails the way main reports it, with one ``error:`` line.

Lines are JSON records whose ``score`` is any JSON value and whose
``vector`` is drawn from a token soup, records with one byte that is not
UTF-8, and raw bytes.
"""

import io
import json
from contextlib import redirect_stderr
from decimal import Decimal

from hypothesis import event, given, settings, strategies as st

from vulnrank.cli import main

from cvss_reference import reference_base_score

METRICS = {
    "AV": "NALP", "AC": "LH", "PR": "NLH", "UI": "NR", "S": "UC", "C": "NLH", "I": "NLH", "A": "NLH",
}
TOKENS = [f"{key}:{letter}" for key, letters in METRICS.items() for letter in letters]
TOKENS += ["CVSS:3.1", "CVSS:3.0", "E:F", "AV:X", "AV", "AV:", ":", "", " "]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=5,
)
# Published scores near the accepted forms: ints, tenths, and floats
# with more places, besides any JSON value at all.
SCORES = (
    st.integers(-1, 11)
    | st.integers(0, 100).map(lambda tenths: tenths / 10)
    | st.floats(-1, 11)
    | JSON_VALUES
)
WHOLE_VECTOR = st.tuples(*(st.sampled_from(letters) for letters in METRICS.values())).flatmap(
    lambda picked: st.permutations([f"{key}:{letter}" for key, letter in zip(METRICS, picked)])
)
VECTORS = (
    WHOLE_VECTOR.map("/".join)
    | WHOLE_VECTOR.map(lambda tokens: "/".join(["CVSS:3.1", *tokens]))
    | st.lists(st.sampled_from(TOKENS), max_size=10).map("/".join)
    | JSON_VALUES
)
NOT_UTF8 = st.sampled_from([b"\xe9", b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"])

RECORD_COUNT = 6
LABELED = {f"CVE-2020-{i:04d}" for i in range(RECORD_COUNT)}
LABELS = "".join(
    json.dumps({"cve": cve_id, "utility": 1, "opportune": 0, "labeler": "SME",
                "ts": "2024-01-01T00:00:00Z"}) + "\n"
    for cve_id in sorted(LABELED)
)


@st.composite
def feed_lines(draw):
    lines = []
    for i in range(draw(st.integers(1, RECORD_COUNT))):
        record = {"id": f"CVE-2020-{i:04d}", "description": draw(st.text(max_size=20))}
        record |= draw(st.fixed_dictionaries({}, optional={"vector": VECTORS, "score": SCORES}))
        line = json.dumps(record, ensure_ascii=draw(st.booleans())).encode("utf-8")
        kind = draw(st.sampled_from(["record"] * 6 + ["bad byte", "raw"]))
        if kind == "bad byte":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(NOT_UTF8) + line[at:]
        elif kind == "raw":
            line = draw(st.binary(max_size=30))
        lines.append(line)
    return lines


def expected_cvss(record: dict) -> str:
    vector = record.get("vector")
    if vector is None:
        return format(Decimal(str(record["score"])), ".1f")
    body = vector.strip().removeprefix("CVSS:3.1/")
    letters = dict(token.split(":") for token in body.split("/"))
    score = reference_base_score(*(letters[key] for key in METRICS))
    return format(score, ".1f")


def loaded(path) -> list[dict]:
    """The records of a feed that loaded, split and decoded as the loader does."""
    lines = (line.decode("utf-8") for line in path.read_bytes().split(b"\n"))
    return [json.loads(line) for line in lines if line.strip()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=feed_lines())
def test_feed_scores_or_exits_2(tmp_path_factory, lines):
    root = tmp_path_factory.getbasetemp()
    cves, labels, out = (root / f"fuzz_{name}" for name in ("cves.jsonl", "labels.jsonl", "out"))
    cves.write_bytes(b"\n".join(lines) + b"\n")
    labels.write_text(LABELS)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code = main(["score", "--cves", str(cves), "--labels", str(labels), "--output", str(out)])
    err = stderr.getvalue()
    event(f"exit {code}")  # shown by pytest --hypothesis-show-statistics

    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if code == 5:
            # Every line loaded, and one record carries neither a vector
            # nor a score, or has an id the label store does not hold.
            assert any(
                (r.get("vector") is None and r.get("score") is None) or r["id"] not in LABELED
                for r in loaded(cves)
            ), err
        else:
            assert code == 2, (code, err)
        return

    records = {record["id"]: record for record in loaded(cves)}
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert sorted(row["cve_id"] for row in rows) == sorted(records)
    for row in rows:
        assert row["cvss"] == expected_cvss(records[row["cve_id"]]), (row, records[row["cve_id"]])
