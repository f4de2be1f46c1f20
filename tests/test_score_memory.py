"""The score path keeps only what it ranks: its memory grows per CVE by the
row and one id string, not by the feed's records or the store's lines;
rows share their threat Decimals and their labels, each one of the
twelve ``Judgment`` values, looked up, never constructed."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import vulnrank
from vulnrank import feeds
from vulnrank.cli import main

SRC = Path(vulnrank.__file__).resolve().parents[1]

VECTORS = (
    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    "CVSS:3.1/AV:L/AC:H/PR:L/UI:R/S:C/C:L/I:N/A:H",
    "CVSS:3.1/AV:A/AC:L/PR:H/UI:N/S:U/C:N/I:L/A:L",
)
WORDS = ("buffer", "overflow", "remote", "attacker", "crafted", "request", "header", "parser")
# Bytes of traced peak per added CVE. The streamed path takes about 278,
# on spaced and canonical feeds alike: a row is a named tuple, and a tuple
# subclass is allocated with one spare item. One whose rows each hold a
# five-field label record (a store fold that keeps a record per CVE)
# takes about 366, and one that also holds every CveRecord until scoring
# ends (a list of the CVE feed) about 544.
PER_CVE_BOUND = 320


# The block scan's canonical form of each feed.
FORMS = {"cves": feeds._CVE_LINE, "labels": feeds._STORE_LINE, "refs": feeds._REF_LINE,
         "context": feeds._CONTEXT_LINE}

# The peaks are taken in a new interpreter, so that what the process ran
# before cannot move them. Every id is interned, and the table of interned
# strings resizes each time a set number of strings has been added since
# its last resize; the run that holds its old and new arrays at once peaks
# about 1 MB higher. So the child first interns and keeps strings of its
# own, which leaves the table room for every id the runs add, and a first
# run grows the interpreter's module caches once.
CHILD = """
import json, sys, tracemalloc
import vulnrank.cli as cli

room = [sys.intern(f"room-{k}") for k in range(100_000)]


def peak(args):
    config = cli.build_config(cli.build_parser().parse_args(args))
    tracemalloc.start()
    try:
        rows = cli._scored_portfolio(config)
        return tracemalloc.get_traced_memory()[1], rows
    finally:
        tracemalloc.stop()


small_args, large_args = json.loads(sys.argv[1])
peak(large_args)
(small, _), (large, rows) = peak(small_args), peak(large_args)
threats = {(r.threat_score, r.threat_score.as_tuple().exponent) for r in rows}
print(json.dumps([small, large, len({id(r.threat_score) for r in rows}), len(threats)]))
"""


def write_feeds(directory, n, render):
    """Feeds for ``n`` CVEs, each line rendered by ``render`` from a row
    with its keys in the loader's order: half vectors and half published
    scores, a label each, two exploit references for every third and
    context for every fourth. Returns the ``score`` args and the set of
    the block scan's verdicts, whether it leaves a line to the decoder."""
    rng = random.Random(5)
    ids = [f"CVE-{2000 + k % 24}-{10000 + k}" for k in range(n)]
    feeds_by_name = {
        "cves": (
            {
                "id": cve_id,
                "description": " ".join(rng.choices(WORDS, k=14)),
                **({"vector": rng.choice(VECTORS)} if k % 2 else {"score": rng.randrange(101) / 10}),
            }
            for k, cve_id in enumerate(ids)
        ),
        "labels": (
            {"cve": cve_id, "utility": rng.randrange(3), "opportune": rng.randrange(2),
             "labeler": "SME", "ts": "2021-06-01T00:00:00Z"}
            for cve_id in ids
        ),
        "refs": (
            {"cve": cve_id, "url": f"https://x.example/{cve_id}/{j}", "source": "GitHub", "exploit": True}
            for cve_id in ids[::3]
            for j in range(2)
        ),
        "context": (
            {"cve": cve_id, "exposure": rng.choice(["Public", "Private"]),
             "criticality": rng.choice(["Low", "Medium", "High"])}
            for cve_id in ids[::4]
        ),
    }
    args, decoded = ["score"], set()
    for name, rows in feeds_by_name.items():
        path = directory / f"{name}.jsonl"
        data = "".join(render(row) + "\n" for row in rows).encode()
        path.write_bytes(data)
        args += [f"--{name}", str(path)]
        decoded |= {raw != b"" for *_, raw in feeds._line_scan(FORMS[name])(data)}
    return args, decoded


@pytest.mark.parametrize("render, decoded", [(json.dumps, True), (feeds.compact_json, False)],
                         ids=["spaced", "canonical"])
def test_score_path_memory_per_cve_is_bounded(tmp_path, render, decoded):
    sizes = {}
    for n in (2_000, 8_000):
        directory = tmp_path / str(n)
        directory.mkdir()
        sizes[n], forms = write_feeds(directory, n, render)
        # Every line takes the one path: the JSON decoder, or the scan's groups.
        assert forms == {decoded}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([sizes[2_000], sizes[8_000]])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    small, large, threat_objects, threats = json.loads(done.stdout.splitlines()[-1])
    assert (large - small) / 6_000 < PER_CVE_BOUND, (small, large)
    assert threat_objects <= threats


def _no_judgment(*_args, **_kwargs):
    raise AssertionError("the Judgment constructor was called")


@pytest.mark.parametrize("command", ["score", "rank", "report"])
@pytest.mark.parametrize("render", [json.dumps, feeds.compact_json], ids=["spaced", "canonical"])
def test_score_path_calls_no_judgment_constructor(tmp_path, monkeypatch, capsys, command, render):
    args, _ = write_feeds(tmp_path, 40, render)
    # Superseded rows too: a Model row loses to the SME row before it, and
    # an older SME row to the one it follows.
    store = tmp_path / "labels.jsonl"
    superseded = [
        {"cve": "CVE-2000-10000", "utility": 2, "opportune": 1, "labeler": "Model", "ts": "2030-01-01T00:00:00Z"},
        {"cve": "CVE-2001-10001", "utility": 2, "opportune": 1, "labeler": "SME", "ts": "2020-01-01T00:00:00Z"},
    ]
    with store.open("a") as fh:
        fh.writelines(render(row) + "\n" for row in superseded)
    expected_exit = main([command, *args[1:], "--output", str(tmp_path / "expected")])
    # The score path looks each judgment up among the twelve shared ones.
    # The constructor's __new__ checks its fields, and _make, _replace, a
    # copy and an unpickled judgment call it too; with it refusing, every
    # call fails.
    monkeypatch.setattr(feeds.Judgment, "__new__", staticmethod(_no_judgment))
    (_, judgment, _), *_ = feeds.iter_label_rows(store)
    with pytest.raises(AssertionError, match="Judgment constructor"):
        feeds.Judgment(*judgment)
    with pytest.raises(AssertionError, match="Judgment constructor"):
        judgment._replace(utility=0)
    assert main([command, *args[1:], "--output", str(tmp_path / "got")]) == expected_exit == 0
    assert (tmp_path / "got").read_bytes() == (tmp_path / "expected").read_bytes()
    assert capsys.readouterr().err == ""
