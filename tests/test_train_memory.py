"""train keeps only what it trains on: the CVE feed streams through the join,
which keeps the descriptions of the labeled CVEs alone, so an unlabeled CVE
adds to train's memory no more than its id in the feed's duplicate check."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import vulnrank
from vulnrank.feeds import save_labels
from vulnrank.synth import synth_labeled_corpus

WORDS = ("buffer", "overflow", "remote", "attacker", "crafted", "request", "header", "parser")
# Bytes of traced peak per added unlabeled CVE. The streamed join takes
# about 130, the id kept for the duplicate check; holding every CveRecord
# and its 40-word description until the join ends takes about 560.
PER_CVE_BOUND = 320

SRC = Path(vulnrank.__file__).resolve().parents[1]

# The peaks are taken in a new interpreter, so that what the process ran
# before cannot move them. Every id is interned, and the table of interned
# strings resizes each time a set number of strings has been added since
# its last resize; the run that holds its old and new arrays at once peaks
# about 2 MB higher. So the child first interns and keeps strings of its
# own, which leaves the table room for every id the runs add, and a first
# run loads numpy and grows the interpreter's caches once.
CHILD = """
import contextlib, io, json, sys, tracemalloc
from vulnrank.cli import main

room = [sys.intern(f"room-{k}") for k in range(100_000)]


def peak(argv):
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


small_argv, large_argv = json.loads(sys.argv[1])
peak(large_argv)
print(json.dumps([peak(small_argv), peak(large_argv)]))
"""


def write_feeds(directory, n_unlabeled):
    """40 SME-labeled CVEs, then ``n_unlabeled`` CVEs with long descriptions
    and no label; returns the train command's arguments."""
    rng = random.Random(5)
    labeled = synth_labeled_corpus(n=40, seed=5)
    rows = [{"id": cve_id, "description": text, "score": 5.0} for text, (cve_id, _, _) in labeled]
    rows += (
        {"id": f"CVE-{2000 + k % 24}-{10000 + k}", "description": " ".join(rng.choices(WORDS, k=40))}
        for k in range(n_unlabeled)
    )
    cves, labels = directory / "cves.jsonl", directory / "labels.jsonl"
    cves.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    save_labels(labels, [row for _, row in labeled])
    return [
        "train", "--task", "utility", "--min-df", "1", "--epochs", "2",
        "--cves", str(cves), "--labels", str(labels),
        "--model-utility", str(directory / "utility_model.json"),
    ]


def test_train_memory_per_unlabeled_cve_is_bounded(tmp_path):
    argvs = []
    for n in (2_000, 8_000):
        directory = tmp_path / str(n)
        directory.mkdir()
        argvs.append(write_feeds(directory, n))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    small, large = json.loads(done.stdout.splitlines()[-1])
    assert (large - small) / 6_000 < PER_CVE_BOUND, (small, large)
