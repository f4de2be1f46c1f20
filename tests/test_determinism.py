"""Outputs that must not depend on the machine a command runs on."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vulnrank.feeds import save_labels
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed

SRC = Path(__file__).resolve().parent.parent / "src"
TASKS = ("utility", "opportune")


@pytest.fixture(scope="module")
def triage_feeds(tmp_path_factory):
    """A CVE feed of 300 records whose first 200 hold SME labels, so that
    predict has 100 CVEs to label."""
    feeds = tmp_path_factory.mktemp("feeds")
    corpus = synth_labeled_corpus(n=300, seed=11)
    write_cve_feed(feeds / "cves.jsonl", synth_cve_records(corpus, seed=11))
    save_labels(feeds / "labels.jsonl", [row for _, row in corpus[:200]])
    return feeds


def run_triage(feeds: Path, work: Path, blas_threads: str | None) -> dict[str, bytes]:
    """Train both models, then predict both tasks into a copy of the label
    store, each in a ``python -m vulnrank`` child; return the files written."""
    work.mkdir()
    shutil.copyfile(feeds / "labels.jsonl", work / "store.jsonl")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    for command in ("train", "predict"):
        for task in TASKS:
            done = subprocess.run(
                [sys.executable, "-m", "vulnrank", command, "--task", task,
                 "--cves", str(feeds / "cves.jsonl"), "--labels", "store.jsonl",
                 f"--model-{task}", f"{task}.json"],
                cwd=work, env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
    return {name: (work / name).read_bytes() for name in ("utility.json", "opportune.json", "store.jsonl")}


def test_triage_outputs_do_not_depend_on_openblas_threads(triage_feeds, tmp_path):
    outputs = {
        setting: run_triage(triage_feeds, tmp_path / f"threads-{setting}", setting)
        for setting in (None, "1", "2")
    }
    assert outputs[None]["store.jsonl"].count(b'"labeler":"Model"') == 100
    assert outputs["1"] == outputs[None]
    assert outputs["2"] == outputs[None]
