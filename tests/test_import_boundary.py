"""numpy is imported by train and predict only, and csv by no command.
numpy.random is imported by none: train shuffles with the standard
library's generator. Nor do the commands that leave numpy unloaded load
dataclasses or the inspect module it imports: vulnrank's records are
named tuples, and only the triage classes, beside numpy, are dataclasses.

``vulnrank.cli`` binds the ``vulnrank.triage`` names on first access, so
a process that scores, ranks, reports or ingests never loads numpy. The
names must still resolve on the module, since the benchmark's tracer
wraps them there before ``main`` runs. Exports are written from
templates, so no command loads the csv module either. The child process
gets the source tree this suite imported, so it checks that tree.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vulnrank
import vulnrank.cli
import vulnrank.triage
from vulnrank.cli import build_parser
from vulnrank.feeds import save_labels
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed

REPO = Path(__file__).resolve().parent.parent
SRC = Path(vulnrank.__file__).resolve().parents[1]

# Runs main on the argv in sys.argv[1], then prints its exit code and
# whether each module named in sys.argv[2] is loaded.
CHILD = """
import json, sys
from vulnrank.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, *(name in sys.modules for name in json.loads(sys.argv[2]))]))
"""
UNLOADED = ["numpy", "csv", "dataclasses", "inspect"]


def test_score_rank_report_ingest_leave_numpy_unloaded(trio_feed_dir):
    feeds = []
    for name in ("cves", "refs", "labels"):
        feeds += [f"--{name}", str(trio_feed_dir / f"{name}.jsonl")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for command in ("score", "rank", "report", "ingest", "label"):
        argv = [command, *feeds, "--output", str(trio_feed_dir / f"{command}.out")]
        if command in ("ingest", "label"):
            argv = argv[:-2]
        # label reads its answers from stdin: at end of input it quits.
        done = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(argv), json.dumps(UNLOADED)],
            capture_output=True, text=True, env=env, check=True, stdin=subprocess.DEVNULL,
        )
        loaded = json.loads(done.stdout.splitlines()[-1])
        assert loaded == [0] + [False] * len(UNLOADED), (command, done.stdout, done.stderr)


def test_train_leaves_numpy_random_unloaded(tmp_path):
    corpus = synth_labeled_corpus(n=60, seed=3)
    write_cve_feed(tmp_path / "cves.jsonl", synth_cve_records(corpus, seed=3))
    save_labels(tmp_path / "labels.jsonl", [row for _, row in corpus])
    argv = [
        "train", "--task", "utility", "--min-df", "1",
        "--cves", str(tmp_path / "cves.jsonl"), "--labels", str(tmp_path / "labels.jsonl"),
        "--model-utility", str(tmp_path / "utility_model.json"),
    ]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv), json.dumps(["numpy", "numpy.random"])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == [0, True, False], (done.stdout, done.stderr)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# score and rank write through export_chunks, a generator; the cli binds
# no "export", so the tracer's bytes-counting wrapper is listed absent
# rather than handed a generator. wx is summed from the loader's result
# in the cli, which binds no "count_wx" either, so the tracer's observer
# that reads ".count" is listed absent rather than handed ints. Every
# command streams the CVE feed, and the cli binds no "load_cve_records".
# Every command reads the label store through load_judgments, or counts
# its rows with iter_label_rows, so the cli binds no "load_labels" and no
# "merge_labels". A label is a (cve_id, Judgment, stamp) row whose
# Judgment checks itself, so it binds no "LabeledExample" and no
# "shared_judgment".
UNBOUND_CLI_NAMES = {
    "LabeledExample", "count_wx", "export", "load_cve_records", "load_labels", "merge_labels",
    "shared_judgment",
}


def test_traced_cli_names_resolve_to_their_functions():
    names = [attr for module, attr, *_ in _tracer().SPANS if module == "vulnrank.cli"]
    for name in UNBOUND_CLI_NAMES:
        assert getattr(vulnrank.cli, name, None) is None, name
    names = [name for name in names if name not in UNBOUND_CLI_NAMES]
    triage_names = [name for name in names if name in vulnrank.triage.__all__]
    assert {"fit_vocabulary", "train", "evaluate", "save_model", "load_model"} <= set(triage_names)
    for name in names:
        assert callable(getattr(vulnrank.cli, name)), name
    for name in triage_names:
        assert getattr(vulnrank.cli, name) is getattr(vulnrank.triage, name), name
    assert getattr(vulnrank.cli, "predict_text", None) is None


@pytest.mark.parametrize("package", [vulnrank, vulnrank.triage], ids=lambda m: m.__name__)
def test_all_is_sorted_unique_and_resolves(package):
    names = package.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(package, name), name


def test_task_choices_are_the_task_values():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    for command in ("train", "predict"):
        (task,) = [a for a in subcommands[command]._actions if a.dest == "task"]
        assert list(task.choices) == [t.value for t in vulnrank.triage.Task]
