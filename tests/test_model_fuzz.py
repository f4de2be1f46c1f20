"""Model-file fuzzing: any edit of a saved model either predicts, with
every prediction a legal category, or fails the way main reports a bad
model, as exit 4 with one ``error:`` line.

Each example applies one to three edits to a saved utility model's JSON:
replace a value anywhere in the tree (with any JSON value, a number
near the saved one, NaN or Infinity), drop a key or a list entry,
repeat a list entry, or cut the serialized file short.
"""

import copy
import io
import json
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from vulnrank.cli import main
from vulnrank.feeds import Labeler, save_labels
from vulnrank.synth import synth_cve_records, synth_labeled_corpus, write_cve_feed
from vulnrank.triage import Task, TrainConfig, fit_vocabulary, save_model, train

from conftest import read_store

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)
EDGE_VALUES = st.sampled_from(
    [0, 1, -1, 2, 3, 10**400, -0.0, 1e308, float("nan"), float("inf"), float("-inf"),
     "1", "", "utility", "opportune", True, False, None, [], {}]
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A utility model trained on a small corpus, its JSON, and predict's inputs."""
    root = tmp_path_factory.mktemp("model_fuzz")
    corpus = synth_labeled_corpus(n=40, seed=5)
    vocab = fit_vocabulary([text for text, _ in corpus], min_df=3)
    save_model(root / "model.json", train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=2)))
    write_cve_feed(root / "cves.jsonl", synth_cve_records(corpus[:8], seed=5))
    unlabeled = {cve_id for _, (cve_id, _, _) in corpus[3:8]}
    return root, json.loads((root / "model.json").read_text()), [row for _, row in corpus[:3]], unlabeled


def _children(node) -> list:
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


def _near(value) -> list:
    """Values next to a leaf of the saved model, mostly still well formed."""
    if isinstance(value, str):
        return [value + "x", value.upper(), ""]
    return [-value, value + 1, value * 1000, str(value), [value]]


@st.composite
def edited(draw, doc) -> str:
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["replace", "near", "near", "drop", "repeat"]))
        # Walk down from the root: to a leaf for "near", else three times
        # in four one level deeper.
        parent, key, node = None, None, doc
        while _children(node) and (kind == "near" or draw(st.integers(0, 3))):
            parent, key = node, draw(st.sampled_from(_children(node)))
            node = node[key]
        if parent is None or kind in ("replace", "near"):
            near = kind == "near" and isinstance(node, (int, float, str))
            value = draw(st.sampled_from(_near(node)) if near else JSON_VALUES | EDGE_VALUES)
            if parent is None:
                doc = value
            else:
                parent[key] = value
        elif kind == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(node))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _finite(value) -> bool:
    try:
        return bool(np.isfinite(np.array(value, dtype=float)).all())
    except (TypeError, ValueError, OverflowError):
        return False


def _well_formed(doc) -> bool:
    """What a model that predicts must satisfy, checked from the raw JSON."""
    vocabulary = doc["vocabulary"]
    n = vocabulary["num_documents"]
    return (
        doc["task"] == "utility"
        and doc["classes"] == [0, 1, 2]
        and type(n) is int
        and n >= 1
        and all(type(t) is str and type(df) is int and 1 <= df <= n for t, df in vocabulary["tokens"])
        and _finite(doc["weights"])
        and _finite(doc["bias"])
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_edited_model_predicts_or_exits_4(saved, data):
    root, doc, sme, unlabeled = saved
    text = data.draw(edited(doc))
    model, labels = root / "edited.json", root / "labels.jsonl"
    model.write_text(text)
    save_labels(labels, sme)
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code = main([
            "predict", "--task", "utility", "--cves", str(root / "cves.jsonl"),
            "--labels", str(labels), "--model-utility", str(model),
        ])
    err = stderr.getvalue()
    event(f"exit {code}")  # shown by pytest --hypothesis-show-statistics

    if code != 0:
        assert code == 4, (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert _well_formed(json.loads(text)), text
    predicted = [(cve_id, j) for cve_id, j, _ in read_store(labels) if j.labeler is Labeler.MODEL]
    assert {cve_id for cve_id, _ in predicted} == unlabeled
    assert all(j.utility in Task.UTILITY.classes and j.opportune == 0 for _, j in predicted)
