"""Differential test of the SGD trainer against ``svm_reference``.

Both trainers fit the same corpus with the same config, and the weights
and biases must be equal byte for byte: two and three classes, documents
with no vocabulary token, single-class train sets, regularization from
1e-6 to 10, one to five epochs, several seeds, and a scale floor high
enough to fold ``s`` back into ``V`` on most steps.

Model bytes are not pinned by digest: numpy's BLAS may pick another
kernel on another CPU, which moves low-order bits in both trainers alike.
"""

import warnings
from datetime import datetime, timezone
from unittest import mock

from hypothesis import event, given, settings, strategies as st

import vulnrank.triage.svm as svm
from vulnrank.feeds import Judgment, Labeler
from vulnrank.triage.features import fit_vocabulary
from vulnrank.triage.svm import DegenerateTaskWarning, Task, TrainConfig

import svm_reference

TS = datetime(2021, 1, 1, tzinfo=timezone.utc)
# Common words make the vocabulary; rare ones (min_df 2 drops most of
# them) leave documents that hold no vocabulary token at all.
COMMON = [f"w{k}" for k in range(12)]
RARE = [f"rare{k}" for k in range(40)]
COMMON_WORDS = st.lists(st.sampled_from(COMMON), max_size=8)
WORDS = st.one_of(COMMON_WORDS, COMMON_WORDS, st.lists(st.sampled_from(RARE), max_size=3))


@st.composite
def corpora(draw):
    n = draw(st.integers(2, 24))
    docs = []
    for i in range(n):
        judgment = Judgment(draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([0, 1])), Labeler.SME)
        docs.append((" ".join(draw(WORDS)), (f"CVE-2021-{i:05d}", judgment, TS)))
    return docs


def fit(module, task, corpus, vocab, config):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateTaskWarning)
        return module.train(task, corpus, vocab, config)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    task=st.sampled_from(list(Task)),
    corpus=corpora(),
    min_df=st.sampled_from([1, 2]),
    reg_lambda=st.floats(-6, 1).map(lambda e: 10.0**e),
    epochs=st.integers(1, 5),
    seed=st.sampled_from([0, 1, 42, 2**32 - 1]),
    floor=st.sampled_from([1e-9, 1e-9, 0.3, 0.6]),
)
def test_trainer_matches_reference_bitwise(task, corpus, min_df, reg_lambda, epochs, seed, floor):
    vocab = fit_vocabulary([text for text, _ in corpus], min_df=min_df)
    config = TrainConfig(epochs=epochs, reg_lambda=reg_lambda, seed=seed)
    with mock.patch.object(svm, "_SCALE_FLOOR", floor), \
            mock.patch.object(svm_reference, "_SCALE_FLOOR", floor):
        got = fit(svm, task, corpus, vocab, config)
        expected = fit(svm_reference, task, corpus, vocab, config)
    empty = any(not set(text.split()) & vocab.index.keys() for text, _ in corpus)
    event(f"classes: {len(task.classes)}, vocabulary empty: {vocab.size == 0}")
    event(f"some document holds no vocabulary token: {empty}")
    assert got.weights.flags.c_contiguous
    assert got.weights.shape == expected.weights.shape
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert got.bias.tobytes() == expected.bias.tobytes()
