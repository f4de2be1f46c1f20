"""Featurization and prediction in blocks of texts: the same arrays and
predictions for any block size, and memory that does not grow with the corpus."""

import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulnrank.triage import features
from vulnrank.triage.features import design_matrix, fit_vocabulary
from vulnrank.triage.svm import LinearModel, Task, TrainConfig, predict_texts

from tfidf_reference import featurize

WORDS = [f"w{k}" for k in range(40)]
VOCAB = fit_vocabulary([" ".join(WORDS[k : k + 7]) for k in range(0, 34, 2)], min_df=2)
# Texts the block edges must handle: no tokens, only unknown tokens,
# non-ASCII text (a Kelvin sign, a dotted capital I) and plain ones.
EDGE_TEXTS = [
    "",
    "zz qq unseen",
    "\u212aw3 W4 caf\xe9 w5\u0130",
    "w1 w2 w2 w3",
    "W10 w11, w12; w13 w13 w13",
    "w30 w31 w32 w33 w34 w35 w36",
]
ONE_BLOCK = 10**9


def model(vocab=VOCAB):
    """A utility model with random weights over ``vocab``."""
    rng = np.random.default_rng(3)
    k = len(Task.UTILITY.classes)
    return LinearModel(
        task=Task.UTILITY,
        weights=rng.normal(size=(k, vocab.size)),
        bias=rng.normal(size=k),
        vocab=vocab,
        config=TrainConfig(),
    )


def built(texts, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(features, "BLOCK_TEXTS", block)
        return design_matrix(VOCAB, texts), predict_texts(model(), texts)


def assert_same_as_one_block(texts, block):
    (X, predicted), (whole, whole_predicted) = built(texts, block), built(texts, ONE_BLOCK)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(X, name), getattr(whole, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert (X.indptr.dtype, X.indices.dtype, X.data.dtype) == (np.int64, np.int64, np.float64)
    assert X.shape == whole.shape == (len(texts), VOCAB.size)
    assert predicted == whole_predicted
    for row, text in enumerate(texts):
        lo, hi = X.indptr[row], X.indptr[row + 1]
        expected = featurize(VOCAB, text)
        assert X.indices[lo:hi].tolist() == sorted(expected)
        for col, weight in zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist()):
            assert abs(weight - expected[col]) <= 1e-12


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize(
    "blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
    ids=["0", "1", "B-1", "B", "B+1", "2B+1"],
)
def test_blocks_match_one_block(block, blocks, extra):
    n = blocks * block + extra
    # Every rotation of the edge texts, so each of them lands on each block edge.
    for shift in range(len(EDGE_TEXTS)):
        texts = [EDGE_TEXTS[(shift + i) % len(EDGE_TEXTS)] for i in range(n)]
        assert_same_as_one_block(texts, block)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(st.sampled_from(WORDS + ["W7", "oov", "\u212a", "\xe9t\xe9", "x"]), max_size=12)
        .map(" ".join),
        max_size=14,
    ),
    st.integers(1, 5),
)
def test_random_corpora_match_one_block(texts, block):
    assert_same_as_one_block(texts, block)


def test_predict_memory_does_not_grow_with_the_corpus():
    words = [f"t{k}" for k in range(3_000)]
    trained = model(fit_vocabulary([" ".join(words[k : k + 30]) for k in range(0, 3_000, 10)]))
    rng = random.Random(11)

    def peak(n):
        texts = [" ".join(rng.choices(words, k=80)) for _ in range(n)]
        tracemalloc.start()
        try:
            predicted = predict_texts(trained, texts)
            return tracemalloc.get_traced_memory()[1], predicted
        finally:
            tracemalloc.stop()

    block = features.BLOCK_TEXTS
    (small, _), (large, predicted) = peak(4 * block), peak(16 * block)
    assert large - small <= sys.getsizeof(predicted) + (1 << 20), (small, large)
