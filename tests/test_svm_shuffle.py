"""The trainer's shuffles come from the standard library's Mersenne Twister,
seeded and drawn as numpy's legacy ``RandomState`` does, so every order
equals ``RandomState(seed).permutation(n)``; numpy.random is loaded by
these tests only, as the oracle. Seeds and epoch counts are integers."""

from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vulnrank.feeds import Judgment, Labeler
from vulnrank.triage.svm import SEED_RANGE, TrainConfig, _generator, _permutation, split

import svm_reference

TS = datetime(2021, 1, 1, tzinfo=timezone.utc)
SEEDS = [0, 1, 42, 2**32 - 1]
# 0 to 3, both sides of every power of two up to 2**16, and a large n.
SIZES = sorted(
    {0, 1, 2, 3, 40_000} | {2**k + d for k in range(2, 17) for d in (-1, 0, 1)}
)


def example(n, utility=0, opportune=0):
    return f"doc {n}", (f"CVE-2021-{n:05d}", Judgment(utility, opportune, Labeler.SME), TS)


@pytest.mark.parametrize("seed", SEEDS)
def test_one_generator_draws_the_randomstate_orders(seed):
    # One generator serves every call, as one serves every epoch of train.
    rng, reference = _generator(seed), np.random.RandomState(seed)
    for n in SIZES:
        assert _permutation(rng, n) == reference.permutation(n).tolist(), n


def test_epochs_of_one_size_continue_the_stream():
    rng, reference = _generator(42), np.random.RandomState(42)
    for _ in range(20):
        assert _permutation(rng, 2_000) == reference.permutation(2_000).tolist()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(*SEED_RANGE),
    sizes=st.lists(st.integers(0, 5_000), min_size=1, max_size=4),
)
def test_any_seed_and_sizes_draw_the_randomstate_orders(seed, sizes):
    rng, reference = _generator(seed), np.random.RandomState(seed)
    for n in sizes:
        assert _permutation(rng, n) == reference.permutation(n).tolist()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(*SEED_RANGE),
    labels=st.lists(st.integers(0, 2), min_size=5, max_size=300),
    fraction=st.sampled_from([0.5, 0.7, 0.8, 0.9]),
    stratified=st.booleans(),
)
def test_split_equals_the_randomstate_split(seed, labels, fraction, stratified):
    corpus = [example(i, utility=label) for i, label in enumerate(labels)]
    key = (lambda doc: doc[1][1].utility) if stratified else None
    try:
        expected = svm_reference.split(corpus, fraction, seed, key)
    except ValueError as exc:
        with pytest.raises(type(exc), match="empty train or test set"):
            split(corpus, fraction, seed, key)
        return
    assert split(corpus, fraction, seed, key) == expected


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stratified", [False, True], ids=["plain", "stratified"])
def test_split_of_a_large_corpus_equals_the_randomstate_split(seed, stratified):
    corpus = [example(i, utility=i % 3, opportune=int(i % 11 == 0)) for i in range(2_500)]
    key = (lambda doc: doc[1][1].opportune) if stratified else None
    expected = svm_reference.split(corpus, seed=seed, stratify_key=key)
    assert split(corpus, seed=seed, stratify_key=key) == expected


class TestIntegerKnobs:
    @pytest.mark.parametrize("seed", [1.5, 42.0, True, False, "7", None])
    def test_config_refuses_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("epochs", [2.5, 3.0, True, "3", None])
    def test_config_refuses_epochs_that_are_not_an_integer(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(epochs=epochs)

    def test_config_keeps_numpy_integers_as_ints(self):
        config = TrainConfig(epochs=np.int64(3), seed=np.uint32(7))
        assert (type(config.epochs), type(config.seed)) == (int, int)
        assert config == TrainConfig(epochs=3, seed=7)

    @pytest.mark.parametrize("seed", [1.5, 42.0, True, None, "7"])
    def test_split_refuses_a_seed_that_is_not_an_integer(self, seed):
        # None once drew the seed from OS entropy, and 1.5 raised numpy's TypeError.
        with pytest.raises(ValueError, match="seed must be an integer"):
            split([example(i) for i in range(10)], seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_split_refuses_a_seed_outside_the_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 4294967295\]"):
            split([example(i) for i in range(10)], seed=seed)

    def test_split_takes_a_numpy_integer_seed(self):
        corpus = [example(i) for i in range(10)]
        assert split(corpus, seed=np.int64(7)) == split(corpus, seed=7)
