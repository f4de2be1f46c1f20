"""Split determinism, SVM training behavior, prediction, and model files."""

import json
import random
from datetime import datetime, timezone

import numpy as np
import pytest

import vulnrank.triage.svm as svm
from vulnrank.feeds import InvalidCategory, LabeledExample, Labeler
from vulnrank.triage.features import fit_vocabulary
from vulnrank.triage.modelio import CorruptModel, ModelVersionError, load_model, save_model
from vulnrank.triage.svm import (
    CorpusTooSmall,
    DegenerateTaskWarning,
    LinearModel,
    Task,
    TrainConfig,
    TrainingDiverged,
    predict_texts,
    split,
    train,
)

from tfidf_reference import featurize

TS = datetime(2021, 1, 1, tzinfo=timezone.utc)


def example(n, utility=0, opportune=0, description="filler text"):
    return LabeledExample(
        cve_id=f"CVE-2021-{n:05d}",
        utility=utility,
        opportune=opportune,
        labeler=Labeler.SME,
        labeled_at=TS,
        description=description,
    )


def separable_corpus(n_per_class=15, seed=9):
    """Binary corpus where utility is decided by an exclusive marker token."""
    rng = random.Random(seed)
    filler = [f"noise{k}" for k in range(12)]
    docs = []
    for i in range(n_per_class):
        docs.append(example(i, utility=0, description="alpha " + " ".join(rng.choices(filler, k=4))))
    for i in range(n_per_class):
        docs.append(
            example(n_per_class + i, utility=1, description="beta " + " ".join(rng.choices(filler, k=4)))
        )
    return docs


def three_class_corpus(n_per_class=12, seed=4):
    """Utility corpus with one marker token per class plus shared noise."""
    rng = random.Random(seed)
    filler = [f"noise{k}" for k in range(15)]
    return [
        example(
            label * n_per_class + i,
            utility=label,
            description=f"{marker} " + " ".join(rng.choices(filler, k=rng.randrange(2, 7))),
        )
        for label, marker in enumerate(("alpha", "beta", "gamma"))
        for i in range(n_per_class)
    ]


def dense_reference_train(task, examples, vocab, config):
    """The trainer before the sparse path: dense rows, W decayed in full each step."""
    X = np.zeros((len(examples), vocab.size + 1))
    for row, ex in enumerate(examples):
        for col, weight in featurize(vocab, ex.description).items():
            X[row, col] = weight
    X[:, -1] = 1.0
    Y = np.array([[1.0 if task.label_of(ex) == c else -1.0 for c in task.classes] for ex in examples])
    W = np.zeros((len(task.classes), vocab.size + 1))
    rng = np.random.RandomState(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(len(examples)):
            t += 1
            eta = 1.0 / (config.reg_lambda * t)
            margins = Y[i] * (W @ X[i])
            W *= 1.0 - 1.0 / t
            violated = margins < 1.0
            W[violated] += (eta * Y[i][violated])[:, None] * X[i][None, :]
    return W[:, :-1], W[:, -1]


def dense_reference_objective(model, examples):
    X = np.zeros((len(examples), model.vocab.size))
    for row, ex in enumerate(examples):
        for col, weight in featurize(model.vocab, ex.description).items():
            X[row, col] = weight
    total = 0.0
    for ci, c in enumerate(model.classes):
        ys = np.array([1.0 if model.task.label_of(ex) == c else -1.0 for ex in examples])
        margins = ys * (X @ model.weights[ci] + model.bias[ci])
        norm_sq = model.weights[ci] @ model.weights[ci] + model.bias[ci] ** 2
        total += np.maximum(0.0, 1.0 - margins).mean() + 0.5 * model.config.reg_lambda * norm_sq
    return total


class TestSplit:
    def corpus(self, n):
        return [example(i, utility=i % 3) for i in range(n)]

    def test_667_gives_533_134(self):
        train_set, test_set = split(self.corpus(667), train_fraction=0.8, seed=42)
        assert len(train_set) == 533
        assert len(test_set) == 134

    def test_deterministic_per_seed(self):
        corpus = self.corpus(10)
        first = split(corpus, seed=7)
        second = split(corpus, seed=7)
        assert first == second
        assert split(corpus, seed=8) != first

    def test_exact_partition(self):
        corpus = self.corpus(43)
        train_set, test_set = split(corpus, train_fraction=0.8, seed=1)
        combined = sorted(train_set + test_set, key=lambda e: e.cve_id)
        assert combined == sorted(corpus, key=lambda e: e.cve_id)
        assert not {e.cve_id for e in train_set} & {e.cve_id for e in test_set}

    def test_fraction_one_rejected(self):
        with pytest.raises(ValueError):
            split(self.corpus(10), train_fraction=1.0)

    def test_too_small(self):
        with pytest.raises(CorpusTooSmall):
            split(self.corpus(4))

    def test_stratified_preserves_group_fractions(self):
        corpus = [example(i, opportune=1 if i < 20 else 0) for i in range(200)]
        train_set, test_set = split(
            corpus, train_fraction=0.8, seed=3, stratify_key=lambda e: e.opportune
        )
        assert sum(1 for e in train_set if e.opportune == 1) == 16
        assert sum(1 for e in test_set if e.opportune == 1) == 4


class TestTrain:
    def test_separable_corpus_fits_perfectly(self):
        corpus = separable_corpus()
        # Separability oracle: a bare "contains alpha" rule already gets
        # 100%, so the trained model has no excuse not to.
        rule = [0 if "alpha" in ex.description else 1 for ex in corpus]
        assert rule == [ex.utility for ex in corpus]

        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab)
        assert predict_texts(model, [ex.description for ex in corpus]) == [ex.utility for ex in corpus]

    def test_single_class_warns_and_predicts_constantly(self):
        corpus = [example(i, utility=2, description=f"doc {i} text") for i in range(6)]
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        with pytest.warns(DegenerateTaskWarning):
            model = train(Task.UTILITY, corpus, vocab)
        assert predict_texts(model, ["anything at all", ""]) == [2, 2]

    def test_bitwise_deterministic(self):
        corpus = separable_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        config = TrainConfig(epochs=5, seed=42)
        a = train(Task.UTILITY, corpus, vocab, config)
        b = train(Task.UTILITY, corpus, vocab, config)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)

    def test_objective_non_increasing_across_epochs(self):
        # With reg_lambda > 2 the weight norm stays below 1/lambda * max||x||,
        # so every sample keeps violating the margin and the 1/(lambda*t)
        # recurrence telescopes: epoch-boundary weights equal (1/(lambda*n))
        # * sum(y*x) exactly, whatever the shuffle order. The per-epoch
        # objective is therefore flat-to-decreasing; anything above float
        # noise means the shrink/step arithmetic regressed.
        corpus = separable_corpus(n_per_class=10, seed=3)
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        objectives = []
        for epochs in range(1, 11):
            model = train(
                Task.UTILITY, corpus, vocab, TrainConfig(epochs=epochs, reg_lambda=2.5, seed=42)
            )
            objectives.append(dense_reference_objective(model, corpus))
        drift = sum(max(0.0, b - a) for a, b in zip(objectives, objectives[1:]))
        assert drift <= 1e-6, objectives

    def test_objective_improves_with_training(self):
        # Looser check in the weak-regularization regime: stochastic epoch
        # endpoints wobble, but the final objective beats the first by far.
        corpus = separable_corpus(n_per_class=12, seed=2)
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        first = dense_reference_objective(
            train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=1)), corpus
        )
        last = dense_reference_objective(
            train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=20)), corpus
        )
        assert last < first

    @pytest.mark.parametrize(
        "corpus, config",
        [
            (separable_corpus(), TrainConfig(epochs=5)),
            (separable_corpus(n_per_class=10, seed=3), TrainConfig(epochs=4, reg_lambda=2.5)),
            (three_class_corpus(), TrainConfig(epochs=6, seed=7)),
        ],
        ids=["separable", "separable-strong-reg", "three-class"],
    )
    def test_sparse_trainer_matches_dense_reference(self, corpus, config):
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab, config)
        weights, bias = dense_reference_train(Task.UTILITY, corpus, vocab, config)
        assert np.abs(model.weights - weights).max() <= 1e-9
        assert np.abs(model.bias - bias).max() <= 1e-9

    def test_scale_fold_back_matches_dense_reference(self, monkeypatch):
        # Under the 1/(lambda*t) schedule the scale only falls to 1/t, so
        # the fold-back never fires at test sizes; a high floor forces it
        # on every other step.
        monkeypatch.setattr(svm, "_SCALE_FLOOR", 0.6)
        corpus = three_class_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        config = TrainConfig(epochs=3, seed=11)
        model = train(Task.UTILITY, corpus, vocab, config)
        weights, bias = dense_reference_train(Task.UTILITY, corpus, vocab, config)
        assert np.abs(model.weights - weights).max() <= 1e-9
        assert np.abs(model.bias - bias).max() <= 1e-9

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_randomstate_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 4294967295\]"):
            TrainConfig(seed=seed)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_weights_raise(self):
        # 1 / (lambda * t) overflows for a subnormal lambda.
        corpus = three_class_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        with pytest.raises(TrainingDiverged, match="utility model diverged"):
            train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=2, reg_lambda=1e-320))

    def test_illegal_label_for_task(self):
        # LabeledExample validates its own fields, so the trainer's guard
        # can only fire on records from outside the type system.
        class RawRecord:
            cve_id = "CVE-2021-00000"
            description = "x y"
            utility = 0
            opportune = 5

        vocab = fit_vocabulary(["x y"], min_df=1)
        with pytest.raises(InvalidCategory):
            train(Task.OPPORTUNE, [RawRecord(), RawRecord()], vocab)


class TestPredict:
    def constant_model(self, bias):
        vocab = fit_vocabulary(["aa bb cc"], min_df=1)
        return LinearModel(
            task=Task.UTILITY,
            weights=np.zeros((3, vocab.size)),
            bias=np.array(bias, dtype=float),
            vocab=vocab,
            config=TrainConfig(),
        )

    def test_zero_vector_goes_to_largest_bias(self):
        model = self.constant_model([0.1, 0.9, 0.2])
        assert predict_texts(model, ["", "zz unseen"]) == [1, 1]

    def test_tie_breaks_to_lowest_category(self):
        model = self.constant_model([0.5, 0.5, 0.5])
        assert predict_texts(model, [""]) == [0]

    def test_prediction_always_legal(self):
        corpus = separable_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=3))
        rng = random.Random(13)
        pool = ["alpha", "beta", "noise1", "noise5", "unseen"]
        texts = [" ".join(rng.choices(pool, k=rng.randrange(0, 6))) for _ in range(50)]
        assert set(predict_texts(model, texts)) <= set(Task.UTILITY.classes)

    def test_rescaled_document_predicts_identically(self):
        corpus = separable_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=3))
        doc = "alpha noise1 noise2"
        once, repeated = predict_texts(model, [doc, " ".join([doc] * 4)])
        assert once == repeated

    def test_batch_prediction_matches_one_at_a_time(self):
        corpus = three_class_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=4))
        rng = random.Random(21)
        pool = ["alpha", "beta", "gamma", "noise2", "noise7", "unseen"]
        texts = ["", "unseen words only", "alpha", "gamma gamma beta"] + [
            " ".join(rng.choices(pool, k=rng.randrange(0, 8))) for _ in range(60)
        ]
        assert predict_texts(model, texts) == [predict_texts(model, [t])[0] for t in texts]
        assert predict_texts(model, []) == []

    @pytest.mark.parametrize("bias", [[0.1, 0.9, 0.2], [0.5, 0.5, 0.5], [-1.0, -1.0, 1.0]])
    def test_batch_prediction_of_constant_model(self, bias):
        model = self.constant_model(bias)
        texts = ["", "aa", "zz unseen", "bb cc aa"]
        expected = [predict_texts(model, [t])[0] for t in texts]
        assert predict_texts(model, texts) == expected
        assert len(set(expected)) == 1


def with_tokens(doc, edit):
    """``doc`` with every vocabulary entry ``[token, df]`` replaced by ``edit(token, df)``."""
    vocabulary = doc["vocabulary"]
    return {**doc, "vocabulary": {**vocabulary, "tokens": [edit(*e) for e in vocabulary["tokens"]]}}


def with_num_documents(doc, value):
    return {**doc, "vocabulary": {**doc["vocabulary"], "num_documents": value}}


class TestModelFiles:
    def trained(self):
        corpus = separable_corpus()
        vocab = fit_vocabulary([ex.description for ex in corpus], min_df=1)
        return train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=3))

    def test_round_trip_bitwise(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.vocab == model.vocab
        assert loaded.config == model.config
        assert loaded.task is model.task

    def test_save_load_save_byte_identical(self, tmp_path):
        model = self.trained()
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(first, model)
        save_model(second, load_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_version_mismatch_rejected(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.json"
        save_model(path, model)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ModelVersionError):
            load_model(path)

    def test_save_replaces_atomically(self, tmp_path):
        model = self.trained()
        path = tmp_path / "model.json"
        path.write_text("old contents")
        save_model(path, model)
        assert load_model(path).task is model.task
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_failed_save_leaves_no_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            save_model(tmp_path / "missing" / "model.json", self.trained())
        assert list(tmp_path.iterdir()) == []
        # The temporary file is written, then cannot replace a directory.
        (tmp_path / "model.json").mkdir()
        with pytest.raises(OSError):
            save_model(tmp_path / "model.json", self.trained())
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: "{not json",
            lambda doc: "[1, 2]",
            lambda doc: json.dumps({k: v for k, v in doc.items() if k != "weights"}),
            lambda doc: json.dumps({**doc, "vocabulary": {"num_documents": 3}}),
            lambda doc: json.dumps({**doc, "weights": doc["weights"][:-1]}),
            lambda doc: json.dumps({**doc, "weights": [row[:-1] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "weights": [doc["weights"][0], [1.0]]}),
            lambda doc: json.dumps({**doc, "bias": doc["bias"][:-1]}),
            lambda doc: json.dumps({**doc, "bias": [doc["bias"]]}),
            lambda doc: json.dumps({**doc, "task": "severity"}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "epochs": 0}}),
            lambda doc: json.dumps({**doc, "weights": [row + [0.0] for row in doc["weights"]]}),
            lambda doc: json.dumps(with_tokens(doc, lambda t, df: [t, str(df)])),
            lambda doc: json.dumps(with_tokens(doc, lambda t, df: [t, -df])),
            lambda doc: json.dumps(with_tokens(doc, lambda t, df: [t, df + 1000])),
            lambda doc: json.dumps(with_tokens(doc, lambda t, df: [int.from_bytes(t.encode(), "big"), df])),
            lambda doc: json.dumps(with_tokens(doc, lambda t, df: ["same", df])),
            lambda doc: json.dumps(with_num_documents(doc, -3)),
            lambda doc: json.dumps(with_num_documents(doc, "30")),
            lambda doc: json.dumps(with_num_documents(doc, 10**400)),
            lambda doc: json.dumps({**doc, "classes": [0, 1, 7]}),
            lambda doc: json.dumps({**doc, "classes": ["a", "b", "c"]}),
            lambda doc: json.dumps({**doc, "weights": [[float("nan")] * len(row) for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "weights": [[float("inf")] + row[1:] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "bias": [float("nan")] * len(doc["bias"])}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "a\nb": 1}}),
            lambda doc: json.dumps({**doc, "weights": [[str(w) for w in row] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "weights": [[True] + row[1:] for row in doc["weights"]]}),
            lambda doc: json.dumps({**doc, "bias": [str(b) for b in doc["bias"]]}),
            lambda doc: json.dumps({**doc, "bias": [False] * len(doc["bias"])}),
            lambda doc: json.dumps({**doc, "format_version": True}),
            lambda doc: json.dumps({**doc, "classes": [0.0, 1.0, 2.0]}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "seed": -1}}),
            lambda doc: json.dumps({**doc, "config": {**doc["config"], "seed": 2**32}}),
        ],
        ids=[
            "not-json", "not-an-object", "no-weights", "no-tokens", "too-few-weight-rows",
            "short-weight-rows", "ragged-weights", "short-bias", "nested-bias", "unknown-task",
            "bad-config", "wide-weight-rows", "string-df", "negative-df", "df-above-documents",
            "int-tokens", "repeated-token", "negative-documents", "string-documents",
            "huge-documents", "wrong-classes", "string-classes", "nan-weights", "inf-weight",
            "nan-bias", "unknown-config-key", "string-weights", "bool-weight", "string-bias",
            "bool-bias", "bool-version", "float-classes", "negative-seed", "seed-above-range",
        ],
    )
    def test_corrupt_model_rejected(self, tmp_path, corrupt):
        path = tmp_path / "model.json"
        save_model(path, self.trained())
        path.write_text(corrupt(json.loads(path.read_text())))
        with pytest.raises(CorruptModel) as raised:
            load_model(path)
        assert "\n" not in str(raised.value)
