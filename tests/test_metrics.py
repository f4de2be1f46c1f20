"""Evaluation metrics against hand-computed confusion matrices."""

import random
from datetime import datetime, timezone

import pytest

from vulnrank.feeds import Judgment, Labeler, Task
from vulnrank.triage.features import fit_vocabulary
from vulnrank.triage.metrics import EmptyTestSet, evaluate, evaluate_predictions
from vulnrank.triage.svm import TrainConfig, train


def realize(matrix, classes):
    """Truth/prediction sequences reproducing a confusion matrix."""
    y_true, y_pred = [], []
    for ti, row in enumerate(matrix):
        for pi, count in enumerate(row):
            y_true.extend([classes[ti]] * count)
            y_pred.extend([classes[pi]] * count)
    return y_true, y_pred


class TestHandComputedMatrices:
    def test_three_class_matrix(self):
        # [[2,1,0],[0,2,0],[1,0,4]]: 8 of 10 on the diagonal.
        # class 0: tp=2 fp=1 fn=1 -> P=R=2/3, F=2/3
        # class 1: tp=2 fp=1 fn=0 -> P=2/3, R=1, F=4/5
        # class 2: tp=4 fp=0 fn=1 -> P=1, R=4/5, F=8/9
        y_true, y_pred = realize([[2, 1, 0], [0, 2, 0], [1, 0, 4]], (0, 1, 2))
        report = evaluate_predictions((0, 1, 2), y_true, y_pred)
        assert report.micro_f == pytest.approx(8 / 10, abs=1e-9)
        assert report.f1 == pytest.approx((2 / 3, 4 / 5, 8 / 9), abs=1e-9)
        assert report.precision == pytest.approx((2 / 3, 2 / 3, 1.0), abs=1e-9)
        assert report.recall == pytest.approx((2 / 3, 1.0, 4 / 5), abs=1e-9)
        assert report.macro_f == pytest.approx((2 / 3 + 4 / 5 + 8 / 9) / 3, abs=1e-9)
        assert report.weighted_f == pytest.approx(
            (3 * (2 / 3) + 2 * (4 / 5) + 5 * (8 / 9)) / 10, abs=1e-9
        )
        assert report.support == (3, 2, 5)

    def test_two_class_matrix(self):
        # [[5,0],[2,3]]: class 0 P=5/7 R=1 F=5/6; class 1 P=1 R=3/5 F=3/4.
        y_true, y_pred = realize([[5, 0], [2, 3]], (0, 1))
        report = evaluate_predictions((0, 1), y_true, y_pred)
        assert report.micro_f == pytest.approx(8 / 10, abs=1e-9)
        assert report.f1 == pytest.approx((5 / 6, 3 / 4), abs=1e-9)
        # Equal supports: macro and weighted coincide.
        assert report.macro_f == pytest.approx(19 / 24, abs=1e-9)
        assert report.weighted_f == pytest.approx(report.macro_f, abs=1e-12)

    def test_zero_denominators_defined_as_zero(self):
        # [[0,2],[0,3]]: class 0 never predicted and never correct.
        y_true, y_pred = realize([[0, 2], [0, 3]], (0, 1))
        report = evaluate_predictions((0, 1), y_true, y_pred)
        assert report.precision[0] == 0.0
        assert report.recall[0] == 0.0
        assert report.f1[0] == 0.0
        assert report.micro_f == pytest.approx(3 / 5, abs=1e-9)
        assert report.macro_f == pytest.approx(0.375, abs=1e-9)
        assert report.weighted_f == pytest.approx(0.45, abs=1e-9)


class TestAggregateProperties:
    def test_perfect_predictions(self):
        y = [0, 1, 2, 1, 0, 2, 2]
        report = evaluate_predictions((0, 1, 2), y, list(y))
        assert report.micro_f == 1.0
        assert report.macro_f == 1.0
        assert report.weighted_f == 1.0

    def test_micro_f_equals_accuracy_exactly(self):
        rng = random.Random(21)
        for _ in range(30):
            classes = (0, 1, 2) if rng.random() < 0.5 else (0, 1)
            n = rng.randrange(1, 60)
            y_true = [rng.choice(classes) for _ in range(n)]
            y_pred = [rng.choice(classes) for _ in range(n)]
            report = evaluate_predictions(classes, y_true, y_pred)
            accuracy = sum(t == p for t, p in zip(y_true, y_pred)) / n
            assert report.micro_f == accuracy  # bitwise, not approximate

    def test_macro_equals_weighted_on_balanced_supports(self):
        rng = random.Random(8)
        classes = (0, 1, 2)
        y_true = [c for c in classes for _ in range(12)]
        y_pred = [rng.choice(classes) for _ in y_true]
        report = evaluate_predictions(classes, y_true, y_pred)
        assert report.weighted_f == pytest.approx(report.macro_f, abs=1e-12)

    def test_row_sums_equal_supports(self):
        rng = random.Random(4)
        classes = (0, 1, 2)
        y_true = [rng.choice(classes) for _ in range(40)]
        y_pred = [rng.choice(classes) for _ in range(40)]
        report = evaluate_predictions(classes, y_true, y_pred)
        assert tuple(report.confusion.sum(axis=1)) == report.support
        assert report.confusion.sum() == 40

    def test_scores_bounded(self):
        rng = random.Random(17)
        y_true = [rng.choice((0, 1)) for _ in range(25)]
        y_pred = [rng.choice((0, 1)) for _ in range(25)]
        report = evaluate_predictions((0, 1), y_true, y_pred)
        for series in (report.precision, report.recall, report.f1):
            assert all(0.0 <= v <= 1.0 for v in series)
        assert 0.0 <= report.micro_f <= 1.0
        assert 0.0 <= report.macro_f <= 1.0
        assert 0.0 <= report.weighted_f <= 1.0

    def test_empty_test_set(self):
        with pytest.raises(EmptyTestSet):
            evaluate_predictions((0, 1), [], [])

    def test_evaluate_empty_test_set(self):
        # No prediction to score: evaluate_predictions raises for evaluate.
        corpus = [
            (
                ("alpha" if n % 2 else "beta") + " filler",
                (
                    f"CVE-2021-{n:05d}",
                    Judgment(n % 2, 0, Labeler.SME),
                    datetime(2021, 1, 1, tzinfo=timezone.utc),
                ),
            )
            for n in range(4)
        ]
        vocab = fit_vocabulary([text for text, _ in corpus], min_df=1)
        model = train(Task.UTILITY, corpus, vocab, TrainConfig(epochs=1))
        with pytest.raises(EmptyTestSet, match=r"^no examples to evaluate$"):
            evaluate(model, [])

    def test_report_lines_render(self):
        y_true, y_pred = realize([[5, 0], [2, 3]], (0, 1))
        report = evaluate_predictions((0, 1), y_true, y_pred)
        lines = report.lines()
        assert any("micro-F" in line for line in lines)
        assert len(lines) == 4
