"""Multiclass evaluation: per-class precision/recall/F1 and the three F averages.

All ratios define 0/0 as 0. F1 is computed as 2*tp / (2*tp + fp + fn),
which for single-label tasks makes the micro average equal accuracy
bit-for-bit, not just approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from vulnrank.triage.svm import Doc, LinearModel, predict_texts


class EmptyTestSet(ValueError):
    """Evaluation needs at least one example."""


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix (rows true, columns predicted) plus derived scores."""

    classes: tuple[int, ...]
    confusion: np.ndarray
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]
    micro_f: float
    macro_f: float
    weighted_f: float

    def lines(self) -> list[str]:
        """Human-readable per-class and aggregate rows."""
        out = [f"{'class':>8} {'precision':>10} {'recall':>10} {'f1':>10} {'support':>8}"]
        for i, c in enumerate(self.classes):
            out.append(
                f"{c:>8} {self.precision[i]:>10.4f} {self.recall[i]:>10.4f} "
                f"{self.f1[i]:>10.4f} {self.support[i]:>8}"
            )
        out.append(
            f"micro-F {self.micro_f:.4f}  macro-F {self.macro_f:.4f}  "
            f"weighted-F {self.weighted_f:.4f}"
        )
        return out


def evaluate_predictions(
    classes: Sequence[int], y_true: Sequence[int], y_pred: Sequence[int]
) -> EvalReport:
    """Build an EvalReport from parallel truth and prediction sequences."""
    if len(y_true) == 0:
        raise EmptyTestSet("no examples to evaluate")
    if len(y_true) != len(y_pred):
        raise ValueError("y_true and y_pred differ in length")
    classes = tuple(classes)
    pos = {c: i for i, c in enumerate(classes)}
    k = len(classes)
    confusion = np.zeros((k, k), dtype=int)
    for t, p in zip(y_true, y_pred):
        confusion[pos[t], pos[p]] += 1

    tp = np.diag(confusion).astype(float)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    support = confusion.sum(axis=1)

    precision = tuple(_ratio(tp[i], tp[i] + fp[i]) for i in range(k))
    recall = tuple(_ratio(tp[i], tp[i] + fn[i]) for i in range(k))
    f1 = tuple(_ratio(2 * tp[i], 2 * tp[i] + fp[i] + fn[i]) for i in range(k))

    micro_f = _ratio(2 * tp.sum(), 2 * tp.sum() + fp.sum() + fn.sum())
    macro_f = sum(f1) / k
    weighted_f = _ratio(sum(s * f for s, f in zip(support, f1)), float(support.sum()))

    return EvalReport(
        classes=classes,
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        support=tuple(int(s) for s in support),
        micro_f=micro_f,
        macro_f=macro_f,
        weighted_f=weighted_f,
    )


def evaluate(model: LinearModel, docs: Sequence[Doc]) -> EvalReport:
    """Predict every ``(description, row)`` doc and score against its judgment's task label."""
    y_true = [model.task.label_of(judgment) for _, (_, judgment, _) in docs]
    y_pred = predict_texts(model, [text for text, _ in docs])
    return evaluate_predictions(model.classes, y_true, y_pred)
