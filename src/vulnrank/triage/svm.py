"""One-vs-rest linear SVM trained by stochastic sub-gradient descent.

L2-regularized hinge loss with the 1/(lambda*t) step schedule. The bias
is trained as a regularized constant feature, which keeps the huge early
steps of the schedule from leaving an unshrinkable offset behind; it is
still stored and exposed separately from the token weights.

The trainer keeps the augmented weights as W = s * V, a scalar times a
matrix, so the per-step decay W *= 1 - 1/t costs one multiplication of
``s`` and a step touches only the columns the sampled document holds:
O(K * nnz) per step instead of O(K * V) for K classes. At t = 1 the
decay factor is 0, but W is still zero there, so ``s`` stays 1 instead
of collapsing to 0. Whenever ``s`` falls below a fixed floor it is folded
back into V (V *= s, s = 1), so V stays far from overflow however long
training runs.

Training is single-threaded and fully deterministic: the per-epoch
shuffle order comes from one seeded generator, so identical data, config
and seed reproduce bitwise-identical weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Hashable, Sequence

import numpy as np

from vulnrank.feeds import InvalidCategory, LabeledExample
from vulnrank.triage.features import EmptyCorpus, Vocabulary, design_matrix

# Below this the scale of W = s * V is folded back into V.
_SCALE_FLOOR = 1e-9


class CorpusTooSmall(ValueError):
    """Too few labeled examples to split into train and test sets."""


class DegenerateTaskWarning(UserWarning):
    """Train set holds a single class; the model will predict it constantly."""


class Task(Enum):
    UTILITY = "utility"
    OPPORTUNE = "opportune"

    @property
    def classes(self) -> tuple[int, ...]:
        return (0, 1, 2) if self is Task.UTILITY else (0, 1)

    def label_of(self, example: LabeledExample) -> int:
        return example.utility if self is Task.UTILITY else example.opportune


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    reg_lambda: float = 1e-4
    seed: int = 42
    schedule: str = "inv_lambda_t"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not self.reg_lambda > 0:
            raise ValueError("reg_lambda must be positive")
        if self.schedule != "inv_lambda_t":
            raise ValueError(f"unsupported step schedule {self.schedule!r}")


@dataclass(eq=False)
class LinearModel:
    """Per-class weight vectors and biases over a fixed vocabulary.

    Row ``i`` of ``weights`` and ``bias[i]`` score ``classes[i]``.
    """

    task: Task
    weights: np.ndarray
    bias: np.ndarray
    vocab: Vocabulary
    config: TrainConfig

    @property
    def classes(self) -> tuple[int, ...]:
        return self.task.classes


def split(
    examples: Sequence[LabeledExample],
    train_fraction: float = 0.8,
    seed: int = 42,
    stratify_key: Callable[[LabeledExample], Hashable] | None = None,
) -> tuple[list[LabeledExample], list[LabeledExample]]:
    """Seeded shuffle-then-prefix split into (train, test).

    The partition is exact: train and test are disjoint and together
    hold every example. Unstratified by default; pass ``stratify_key``
    to split each key group at the same fraction instead.
    """
    n = len(examples)
    if n < 5:
        raise CorpusTooSmall(f"need at least 5 examples, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")

    rng = np.random.RandomState(seed)
    if stratify_key is None:
        order = rng.permutation(n)
        cut = int(train_fraction * n)
        train_idx, test_idx = order[:cut], order[cut:]
    else:
        groups: dict[Hashable, list[int]] = {}
        for i, ex in enumerate(examples):
            groups.setdefault(stratify_key(ex), []).append(i)
        train_idx, test_idx = [], []
        for key in sorted(groups, key=repr):
            members = np.array(groups[key])
            order = rng.permutation(len(members))
            cut = int(train_fraction * len(members))
            train_idx.extend(members[order[:cut]])
            test_idx.extend(members[order[cut:]])
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ValueError(f"fraction {train_fraction} leaves an empty train or test set")
    return [examples[i] for i in train_idx], [examples[i] for i in test_idx]


def _validate_labels(task: Task, examples: Sequence[LabeledExample]) -> np.ndarray:
    labels = []
    for ex in examples:
        label = task.label_of(ex)
        if label not in task.classes:
            raise InvalidCategory(f"{ex.cve_id}: label {label} illegal for task {task.value}")
        labels.append(label)
    return np.array(labels)


def train(
    task: Task,
    examples: Sequence[LabeledExample],
    vocab: Vocabulary,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Fit one binary classifier per class over the task's full class set.

    A single-class train set cannot support discrimination; the model
    then predicts that class constantly and a DegenerateTaskWarning is
    emitted instead of failing, which is what sparse label regimes need.
    """
    if not examples:
        raise EmptyCorpus("train set is empty")
    labels = _validate_labels(task, examples)
    classes = task.classes
    n_classes = len(classes)

    present = set(labels.tolist())
    if len(present) == 1:
        only = present.pop()
        warnings.warn(
            f"train set for {task.value} holds the single class {only}; "
            "producing a constant predictor",
            DegenerateTaskWarning,
        )
        bias = np.where(np.array(classes) == only, 1.0, -1.0)
        return LinearModel(
            task=task,
            weights=np.zeros((n_classes, vocab.size)),
            bias=bias,
            vocab=vocab,
            config=config,
        )

    X = design_matrix(vocab, [ex.description for ex in examples])
    bounds = X.indptr.tolist()
    Y = np.where(labels[:, None] == np.array(classes), 1.0, -1.0)

    # W = s * V; the last column of V is the weight of the constant
    # bias feature, which every document holds with value 1.
    V = np.zeros((n_classes, vocab.size + 1))
    s = 1.0
    lam = config.reg_lambda
    rng = np.random.RandomState(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(X.shape[0]).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            idx = X.indices[bounds[i] : bounds[i + 1]]
            val = X.data[bounds[i] : bounds[i + 1]]
            ys = Y[i]
            margins = ys * (s * (V[:, idx] @ val + V[:, -1]))
            if t > 1:
                s *= 1.0 - 1.0 / t
            violated = margins < 1.0
            if violated.any():
                step = np.where(violated, eta * ys / s, 0.0)
                V[:, idx] += step[:, None] * val
                V[:, -1] += step
            if s < _SCALE_FLOOR:
                V *= s
                s = 1.0

    return LinearModel(
        task=task,
        weights=s * V[:, :-1],
        bias=s * V[:, -1],
        vocab=vocab,
        config=config,
    )


def predict_texts(model: LinearModel, texts: Sequence[str]) -> list[int]:
    """Predicted category of every text, from one sparse-dense product.

    Texts are weighted with the model's own vocabulary. Each row's
    scores do not depend on the other rows, and ties go to the lowest
    category value.
    """
    scores = design_matrix(model.vocab, texts) @ model.weights.T + model.bias
    return [model.classes[best] for best in np.argmax(scores, axis=1).tolist()]
