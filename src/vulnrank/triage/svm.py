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

V is held transposed, as a C-contiguous (vocabulary, K) array ``Vt``
with one row per token, and its bias column as a list of K Python
floats. A step then makes one numpy call, ``val @ Vt.take(idx, 0)``,
which gathers the document's rows into one contiguous block and takes
its K dot products. Everything else in a step is Python float
arithmetic on K values: the margins, the per-class ``m < 1.0`` tests,
the decay of ``s``, the step size and the bias. Python floats round
exactly as numpy's float64 does, and each expression keeps the
operation order the trainer had when V was a (K, vocabulary + 1)
array, so training still yields the same bytes. Only a step that
violates a margin touches ``Vt`` again, adding the outer product of the
document's values and the K steps. The layout is fixed for that
identity, not for speed alone: the gathered (nnz, K) block has the same
memory image as the F-ordered ``V[:, idx]`` numpy returned before, so
both reach the same BLAS kernel and sum each dot product in the same
order. Another layout may sum in another order, and a margin that moves
in its last bit can flip a ``m < 1.0`` test and change the model. A
margin that is NaN never violates, as numpy's elementwise test had it.
A model whose weights or bias end up non-finite raises TrainingDiverged.

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
# The seeds numpy's RandomState accepts.
SEED_RANGE = (0, 2**32 - 1)


class CorpusTooSmall(ValueError):
    """Too few labeled examples to split into train and test sets."""


class TrainingDiverged(ArithmeticError):
    """Training ended with a weight or bias that is not finite."""


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
        low, high = SEED_RANGE
        if not low <= self.seed <= high:
            raise ValueError(f"seed must be in [{low}, {high}], got {self.seed!r}")
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
    rows = [(X.indices[a:b], X.data[a:b]) for a, b in zip(bounds, bounds[1:])]
    Y = [[1.0 if label == c else -1.0 for c in classes] for label in labels.tolist()]

    # W = s * V, with V held transposed as Vt (one row per token) and its
    # bias column, the weight of the constant feature every document
    # holds with value 1, as the Python list ``bias``.
    Vt = np.zeros((vocab.size, n_classes))
    bias = [0.0] * n_classes
    s = 1.0
    lam = config.reg_lambda
    rng = np.random.RandomState(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(X.shape[0]).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            idx, val = rows[i]
            ys = Y[i]
            dots = (val @ Vt.take(idx, 0)).tolist()
            margins = [y * (s * (d + b)) for y, d, b in zip(ys, dots, bias)]
            if t > 1:
                s *= 1.0 - 1.0 / t
            # m < 1.0 per class, not min(margins): a NaN margin never violates.
            if any(m < 1.0 for m in margins):
                step = [eta * y / s if m < 1.0 else 0.0 for y, m in zip(ys, margins)]
                Vt[idx] += np.multiply.outer(val, step)
                bias = [b + st for b, st in zip(bias, step)]
            if s < _SCALE_FLOOR:
                Vt *= s
                bias = [b * s for b in bias]
                s = 1.0

    weights = np.ascontiguousarray((s * Vt).T)
    bias = np.array([s * b for b in bias])
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise TrainingDiverged(
            f"training the {task.value} model diverged to non-finite weights "
            f"(reg_lambda {lam!r}, epochs {config.epochs})"
        )
    return LinearModel(task=task, weights=weights, bias=bias, vocab=vocab, config=config)


def predict_texts(model: LinearModel, texts: Sequence[str]) -> list[int]:
    """Predicted category of every text, from one sparse-dense product.

    Texts are weighted with the model's own vocabulary. Each row's
    scores do not depend on the other rows, and ties go to the lowest
    category value.
    """
    scores = design_matrix(model.vocab, texts) @ model.weights.T + model.bias
    return [model.classes[best] for best in np.argmax(scores, axis=1).tolist()]
