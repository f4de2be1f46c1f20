"""Reference SGD trainer: the sparse trainer as it was before ``V`` was
stored transposed, kept as the oracle the differential test compares
``vulnrank.triage.svm.train`` with. ``split`` is the train/test split as
it was while it drew its orders from ``numpy.random.RandomState``, the
oracle for the standard-library shuffle.

It keeps ``W = s * V`` as a ``(K, vocab.size + 1)`` array whose last
column is the bias, and does every step's arithmetic on numpy arrays.
The library trainer must reproduce its weights and biases bit for bit.
"""

import warnings
from typing import Callable, Hashable, Sequence

import numpy as np

from vulnrank.feeds import InvalidCategory
from vulnrank.triage.features import EmptyCorpus, Vocabulary, design_matrix
from vulnrank.triage.svm import (
    CorpusTooSmall,
    DegenerateTaskWarning,
    Doc,
    LinearModel,
    Task,
    TrainConfig,
)

# Below this the scale of W = s * V is folded back into V.
_SCALE_FLOOR = 1e-9


def _validate_labels(task: Task, docs: Sequence[Doc]) -> np.ndarray:
    labels = []
    for _, (cve_id, judgment, _) in docs:
        label = task.label_of(judgment)
        if label not in task.classes:
            raise InvalidCategory(f"{cve_id}: label {label} illegal for task {task.value}")
        labels.append(label)
    return np.array(labels)


def train(
    task: Task,
    docs: Sequence[Doc],
    vocab: Vocabulary,
    config: TrainConfig = TrainConfig(),
) -> LinearModel:
    """Fit one binary classifier per class over the task's full class set.

    A single-class train set cannot support discrimination; the model
    then predicts that class constantly and a DegenerateTaskWarning is
    emitted instead of failing, which is what sparse label regimes need.
    """
    if not docs:
        raise EmptyCorpus("train set is empty")
    labels = _validate_labels(task, docs)
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

    X = design_matrix(vocab, [text for text, _ in docs])
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


def split(
    examples: Sequence[Doc],
    train_fraction: float = 0.8,
    seed: int = 42,
    stratify_key: Callable[[Doc], Hashable] | None = None,
) -> tuple[list[Doc], list[Doc]]:
    """Seeded shuffle-then-prefix split into (train, test)."""
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
