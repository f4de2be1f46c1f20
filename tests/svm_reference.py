"""Reference SGD trainer: the sparse trainer as it was before ``V`` was
stored transposed, kept as the oracle the differential test compares
``vulnrank.triage.svm.train`` with.

It keeps ``W = s * V`` as a ``(K, vocab.size + 1)`` array whose last
column is the bias, and does every step's arithmetic on numpy arrays.
The library trainer must reproduce its weights and biases bit for bit.
"""

import warnings
from typing import Sequence

import numpy as np

from vulnrank.feeds import LabeledExample
from vulnrank.triage.features import EmptyCorpus, Vocabulary, design_matrix
from vulnrank.triage.svm import (
    DegenerateTaskWarning,
    LinearModel,
    Task,
    TrainConfig,
    _validate_labels,
)

# Below this the scale of W = s * V is folded back into V.
_SCALE_FLOOR = 1e-9


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
