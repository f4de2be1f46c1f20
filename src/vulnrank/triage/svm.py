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
floats. A step then makes one numpy call, ``val.dot(Vt.take(idx, 0))``,
which gathers the document's rows into one contiguous block and takes
its K dot products. ``val.dot(block)`` reaches the same BLAS call as
``val @ block`` and returns the same bytes, without the matmul ufunc's
dispatch. Everything else in a step is Python float arithmetic on K
values: the margins, the per-class ``m < 1.0`` tests, the decay of
``s``, the step size and the bias. Python floats round
exactly as numpy's float64 does, and each expression keeps the
operation order the trainer had when V was a (K, vocabulary + 1)
array, so training still yields the same bytes. Only a step that
violates a margin computes a step size and touches ``Vt`` again: it adds
the outer product of the document's values and the K steps to the
gathered block, which still equals ``Vt[idx]``, and stores the sum
back, as ``Vt[idx] +=`` would. The layout is fixed for that
identity, not for speed alone: the gathered (nnz, K) block has the same
memory image as the F-ordered ``V[:, idx]`` numpy returned before, so
both reach the same BLAS kernel and sum each dot product in the same
order. Another layout may sum in another order, and a margin that moves
in its last bit can flip a ``m < 1.0`` test and change the model. A
margin that is NaN never violates, as numpy's elementwise test had it.
A model whose weights or bias end up non-finite raises TrainingDiverged.

Training is single-threaded and fully deterministic: the per-epoch
shuffle order comes from one seeded generator, so identical data, config
and seed reproduce bitwise-identical weights. The generator is the
standard library's Mersenne Twister (MT19937) seeded as numpy's legacy
``RandomState(seed)`` seeds it, and a shuffle draws as its
``permutation`` does, so every order is the one ``RandomState`` gives
without loading ``numpy.random``. The ``vulnrank`` command sets
``OPENBLAS_NUM_THREADS=1`` unless it is already set (``vulnrank.__main__``),
so numpy starts no OpenBLAS worker threads: the one BLAS call, a step's
(nnz,) by (nnz, K) product, is far too small to be split between
threads, and the weights do not depend on the setting.
"""

from __future__ import annotations

import math
import operator
import random
import warnings
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from vulnrank.feeds import InvalidCategory, LabelRow, Task
from vulnrank.triage import features
from vulnrank.triage.features import EmptyCorpus, Vocabulary, design_matrix

# Below this the scale of W = s * V is folded back into V.
_SCALE_FLOOR = 1e-9
# The seeds of the legacy MT19937 seeding: one 32-bit word.
SEED_RANGE = (0, 2**32 - 1)
# A training document: a description and its label row, as feeds.attach_descriptions pairs them.
Doc = tuple[str, LabelRow]


class CorpusTooSmall(ValueError):
    """Too few labeled examples to split into train and test sets."""


class TrainingDiverged(ArithmeticError):
    """Training ended with a weight or bias that is not finite."""


class DegenerateTaskWarning(UserWarning):
    """Train set holds a single class; the model will predict it constantly."""


def _integer(name: str, value) -> int:
    """``value`` as an int; ValueError for a bool or a value that is not an
    integer (``operator.index`` takes numpy integers too)."""
    # bool is an int subclass, so True would otherwise pass as 1.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _checked_seed(seed) -> int:
    seed = _integer("seed", seed)
    low, high = SEED_RANGE
    if not low <= seed <= high:
        raise ValueError(f"seed must be in [{low}, {high}], got {seed!r}")
    return seed


def _generator(seed: int) -> random.Random:
    """A Mersenne Twister in the state numpy's legacy ``RandomState(seed)``
    starts from: its 624 key words from the recurrence of ``mt19937_seed``,
    with the next draw regenerating them all."""
    key = [seed]
    for i in range(1, 624):
        prev = key[-1]
        key.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    rng = random.Random()
    rng.setstate((3, (*key, 624), None))
    return rng


def _permutation(rng: random.Random, n: int) -> list[int]:
    """``range(n)`` shuffled as legacy ``RandomState.permutation(n)`` shuffles
    it from the same state: a Fisher-Yates pass from the end, each index
    drawn as a masked 32-bit word and redrawn while it exceeds ``i``."""
    order = list(range(n))
    draw = rng.getrandbits
    top = n - 1
    while top > 0:
        # The mask is the smallest all-ones word covering i: one for every
        # i from top down to mask >> 1, exclusive.
        mask = (1 << top.bit_length()) - 1
        for i in range(top, mask >> 1, -1):
            j = draw(32) & mask
            while j > i:
                j = draw(32) & mask
            order[i], order[j] = order[j], order[i]
        top = mask >> 1
    return order


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    reg_lambda: float = 1e-4
    seed: int = 42
    schedule: str = "inv_lambda_t"

    def __post_init__(self):
        epochs = _integer("epochs", self.epochs)
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        # bool is an int subclass, so True would otherwise pass as 1. An
        # int or a float is kept as given, and the model file's JSON holds
        # that number; a numpy float32 or int64 would not serialise.
        if isinstance(self.reg_lambda, bool) or not isinstance(self.reg_lambda, (int, float)):
            raise ValueError(f"reg_lambda must be an int or a float, got {self.reg_lambda!r}")
        # An infinite lambda makes every step 1/(inf * t) = 0, an all-zero
        # model, and a model file holding Infinity, which is not JSON.
        if not 0 < self.reg_lambda < math.inf:
            raise ValueError(f"reg_lambda must be positive and finite, got {self.reg_lambda!r}")
        # A numpy integer is stored as the int it is, so the model file's
        # JSON holds a plain number.
        object.__setattr__(self, "epochs", epochs)
        object.__setattr__(self, "seed", _checked_seed(self.seed))
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
    examples: Sequence[Doc],
    train_fraction: float = 0.8,
    seed: int = 42,
    stratify_key: Callable[[Doc], Hashable] | None = None,
) -> tuple[list[Doc], list[Doc]]:
    """Seeded shuffle-then-prefix split into (train, test).

    The partition is exact: train and test are disjoint and together
    hold every example. Unstratified by default; pass ``stratify_key``
    to split each key group at the same fraction instead. ``seed`` must
    be an integer in ``SEED_RANGE``; anything else raises ValueError.
    """
    n = len(examples)
    if n < 5:
        raise CorpusTooSmall(f"need at least 5 examples, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")

    rng = _generator(_checked_seed(seed))
    if stratify_key is None:
        order = _permutation(rng, n)
        cut = int(train_fraction * n)
        train_idx, test_idx = order[:cut], order[cut:]
    else:
        groups: dict[Hashable, list[int]] = {}
        for i, ex in enumerate(examples):
            groups.setdefault(stratify_key(ex), []).append(i)
        train_idx, test_idx = [], []
        for key in sorted(groups, key=repr):
            members = groups[key]
            order = _permutation(rng, len(members))
            cut = int(train_fraction * len(members))
            train_idx += [members[i] for i in order[:cut]]
            test_idx += [members[i] for i in order[cut:]]
    if len(train_idx) == 0 or len(test_idx) == 0:
        raise ValueError(f"fraction {train_fraction} leaves an empty train or test set")
    return [examples[i] for i in train_idx], [examples[i] for i in test_idx]


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
    """Fit one binary classifier per class over the task's full class set,
    from ``(description, row)`` pairs.

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
    rows = [(X.indices[a:b], X.data[a:b]) for a, b in zip(bounds, bounds[1:])]
    Y = [[1.0 if label == c else -1.0 for c in classes] for label in labels.tolist()]

    # W = s * V, with V held transposed as Vt (one row per token) and its
    # bias column, the weight of the constant feature every document
    # holds with value 1, as the Python list ``bias``.
    Vt = np.zeros((vocab.size, n_classes))
    bias = [0.0] * n_classes
    s = 1.0
    lam = config.reg_lambda
    rng = _generator(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in _permutation(rng, len(rows)):
            t += 1
            idx, val = rows[i]
            ys = Y[i]
            block = Vt.take(idx, 0)
            # m < 1.0 per class, not min(margins): a NaN margin never violates.
            violated = [
                y * (s * (d + b)) < 1.0 for y, d, b in zip(ys, val.dot(block).tolist(), bias)
            ]
            if t > 1:
                s *= 1.0 - 1.0 / t
            if True in violated:
                eta = 1.0 / (lam * t)
                step = [eta * y / s if v else 0.0 for y, v in zip(ys, violated)]
                # The gathered rows are Vt[idx] as it still is; their sum
                # with the update is what Vt[idx] += would store.
                block += np.multiply.outer(val, step)
                Vt[idx] = block
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
    """Predicted category of every text, from sparse-dense products over
    ``BLOCK_TEXTS`` texts at a time, so memory does not grow with the corpus.

    Texts are weighted with the model's own vocabulary. Each row's
    scores do not depend on the other rows, and ties go to the lowest
    category value.
    """
    classes, block = model.classes, features.BLOCK_TEXTS
    predicted: list[int] = []
    for lo in range(0, len(texts), block):
        scores = design_matrix(model.vocab, texts[lo : lo + block]) @ model.weights.T + model.bias
        predicted += [classes[best] for best in np.argmax(scores, axis=1).tolist()]
    return predicted
