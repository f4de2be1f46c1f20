"""Triage automation: tf-idf text features, linear classifiers, evaluation.

Predicts the utility and opportune categories from CVE description text
so that subject-matter experts only have to label a seed corpus.
"""

from vulnrank.triage.features import (
    CsrMatrix,
    EmptyCorpus,
    Vocabulary,
    design_matrix,
    fit_vocabulary,
    tokenize,
)
from vulnrank.triage.metrics import EmptyTestSet, EvalReport, evaluate, evaluate_predictions
from vulnrank.triage.modelio import (
    MODEL_FORMAT_VERSION,
    CorruptModel,
    ModelVersionError,
    load_model,
    save_model,
)
from vulnrank.triage.svm import (
    CorpusTooSmall,
    DegenerateTaskWarning,
    LinearModel,
    Task,
    TrainConfig,
    predict_texts,
    split,
    train,
)

__all__ = [
    "CorpusTooSmall",
    "CorruptModel",
    "CsrMatrix",
    "DegenerateTaskWarning",
    "EmptyCorpus",
    "EmptyTestSet",
    "EvalReport",
    "LinearModel",
    "MODEL_FORMAT_VERSION",
    "ModelVersionError",
    "Task",
    "TrainConfig",
    "Vocabulary",
    "design_matrix",
    "evaluate",
    "evaluate_predictions",
    "fit_vocabulary",
    "load_model",
    "predict_texts",
    "save_model",
    "split",
    "tokenize",
    "train",
]
