"""Versioned model files: JSON holding task, vocabulary, weights, and config.

Floats are serialized via their shortest round-tripping repr, so a
save/load/save cycle is byte-identical. Saving writes a temporary file
beside the target and renames it into place, so a failed save never
leaves a partial model. Loading rejects any format version other than
the one this code writes, and any file that does not hold a complete,
consistently shaped model with a valid vocabulary and finite weights
that are JSON numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Iterator

import numpy as np

from vulnrank.feeds import write_atomic
from vulnrank.triage.features import Vocabulary
from vulnrank.triage.svm import LinearModel, Task, TrainConfig

MODEL_FORMAT_VERSION = 1


class ModelVersionError(ValueError):
    """Model file format version is not supported by this code."""


class CorruptModel(ModelVersionError):
    """Model file is not JSON, lacks a field, or holds a bad value or shape."""


def save_model(path, model: LinearModel) -> None:
    tokens = sorted(model.vocab.index, key=model.vocab.index.__getitem__)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "task": model.task.value,
        "classes": list(model.classes),
        "config": asdict(model.config),
        "vocabulary": {
            "num_documents": model.vocab.num_documents,
            "tokens": [[t, model.vocab.document_frequency[t]] for t in tokens],
        },
        "weights": model.weights,
        "bias": model.bias.tolist(),
    }
    write_atomic(path, _json_parts(doc))


def _json_parts(doc: dict) -> Iterator[bytes]:
    """The bytes of ``json.dumps(doc) + "\\n"``, one part per key and one per
    row of an array value, so no part holds a whole model."""
    for i, (key, value) in enumerate(doc.items()):
        head = f'{", " if i else "{"}{json.dumps(key)}: '
        if isinstance(value, np.ndarray):
            yield f"{head}[".encode()
            for j, row in enumerate(value):
                yield f'{", " if j else ""}{json.dumps(row.tolist())}'.encode()
            yield b"]"
        else:
            yield f"{head}{json.dumps(value)}".encode()
    yield b"}\n"


def load_model(path) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # also UnicodeDecodeError
            raise CorruptModel(f"{path}: not a JSON model file: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptModel(f"{path}: model file holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    # type() rather than isinstance(), because true == 1 and bool is an int.
    if type(version) is not int:
        raise CorruptModel(f"{path}: format_version {version!r} is not an integer")
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"{path}: model format version {version!r} unsupported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    try:
        tokens = doc["vocabulary"]["tokens"]
        index = {t: i for i, (t, _) in enumerate(tokens)}
        if len(index) != len(tokens):
            raise ValueError("the vocabulary lists a token twice")
        vocab = Vocabulary(
            index=index,
            document_frequency={t: df for t, df in tokens},
            num_documents=doc["vocabulary"]["num_documents"],
        )
        # Checked first: TrainConfig's TypeError would quote an unknown key
        # unescaped, so a key holding a newline would split the error line.
        unknown = set(doc["config"]) - TrainConfig.__dataclass_fields__.keys()
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)!r}")
        model = LinearModel(
            task=Task(doc["task"]),
            weights=np.array(doc["weights"], dtype=float),
            bias=np.array(doc["bias"], dtype=float),
            vocab=vocab,
            config=TrainConfig(**doc["config"]),
        )
        classes = doc["classes"]
    except KeyError as exc:
        raise CorruptModel(f"{path}: model file lacks the key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise CorruptModel(f"{path}: malformed model file: {exc}") from None
    if classes != list(model.classes) or any(type(c) is not int for c in classes):
        raise CorruptModel(
            f"{path}: classes {classes!r} are not the {model.task.value} classes "
            f"{list(model.classes)}"
        )
    k = len(model.classes)
    if model.weights.shape != (k, vocab.size):
        raise CorruptModel(
            f"{path}: weights have shape {model.weights.shape}, expected {(k, vocab.size)}"
        )
    if model.bias.shape != (k,):
        raise CorruptModel(f"{path}: bias has shape {model.bias.shape}, expected {(k,)}")
    # The shapes hold, so weights is k lists of numbers and bias one list;
    # np.array(dtype=float) would also have converted "1.5" and true.
    leaf_types = {type(w) for row in doc["weights"] for w in row} | {type(b) for b in doc["bias"]}
    if not leaf_types <= {int, float}:
        raise CorruptModel(f"{path}: weights or bias hold a value that is not a JSON number")
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise CorruptModel(f"{path}: weights or bias hold a value that is not finite")
    return model
