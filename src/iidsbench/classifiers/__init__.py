"""The three reference detectors behind one train/predict interface.

train() handles the shared pipeline: fit the preprocessor on train rows
only, build the windowed train rows, then dispatch to the kind's training
routine. predict_dataset() builds and scores only the requested rows. Both
read each window from the dataset in capture order, so windows reach across
split boundaries by design. Models are value objects; predict is pure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..dataset import Dataset
from ..errors import TrainError
from ..fileio import atomic_write_text, dump_json, read_json
from ..splitting import SplitInstance
from .base import (
    BENIGN_LABEL,
    DEFAULT_HYPERPARAMETERS,
    KIND_FOREST,
    KIND_MLP,
    KIND_SVM,
    KINDS,
    MALICIOUS,
    ClassifierSpec,
    Prediction,
    PreprocessorState,
    fit_preprocessor,
    labels_from_scores,
    preprocessor_from_dict,
    preprocessor_to_dict,
    transform,
)
from .forest import forest_from_dict, forest_scores, forest_to_dict, train_random_forest
from .mlp import mlp_from_dict, mlp_scores, mlp_to_dict, train_mlp
from .svm import svm_scores, train_linear_svm

MODEL_FORMAT_VERSION = "1"

__all__ = [
    "ClassifierSpec",
    "DEFAULT_HYPERPARAMETERS",
    "KINDS",
    "KIND_FOREST",
    "KIND_SVM",
    "KIND_MLP",
    "Prediction",
    "PreprocessorState",
    "TrainedModel",
    "fit_preprocessor",
    "labels_from_scores",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "predict",
    "predict_dataset",
    "save_model",
    "train",
    "transform",
]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ClassifierSpec
    preprocessor: PreprocessorState
    params: object  # kind-specific payload
    metadata: dict

    @property
    def kind(self) -> str:
        return self.spec.kind


def train(spec: ClassifierSpec, split: SplitInstance, d: Dataset) -> TrainedModel:
    """Train one detector on the split's train rows. Deterministic given
    (spec, split, dataset).
    """
    started = time.perf_counter()
    X = d.feature_matrix()
    y = d.binary_labels()
    train_idx = np.asarray(split.train_indices, dtype=np.int64)
    y_train = y[train_idx]
    if bool(y_train.all()) or not bool(y_train.any()):
        raise TrainError("degenerate training labels")

    pre = fit_preprocessor(
        X[train_idx],
        window=spec.hyperparameters["window"],
        kinds=d.schema.feature_kinds,
        cardinalities=d.schema.cardinalities(),
        one_hot=spec.kind in (KIND_SVM, KIND_MLP),
    )
    X_train = transform(pre, X, train_idx)

    if spec.kind == KIND_FOREST:
        params = train_random_forest(spec.hyperparameters, X_train, y_train, spec.seed)
    elif spec.kind == KIND_SVM:
        params = train_linear_svm(spec.hyperparameters, X_train, y_train, spec.seed)
    else:
        params = train_mlp(spec.hyperparameters, X_train, y_train, spec.seed)

    return TrainedModel(
        spec=spec,
        preprocessor=pre,
        params=params,
        metadata={
            "train_size": int(len(train_idx)),
            "wall_time": time.perf_counter() - started,
        },
    )


def _score_matrix(model: TrainedModel, X_transformed: np.ndarray) -> np.ndarray:
    if model.kind == KIND_FOREST:
        return forest_scores(model.params, X_transformed)
    if model.kind == KIND_SVM:
        weights, bias = model.params
        return svm_scores(weights, bias, X_transformed)
    return mlp_scores(model.params, X_transformed)


def predict_dataset(
    model: TrainedModel,
    d: Dataset,
    indices=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Score the records `indices` (default: all rows) of a full dataset,
    windowing over its capture order, and return (malicious flags, scores).
    Only the requested rows are built and scored.
    """
    rows = None if indices is None else np.asarray(indices, dtype=np.int64)
    scores = _score_matrix(model, transform(model.preprocessor, d.feature_matrix(), rows))
    return labels_from_scores(scores), scores


def predict(model: TrainedModel, rows) -> list[Prediction]:
    """Score stand-alone feature rows. The given rows are treated as their
    own capture order for windowing.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("rows must share one feature arity")
    scores = _score_matrix(model, transform(model.preprocessor, X))
    return [
        Prediction(label=MALICIOUS if flag else BENIGN_LABEL, score=float(score))
        for flag, score in zip(labels_from_scores(scores), scores)
    ]


def model_to_dict(model: TrainedModel) -> dict:
    if model.kind == KIND_FOREST:
        params = forest_to_dict(model.params)
    elif model.kind == KIND_SVM:
        weights, bias = model.params
        params = {"weights": weights.tolist(), "bias": bias}
    else:
        params = mlp_to_dict(model.params)
    hyper = dict(model.spec.hyperparameters)
    if "hidden" in hyper:
        hyper["hidden"] = list(hyper["hidden"])
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "name": model.spec.name,
        "seed": model.spec.seed,
        "hyperparameters": hyper,
        "preprocessor": preprocessor_to_dict(model.preprocessor),
        "params": params,
        "metadata": model.metadata,
    }


def model_from_dict(data: dict) -> TrainedModel:
    if data.get("format_version") != MODEL_FORMAT_VERSION:
        raise TrainError(f"unsupported model format version {data.get('format_version')!r}")
    spec = ClassifierSpec(
        kind=data["kind"],
        hyperparameters=data["hyperparameters"],
        seed=data["seed"],
        name=data["name"],
    )
    raw = data["params"]
    if spec.kind == KIND_FOREST:
        params = forest_from_dict(raw)
    elif spec.kind == KIND_SVM:
        params = (np.asarray(raw["weights"], dtype=np.float64), float(raw["bias"]))
    else:
        params = mlp_from_dict(raw)
    return TrainedModel(
        spec=spec,
        preprocessor=preprocessor_from_dict(data["preprocessor"]),
        params=params,
        metadata=dict(data.get("metadata", {})),
    )


def save_model(model: TrainedModel, path: str | Path) -> None:
    atomic_write_text(path, dump_json(model_to_dict(model)))


def load_model(path: str | Path) -> TrainedModel:
    return model_from_dict(read_json(path))
