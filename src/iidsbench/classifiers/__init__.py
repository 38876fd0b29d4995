"""The three reference detectors behind one train/predict interface.

train() handles the shared pipeline: fit the preprocessor's encoding on
the split's train rows only, build the windowed train rows, then dispatch to
the kind's training routine. The forest sees categorical features as raw
codes; the SVM and MLP see them one-hot. predict_dataset() builds and scores
only the rows it is given. Both read each window from the dataset in capture
order, so windows reach across split boundaries by design. Models are value
objects; predict_dataset is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import TrainError
from ..splitting import SplitInstance
from .base import (
    DEFAULT_HYPERPARAMETERS,
    KIND_FOREST,
    KIND_MLP,
    KIND_SVM,
    KINDS,
    ClassifierSpec,
    PreprocessorState,
    fit_preprocessor,
    labels_from_scores,
    transform,
)
from .forest import forest_scores, train_random_forest
from .mlp import mlp_scores, train_mlp
from .svm import svm_scores, train_linear_svm

__all__ = [
    "ClassifierSpec",
    "DEFAULT_HYPERPARAMETERS",
    "KINDS",
    "KIND_FOREST",
    "KIND_SVM",
    "KIND_MLP",
    "PreprocessorState",
    "TrainedModel",
    "fit_preprocessor",
    "labels_from_scores",
    "predict_dataset",
    "train",
    "transform",
]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    spec: ClassifierSpec
    preprocessor: PreprocessorState
    params: object  # kind-specific payload

    @property
    def kind(self) -> str:
        return self.spec.kind


def train(spec: ClassifierSpec, split: SplitInstance, d: Dataset) -> TrainedModel:
    """Train one detector on the split's train rows. Deterministic given
    (spec, split, dataset).
    """
    X = d.feature_matrix()
    y = d.binary_labels()
    train_idx = np.asarray(split.train_indices, dtype=np.int64)
    y_train = y[train_idx]
    if bool(y_train.all()) or not bool(y_train.any()):
        raise TrainError("degenerate training labels")

    pre = fit_preprocessor(
        X[train_idx],
        d.schema,
        window=spec.hyperparameters["window"],
        one_hot=spec.kind in (KIND_SVM, KIND_MLP),
    )
    X_train = transform(pre, X, train_idx)

    if spec.kind == KIND_FOREST:
        params = train_random_forest(spec.hyperparameters, X_train, y_train, spec.seed)
    elif spec.kind == KIND_SVM:
        params = train_linear_svm(spec.hyperparameters, X_train, y_train, spec.seed)
    else:
        params = train_mlp(spec.hyperparameters, X_train, y_train, spec.seed)

    return TrainedModel(spec=spec, preprocessor=pre, params=params)


def predict_dataset(model: TrainedModel, d: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """Score the records `indices` of a full dataset, windowing over its
    capture order, and return (malicious flags, scores). Only the requested
    rows are built and scored.
    """
    X = transform(model.preprocessor, d.feature_matrix(), np.asarray(indices, dtype=np.int64))
    if model.kind == KIND_FOREST:
        scores = forest_scores(model.params, X)
    elif model.kind == KIND_SVM:
        weights, bias = model.params
        scores = svm_scores(weights, bias, X)
    else:
        scores = mlp_scores(model.params, X)
    return labels_from_scores(scores), scores

