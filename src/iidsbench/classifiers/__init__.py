"""The three reference detectors behind one train/predict interface.

A model scores only records of the capture it trained on: the paper's
cells cross-validate inside one capture, scoring the records each split
holds out. A cell's input is one window view of that capture, built once
by base.transform. The forest's view holds raw values: a tree depends only
on the order of each feature's values, so it grows on the capture's rank
table (Dataset.feature_ranks, computed once per process) and reads from the
view only the numeric values and categorical codes that bound its cuts,
with thresholds in data units.
The SVM's and the MLP's view holds an encoding fitted on the split's train
rows only, standardizing numeric features and one-hot encoding categorical
ones. The SVM and the MLP gather their train rows from the view. Every
model keeps its view, from which predict_dataset() gathers its test rows:
the capture is encoded once per cell. predict_dataset() scores the rows it is
given in padded blocks of BLOCK_ROWS, so no cell builds its whole test
matrix, and a row's score does not depend on the other rows requested with
it. Windows are read from the dataset in capture order, so they reach
across split boundaries by design. Models are value objects;
predict_dataset is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    params: object  # kind-specific payload
    # (feature matrix, its window view from transform) from training, from
    # which predict_dataset gathers the rows it scores
    trained_view: tuple[np.ndarray, np.ndarray] = field(repr=False)

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

    hp = spec.hyperparameters
    pre = None if spec.kind == KIND_FOREST else fit_preprocessor(X[train_idx], d.schema)
    windows = transform(pre, X, hp["window"])
    if spec.kind == KIND_FOREST:
        ranks = d.feature_ranks()
        params = train_random_forest(hp, train_idx, y_train, spec.seed, windows, ranks)
    else:
        fit = train_linear_svm if spec.kind == KIND_SVM else train_mlp
        params = fit(hp, train_idx, y_train, spec.seed, windows)
    return TrainedModel(spec, params, (X, windows))


# Rows scored per block. BLAS may take a different kernel, and so round
# differently, for a product with another row count, so every block goes
# through its products as exactly BLOCK_ROWS rows; a forest vote is exact,
# so padding changes none of its scores. The value changes memory and speed
# only, never a score.
BLOCK_ROWS = 1024


def _block_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if model.kind == KIND_FOREST:
        return forest_scores(model.params, X)
    if model.kind == KIND_SVM:
        weights, bias = model.params
        return svm_scores(weights, bias, X)
    return mlp_scores(model.params, X)


def predict_dataset(model: TrainedModel, d: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """Score the records `indices` of the dataset the model trained on,
    windowing over its capture order, and return (malicious flags, scores).
    Raises ValueError if d's feature matrix is not the one the model trained
    on.

    Rows are gathered from the model's window view, BLOCK_ROWS indices at a
    time, into one score vector. A block short of BLOCK_ROWS rows is padded
    with copies of its last row, whose scores are dropped. A record's score
    is therefore the same, bit for bit, whatever other rows are requested
    with it.
    """
    X, windows = model.trained_view
    if d.feature_matrix() is not X:
        raise ValueError("a model scores only records of the dataset it trained on")
    idx = np.asarray(indices, dtype=np.int64)
    scores = np.empty(len(idx), dtype=np.float64)
    for lo in range(0, len(idx), BLOCK_ROWS):
        n = min(BLOCK_ROWS, len(idx) - lo)
        block = idx[np.minimum(np.arange(lo, lo + BLOCK_ROWS), len(idx) - 1)]
        scores[lo : lo + n] = _block_scores(model, windows[block])[:n]
    return labels_from_scores(scores), scores
