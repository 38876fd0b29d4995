"""The three reference detectors behind one train/predict interface.

A cell's input is one window view of the whole capture, built once by
base.transform. The forest's view holds raw values: a tree depends only on
the order of each feature's values, so it reads numeric values and
categorical codes as the dataset holds them, with thresholds in data units.
The SVM's and the MLP's view holds an encoding fitted on the split's train
rows only, standardizing numeric features and one-hot encoding categorical
ones. Every trainer gathers its train rows from the view, so no cell builds
a train matrix, and the model keeps the view, so predict_dataset() on the
same feature matrix gathers its test rows from it: the capture is encoded
once per cell. predict_dataset() scores the rows it is given in blocks of
BLOCK_ROWS, so no cell builds its whole test matrix, and a row's score does
not depend on the other rows requested with it. Windows are read from the
dataset in capture order, so they reach across split boundaries by design.
Models are value objects; predict_dataset is pure.
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
    preprocessor: PreprocessorState | None  # None for the forest, which reads raw values
    params: object  # kind-specific payload
    # (feature matrix, its window view from transform) from training, which
    # predict_dataset reuses on that same matrix instead of building it again
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
    fit = {KIND_FOREST: train_random_forest, KIND_SVM: train_linear_svm, KIND_MLP: train_mlp}
    params = fit[spec.kind](hp, train_idx, y_train, spec.seed, windows)
    return TrainedModel(spec, pre, params, (X, windows))


# Rows scored per block. BLAS may take a different kernel, and so round
# differently, for a product with another row count, so every svm and mlp
# block goes through its products as exactly BLOCK_ROWS rows. The value
# changes memory and speed only, never a score.
BLOCK_ROWS = 1024


def _block_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    if model.kind == KIND_FOREST:
        return forest_scores(model.params, X)
    if model.kind == KIND_SVM:
        weights, bias = model.params
        return svm_scores(weights, bias, X)
    return mlp_scores(model.params, X)


def predict_dataset(model: TrainedModel, d: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """Score the records `indices` of a full dataset, windowing over its
    capture order, and return (malicious flags, scores).

    Rows are gathered from the window view the model trained on when d holds
    that same feature matrix, and otherwise from transform of d's matrix. The
    indices go in blocks of BLOCK_ROWS into one score vector. An svm or mlp
    block short of BLOCK_ROWS rows is padded with copies of its last row,
    whose scores are dropped. The forest's vote count is exact, so its blocks
    are not padded. A record's score is therefore the same, bit for bit,
    whatever other rows are requested with it.
    """
    idx = np.asarray(indices, dtype=np.int64)
    X = d.feature_matrix()
    trained, windows = model.trained_view
    if X.shape[1] != trained.shape[1]:
        raise ValueError(
            f"feature arity mismatch: expected {trained.shape[1]} columns, got {X.shape[1]}"
        )
    if X is not trained:
        windows = transform(model.preprocessor, X, model.spec.hyperparameters["window"])
    scores = np.empty(len(idx), dtype=np.float64)
    for lo in range(0, len(idx), BLOCK_ROWS):
        block = idx[lo : lo + BLOCK_ROWS]
        n = len(block)
        if model.kind != KIND_FOREST:
            block = np.pad(block, (0, BLOCK_ROWS - n), mode="edge")
        scores[lo : lo + n] = _block_scores(model, windows[block])[:n]
    return labels_from_scores(scores), scores
