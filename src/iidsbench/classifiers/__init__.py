"""The three reference detectors behind one train/predict interface.

train() dispatches on the kind. A tree depends only on the order of each
feature's values, so the forest trains on raw values: numeric values and
categorical codes as the dataset holds them, with thresholds in data units.
The SVM and the MLP first fit an encoding on the split's train rows only,
standardizing numeric features and one-hot encoding categorical ones. The
forest and the SVM train on the built matrix of windowed train rows; the
MLP takes the window view of the encoded capture and gathers each
mini-batch's rows from it, so no windowed train matrix is built, and its
model keeps that view for predict_dataset on the same feature matrix, so
the capture is encoded once per cell. predict_dataset() scores the rows it
is given in blocks of BLOCK_ROWS, so no cell builds its whole test matrix,
and a row's score does not depend on the other rows requested with it. Both
read each window from the dataset in capture order, so windows reach across
split boundaries by design. Models are value objects; predict_dataset is
pure.
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
    raw_window_view,
    transform,
    window_view,
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
    n_features: int  # columns of the feature matrix it was trained on
    params: object  # kind-specific payload
    # The mlp's (feature matrix, window view of its encoding) from training,
    # which predict_dataset reuses on that same matrix instead of encoding it again
    trained_view: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

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

    hp, window, n_features = spec.hyperparameters, spec.hyperparameters["window"], X.shape[1]
    if spec.kind == KIND_FOREST:
        params = train_random_forest(hp, raw_window_view(X, window)[train_idx], y_train, spec.seed)
        return TrainedModel(spec, None, n_features, params)
    pre = fit_preprocessor(X[train_idx], d.schema, window=window, one_hot=True)
    if spec.kind == KIND_SVM:
        params = train_linear_svm(hp, transform(pre, X, train_idx), y_train, spec.seed)
        return TrainedModel(spec, pre, n_features, params)
    windows = window_view(pre, X)
    params = train_mlp(hp, train_idx, y_train, spec.seed, windows)
    return TrainedModel(spec, pre, n_features, params, trained_view=(X, windows))


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

    The indices go in blocks of BLOCK_ROWS into one score vector. The forest
    gathers each block's raw rows, from the zero-padded window view of the
    capture at a wider window. The mlp gathers them from the window view it
    trained on when given the same feature matrix. Otherwise an svm or mlp
    block encodes only its own rows at window 1; at a wider window the
    capture is encoded once into its window view, and each block gathers its
    rows from it. An svm or mlp block short of BLOCK_ROWS rows is padded with
    copies of its last row, whose scores are dropped. The forest's vote count
    is exact, so its blocks are not padded. A record's score is therefore the
    same, bit for bit, whatever other rows are requested with it.
    """
    idx = np.asarray(indices, dtype=np.int64)
    X, pre = d.feature_matrix(), model.preprocessor
    if X.shape[1] != model.n_features:
        raise ValueError(
            f"feature arity mismatch: expected {model.n_features} columns, got {X.shape[1]}"
        )
    window = model.spec.hyperparameters["window"]
    if pre is None:
        windows = raw_window_view(X, window)
    elif model.trained_view is not None and model.trained_view[0] is X:
        windows = model.trained_view[1]
    else:
        windows = window_view(pre, X) if window > 1 else None
    scores = np.empty(len(idx), dtype=np.float64)
    for lo in range(0, len(idx), BLOCK_ROWS):
        block = idx[lo : lo + BLOCK_ROWS]
        n = len(block)
        if model.kind != KIND_FOREST:
            block = np.pad(block, (0, BLOCK_ROWS - n), mode="edge")
        rows = transform(pre, X, block) if windows is None else windows[block]
        scores[lo : lo + n] = _block_scores(model, rows)[:n]
    return labels_from_scores(scores), scores
