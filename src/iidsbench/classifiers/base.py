"""Shared classifier plumbing: specs, preprocessing, score-to-label rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dataset import CATEGORICAL, NUMERIC, FeatureSchema
from ..errors import (
    ConfigError,
    TrainError,
    check_int,
    check_ints,
    check_real,
    check_text,
    reject_unknown_keys,
)

KIND_FOREST = "random_forest"
KIND_SVM = "linear_svm"
KIND_MLP = "mlp"
KINDS = (KIND_FOREST, KIND_SVM, KIND_MLP)

# Conventional defaults, all overridable per spec. The mlp is the windowed
# stand-in for a sequence model, hence its wider default window.
DEFAULT_HYPERPARAMETERS: dict[str, dict] = {
    KIND_FOREST: {"n_trees": 100, "max_depth": 20, "min_leaf": 2, "window": 1},
    KIND_SVM: {"lambda": 1e-4, "epochs": 10, "window": 1},
    KIND_MLP: {
        "hidden": (64, 32),
        "learning_rate": 0.01,
        "batch_size": 128,
        "epochs": 20,
        "window": 5,
    },
}


@dataclass(frozen=True)
class ClassifierSpec:
    """One detector configuration. Hyperparameters are merged over the
    kind's defaults at construction, so a spec always carries the full map.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0
    name: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.kind!r}")
        merged = dict(DEFAULT_HYPERPARAMETERS[self.kind])
        reject_unknown_keys(self.hyperparameters, merged, f"{self.kind} hyperparameters")
        merged.update(self.hyperparameters)
        # Values pass through as given (an integer lambda stays one) except
        # hidden, a tuple; any other key must hold a positive integer.
        for key, value in merged.items():
            where = f"hyperparameter {key}"
            if key == "hidden":
                merged[key] = check_ints(value, where, 1)
            elif key in ("lambda", "learning_rate"):
                check_real(value, where, positive=True)
            elif not (key == "max_depth" and value is None):
                check_int(value, where, 1)
        object.__setattr__(self, "hyperparameters", merged)
        check_int(self.seed, "classifier seed", 0)
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        # the name is a directory of the output, so it must be one path component
        name = check_text(self.name, "classifier name")
        if name in (".", "..") or any(sep in name for sep in "/\\\0"):
            raise ConfigError(f"classifier name must be a single path component, got {self.name!r}")


@dataclass(frozen=True, eq=False)
class PreprocessorState:
    """The encoding fitted on train rows only, as it is applied: encoded
    column j is (x_j - shift[j]) / scale[j], or, where slots[j] > 0, slots[j]
    one-hot indicator columns of code x_j, codes past the last slot clipping
    to it.
    """

    shift: np.ndarray
    scale: np.ndarray
    slots: np.ndarray


def fit_preprocessor(train_features, schema: FeatureSchema) -> PreprocessorState:
    """Fit the encoding of the given train rows. A numeric feature with
    nonzero variance shifts by its train mean and scales by its population
    std; every other feature passes through (shift 0, scale 1). A
    categorical feature takes one slot per code of its book plus one for the
    reserved unknown code.
    """
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainError("empty train set")
    stds = X.std(axis=0)
    scaled = np.array([kind == NUMERIC for kind in schema.feature_kinds]) & (stds != 0.0)
    slots = [
        len(schema.categorical_codes.get(name, ())) + 1 if kind == CATEGORICAL else 0
        for name, kind in zip(schema.feature_names, schema.feature_kinds)
    ]
    return PreprocessorState(
        shift=np.where(scaled, X.mean(axis=0), 0.0),
        scale=np.where(scaled, stds, 1.0),
        slots=np.array(slots, dtype=np.int64),
    )


# Rows encoded per step of _encode, whose scratch arrays (a float and an
# int64 copy of the one-hot columns, their flat offsets) cover one block.
_BLOCK = 1024


def _encode(p: PreprocessorState, X: np.ndarray, out: np.ndarray) -> None:
    """Write the encoded rows of X into out, a zeroed, C-contiguous
    (len(X), encoded width) matrix, as transform passes it. Rows go _BLOCK
    at a time: one slice write of (X - shift) / scale per run of consecutive
    plain features, so pass-through values keep their bits, then one flat
    scatter of the clipped codes of every one-hot feature. A capture
    without one-hot features has one run and an empty scatter.
    """
    one_hot = p.slots > 0
    widths = np.maximum(p.slots, 1)
    starts = np.cumsum(widths) - widths
    # [a, b) runs of consecutive plain features: the ends of each run of True
    runs = np.flatnonzero(np.diff(np.concatenate(([False], ~one_hot, [False])))).reshape(-1, 2)
    hot_starts, hot_last = starts[one_hot], p.slots[one_hot] - 1
    flat = out.reshape(-1)
    for lo in range(0, len(X), _BLOCK):
        block = X[lo : lo + _BLOCK]
        hi = lo + len(block)
        for a, b in runs.tolist():
            c = starts[a]
            out[lo:hi, c : c + b - a] = (block[:, a:b] - p.shift[a:b]) / p.scale[a:b]
        codes = block[:, one_hot].astype(np.int64)
        np.clip(codes, 0, hot_last, out=codes)
        codes += hot_starts
        codes += np.arange(lo, hi)[:, None] * out.shape[1]
        flat[codes] = 1.0


def transform(p: PreprocessorState | None, features, window: int) -> np.ndarray:
    """The read-only (n, window * width) window view of a whole capture of n
    rows, given in capture order: view row i concatenates rows i-window+1..i,
    with zero rows before index 0. The rows are the capture's raw values when
    p is None, and otherwise its encoding under p, done once here. At window
    1 the raw view is the feature matrix itself. Every view row is
    contiguous in one buffer, so gathering rows from the view copies each in
    a single run, and no windowed matrix is built until rows are gathered.
    Train/test membership of a windowed row follows its last (newest) row.
    """
    X = np.asarray(features, dtype=np.float64)
    if p is None and window == 1:
        return X
    width = X.shape[1] if p is None else int(np.maximum(p.slots, 1).sum())
    padded = np.zeros((window - 1 + len(X), width), dtype=np.float64)
    if p is None:
        padded[window - 1 :] = X
    else:
        _encode(p, X, padded[window - 1 :])
    # view row i starts at padded[i], so it spans padded[i : i + window]
    return sliding_window_view(padded.reshape(-1), window * width)[::width]


def labels_from_scores(scores: np.ndarray) -> np.ndarray:
    # Ties score exactly 0.5 resolve to malicious.
    return np.asarray(scores) >= 0.5


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows: 1 / (1 + e) where z >= 0, e / (1 + e) elsewhere
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sqrt_feature_count(n_features: int) -> int:
    return max(1, int(math.sqrt(n_features)))
