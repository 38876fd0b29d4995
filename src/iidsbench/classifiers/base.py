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
    to it. Each output row concatenates the `window` newest encoded rows.
    """

    shift: np.ndarray
    scale: np.ndarray
    slots: np.ndarray
    window: int


def fit_preprocessor(
    train_features, schema: FeatureSchema, window: int, one_hot: bool
) -> PreprocessorState:
    """Fit the encoding of the given train rows. A numeric feature with
    nonzero variance shifts by its train mean and scales by its population
    std; every other feature passes through (shift 0, scale 1). With one_hot,
    a categorical feature takes one slot per code of its book plus one for
    the reserved unknown code.
    """
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainError("empty train set")
    check_int(window, "window", 1)
    stds = X.std(axis=0)
    scaled = np.array([kind == NUMERIC for kind in schema.feature_kinds]) & (stds != 0.0)
    slots = [
        len(schema.categorical_codes.get(name, ())) + 1 if one_hot and kind == CATEGORICAL else 0
        for name, kind in zip(schema.feature_names, schema.feature_kinds)
    ]
    return PreprocessorState(
        shift=np.where(scaled, X.mean(axis=0), 0.0),
        scale=np.where(scaled, stds, 1.0),
        slots=np.array(slots, dtype=np.int64),
        window=window,
    )


def _encode(p: PreprocessorState, X: np.ndarray, out: np.ndarray) -> None:
    """Write the encoded rows of X into out, a zeroed (len(X), encoded width)
    matrix. The plain columns take one broadcast (X - shift) / scale, so
    pass-through values keep their bits; the one-hot columns take one scatter
    of the clipped codes of all one-hot features.
    """
    one_hot = p.slots > 0
    if not one_hot.any():
        np.subtract(X, p.shift, out=out)
        out /= p.scale
        return
    widths = np.maximum(p.slots, 1)
    starts = np.cumsum(widths) - widths
    plain = ~one_hot
    out[:, starts[plain]] = (X[:, plain] - p.shift[plain]) / p.scale[plain]
    codes = X[:, one_hot].astype(np.int64)
    np.clip(codes, 0, p.slots[one_hot] - 1, out=codes)
    codes += starts[one_hot]
    out[np.arange(len(X))[:, None], codes] = 1.0


def transform(p: PreprocessorState, features, rows) -> np.ndarray:
    """Encode and window rows given in capture order, and return the output
    rows named by the integer array `rows`, in that order. Output row i
    concatenates encoded rows i-w+1..i; rows before index 0 are zero blocks.
    Train/test membership of a windowed row follows its last (newest) block.
    Only the requested rows are built: at window 1 just those rows are
    encoded; otherwise the whole capture is encoded once, unwindowed, and
    each requested window is gathered from it.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(p.slots):
        raise ValueError(
            f"feature arity mismatch: expected {len(p.slots)} columns, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    w, width = p.window, int(np.maximum(p.slots, 1).sum())
    if w == 1:
        # copying the rows before allocating out keeps peak RSS 4-6 MB lower
        # on the forest benchmarks than the reverse order
        X = X[rows]
        out = np.zeros((len(X), width), dtype=np.float64)
        _encode(p, X, out)
        return out
    padded = np.zeros((w - 1 + len(X), width), dtype=np.float64)
    _encode(p, X, padded[w - 1 :])
    # windows[i] is padded[i : i + w], i.e. encoded rows i-w+1..i
    windows = sliding_window_view(padded, (w, width))[:, 0]
    return windows[rows].reshape(-1, w * width)


def labels_from_scores(scores: np.ndarray) -> np.ndarray:
    # Ties score exactly 0.5 resolve to malicious.
    return np.asarray(scores) >= 0.5


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sqrt_feature_count(n_features: int) -> int:
    return max(1, int(math.sqrt(n_features)))
