"""Shared classifier plumbing: specs, preprocessing, score-to-label rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dataset import CATEGORICAL, NUMERIC
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
    """Standardization and windowing parameters, fitted on train rows only.

    Numeric columns standardize to (x - mean)/std; zero-variance columns are
    flagged and pass through unscaled. Categorical columns stay integer codes
    unless one_hot is set, in which case each expands to cardinality+1
    indicator columns; the extra slot absorbs codes past the fitted book
    (the reserved unknown code).
    """

    means: np.ndarray
    stds: np.ndarray
    zero_variance: np.ndarray
    feature_kinds: tuple[str, ...]
    cardinalities: tuple[int, ...]
    one_hot: bool
    window: int

    @property
    def encoded_width(self) -> int:
        width = 0
        for kind, card in zip(self.feature_kinds, self.cardinalities):
            if kind == CATEGORICAL and self.one_hot:
                width += card + 1
            else:
                width += 1
        return width


def fit_preprocessor(
    train_features,
    window: int = 1,
    kinds: tuple[str, ...] | None = None,
    cardinalities: tuple[int, ...] | None = None,
    one_hot: bool = False,
) -> PreprocessorState:
    """Compute per-feature mean/std from the given train rows. kinds and
    cardinalities come from the dataset schema; both default to all-numeric.
    """
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TrainError("empty train set")
    n_features = X.shape[1]
    if kinds is None:
        kinds = (NUMERIC,) * n_features
    if cardinalities is None:
        cardinalities = (0,) * n_features
    if len(kinds) != n_features or len(cardinalities) != n_features:
        raise ValueError("kinds/cardinalities do not match feature arity")
    check_int(window, "window", 1)
    numeric = np.array([k == NUMERIC for k in kinds])
    means = np.where(numeric, X.mean(axis=0), 0.0)
    stds = np.where(numeric, X.std(axis=0), 1.0)
    zero_variance = numeric & (stds == 0.0)
    return PreprocessorState(
        means=means,
        stds=stds,
        zero_variance=zero_variance,
        feature_kinds=tuple(kinds),
        cardinalities=tuple(cardinalities),
        one_hot=one_hot,
        window=window,
    )


def _encode(p: PreprocessorState, X: np.ndarray, out: np.ndarray) -> None:
    """Write the encoded rows of X into out, a zeroed (len(X), encoded_width)
    matrix, in one pass per kind of output column. The plain columns, one per
    numeric feature and per categorical feature without one_hot, take one
    broadcast (X - shift) / scale. shift and scale are the fitted mean and std,
    or 0 and 1 for categorical and zero-variance features, whose values thus
    pass through bit for bit. The one-hot columns take one scatter of the
    clipped codes of all categorical features.
    """
    one_hot = np.array([p.one_hot and kind == CATEGORICAL for kind in p.feature_kinds])
    widths = np.where(one_hot, np.asarray(p.cardinalities) + 1, 1)
    starts = np.cumsum(widths) - widths
    scaled = np.array([kind == NUMERIC for kind in p.feature_kinds]) & ~p.zero_variance
    shift = np.where(scaled, p.means, 0.0)
    scale = np.where(scaled, p.stds, 1.0)
    if not one_hot.any():
        np.subtract(X, shift, out=out)
        out /= scale
        return
    plain = ~one_hot
    out[:, starts[plain]] = (X[:, plain] - shift[plain]) / scale[plain]
    # codes past the book clip to the last, unknown slot
    codes = X[:, one_hot].astype(np.int64)
    np.clip(codes, 0, widths[one_hot] - 1, out=codes)
    codes += starts[one_hot]
    out[np.arange(len(X))[:, None], codes] = 1.0


def transform(p: PreprocessorState, features, rows=None) -> np.ndarray:
    """Standardize, encode, and window rows given in capture order, and return
    the output rows named by the integer array `rows` (default: all), in that
    order. Output row i concatenates encoded rows i-w+1..i; rows before index
    0 are zero blocks. Train/test membership of a windowed row follows its
    last (newest) block. Only the requested rows are built: at window 1 just
    those rows are encoded; otherwise the whole capture is encoded once,
    unwindowed, and each requested window is gathered from it.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(p.feature_kinds):
        raise ValueError(
            f"feature arity mismatch: expected {len(p.feature_kinds)} columns, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    w, width = p.window, p.encoded_width
    if w == 1 and rows is not None:
        X, rows = X[rows], None
    padded = np.zeros((w - 1 + len(X), width), dtype=np.float64)
    _encode(p, X, padded[w - 1 :])
    if w == 1:
        return padded
    # windows[i] is padded[i : i + w], i.e. encoded rows i-w+1..i
    windows = sliding_window_view(padded, (w, width))[:, 0]
    if rows is not None:
        windows = windows[rows]
    return windows.reshape(-1, w * width)


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
