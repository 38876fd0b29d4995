"""Standardization, zero-variance pass-through, one-hot coding, windowing,
and the row selection of transform against a whole-capture reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from iidsbench.classifiers.base import (
    PreprocessorState,
    fit_preprocessor,
    transform,
)
from iidsbench.dataset import CATEGORICAL, NUMERIC
from iidsbench.errors import TrainError


def test_population_std():
    x = np.array([[1.0], [2.0], [3.0]])
    p = fit_preprocessor(x)
    assert p.means[0] == 2.0
    assert p.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert p.stds[0] == pytest.approx(0.8165, abs=1e-4)


def test_constant_column_passes_through():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    p = fit_preprocessor(x)
    assert p.stds[0] == 0.0
    assert p.zero_variance[0] and not p.zero_variance[1]
    out = transform(p, x)
    assert (out[:, 0] == 5.0).all()


def test_empty_train_set():
    with pytest.raises(TrainError, match="empty train set"):
        fit_preprocessor(np.empty((0, 2)))


def test_window_dimensionality():
    x = np.arange(12.0).reshape(6, 2)
    p = fit_preprocessor(x, window=3)
    assert p.window == 3
    out = transform(p, x)
    assert out.shape == (6, 6)


def test_window_two_layout():
    x = np.array([[1.0, 10.0], [2.0, 20.0]])
    p = fit_preprocessor(x, window=2)
    out = transform(p, x)
    std0 = (x[0] - p.means) / p.stds
    std1 = (x[1] - p.means) / p.stds
    assert out[1] == pytest.approx(np.concatenate([std0, std1]), abs=1e-12)
    assert out[0] == pytest.approx(np.concatenate([np.zeros(2), std0]), abs=1e-12)


def test_window_one_is_plain_standardization():
    x = np.array([[1.0], [3.0], [5.0]])
    p = fit_preprocessor(x, window=1)
    out = transform(p, x)
    assert out == pytest.approx((x - p.means) / p.stds, abs=1e-12)


def test_standardized_train_is_centered(rng):
    x = rng.normal(3.0, 2.5, size=(200, 5))
    p = fit_preprocessor(x)
    out = transform(p, x)
    assert abs(out.mean(axis=0)).max() < 1e-9
    assert abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_no_test_leakage(rng):
    x = rng.normal(0.0, 1.0, size=(50, 3))
    train = x[:30]
    p1 = fit_preprocessor(train)
    x_mutated = x.copy()
    x_mutated[30:] = 1e6  # arbitrary test-set mutation
    p2 = fit_preprocessor(x_mutated[:30])
    assert (p1.means == p2.means).all()
    assert (p1.stds == p2.stds).all()


def test_arity_mismatch():
    x = np.ones((4, 3))
    p = fit_preprocessor(x)
    with pytest.raises(ValueError):
        transform(p, np.ones((2, 2)))


def test_one_hot_encoding_with_unknown_slot():
    x = np.array([[0.0, 1.5], [1.0, 2.5], [2.0, 3.5]])
    p = fit_preprocessor(
        x, kinds=("categorical", "numeric"), cardinalities=(3, 0), one_hot=True
    )
    out = transform(p, x)
    # 3 known codes + 1 reserved unknown + 1 numeric
    assert out.shape == (3, 5)
    assert out[0, :4].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert out[2, :4].tolist() == [0.0, 0.0, 1.0, 0.0]
    unseen = transform(p, np.array([[7.0, 2.5]]))
    assert unseen[0, :4].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_categorical_raw_codes_without_one_hot():
    x = np.array([[0.0], [2.0], [1.0]])
    p = fit_preprocessor(x, kinds=("categorical",), cardinalities=(3,), one_hot=False)
    out = transform(p, x)
    assert out[:, 0].tolist() == [0.0, 2.0, 1.0]


def reference_encode(p: PreprocessorState, X: np.ndarray) -> np.ndarray:
    """The column loop _encode replaced, one numpy pass per feature: the
    oracle transform is checked against."""
    out = np.zeros((len(X), p.encoded_width), dtype=np.float64)
    col = 0
    for j, kind in enumerate(p.feature_kinds):
        if kind == CATEGORICAL and p.one_hot:
            card = p.cardinalities[j]
            codes = np.clip(X[:, j].astype(np.int64), 0, card)
            out[np.arange(len(X)), col + codes] = 1.0
            col += card + 1
        else:
            if kind == NUMERIC and not p.zero_variance[j]:
                out[:, col] = (X[:, j] - p.means[j]) / p.stds[j]
            else:
                out[:, col] = X[:, j]
            col += 1
    return out


def reference_transform(p: PreprocessorState, X: np.ndarray) -> np.ndarray:
    """Every row windowed, one shifted copy per block: the oracle for transform."""
    encoded = reference_encode(p, X)
    w = p.window
    if w == 1:
        return encoded
    n, width = encoded.shape
    out = np.zeros((n, width * w), dtype=np.float64)
    for block in range(w):
        shift = w - 1 - block  # block holds row i - shift
        target = out[:, block * width : (block + 1) * width]
        if shift == 0:
            target[:] = encoded
        else:
            target[shift:] = encoded[:-shift]
    return out


def mixed_capture(rng, n: int = 40) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    """Numeric, zero-variance and categorical columns; codes 3 and 4 of the
    second categorical lie past its code book of three.
    """
    X = np.column_stack(
        [
            rng.normal(2.0, 3.0, n),
            np.full(n, 7.5),
            rng.integers(0, 3, n),
            rng.integers(0, 5, n),
            rng.normal(-1.0, 0.5, n),
        ]
    ).astype(np.float64)
    kinds = (NUMERIC, NUMERIC, CATEGORICAL, CATEGORICAL, NUMERIC)
    return X, kinds, (3, 3, 3, 3, 0)


@pytest.mark.parametrize("one_hot", [True, False])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_transform_rows_match_reference(rng, window, one_hot):
    X, kinds, cards = mixed_capture(rng)
    p = fit_preprocessor(X[5:30], window, kinds, cards, one_hot)
    assert p.zero_variance.tolist() == [False, True, False, False, False]
    expected = reference_transform(p, X)
    n = len(X)
    padded = np.arange(window - 1)  # rows whose windows reach before row 0
    for rows in (
        padded,
        np.array([n - 1, 0, 17, 17, 3, n - 1, 1], dtype=np.int64),
        rng.permutation(n)[: n // 2],
        np.arange(n),
        np.array([], dtype=np.int64),
    ):
        out = transform(p, X, rows)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.shape == expected[rows].shape
        assert out.tobytes() == expected[rows].tobytes()
    whole = transform(p, X)
    assert whole.shape == expected.shape and whole.tobytes() == expected.tobytes()


@pytest.mark.parametrize("one_hot", [True, False])
@pytest.mark.parametrize("window", [1, 3])
def test_transform_keeps_special_values_of_reference(rng, window, one_hot):
    # outside the fitted rows 5..29: signed zeros in every column, infinities
    # in the numeric ones, so pass-through columns must keep their bits
    X, kinds, cards = mixed_capture(rng)
    X[[0, 2, 31, 35], :] = -0.0
    X[[1, 33], :] = 0.0
    X[[3, 36], 0] = np.inf
    X[[4, 37], 1] = -np.inf
    X[[30, 38], 4] = np.inf
    p = fit_preprocessor(X[5:30], window, kinds, cards, one_hot)
    assert p.zero_variance.tolist() == [False, True, False, False, False]
    assert np.signbit(reference_encode(p, X)[0]).any()
    expected = reference_transform(p, X)
    for rows in (np.arange(len(X)), np.array([38, 0, 2, 31, 4, 2, 17, 30, 1], dtype=np.int64)):
        assert transform(p, X, rows).tobytes() == expected[rows].tobytes()
