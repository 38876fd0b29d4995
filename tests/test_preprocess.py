"""Standardization, zero-variance pass-through, one-hot coding, windowing,
and the row selection of transform against a whole-capture reference."""

from __future__ import annotations

import math

import numpy as np
import pytest

from iidsbench.classifiers.base import fit_preprocessor, transform
from iidsbench.dataset import CATEGORICAL, NUMERIC, FeatureSchema
from iidsbench.errors import TrainError


def schema_of(kinds: tuple[str, ...], books: tuple[int, ...]) -> FeatureSchema:
    """Features f0, f1, ... of the given kinds; categorical feature j has a
    code book of books[j] codes."""
    names = tuple(f"f{j}" for j in range(len(kinds)))
    codes = {
        name: tuple(f"c{code}" for code in range(n))
        for name, kind, n in zip(names, kinds, books)
        if kind == CATEGORICAL
    }
    return FeatureSchema(names, kinds, codes)


def numeric_schema(n_features: int) -> FeatureSchema:
    return schema_of((NUMERIC,) * n_features, (0,) * n_features)


def every_row(p, x) -> np.ndarray:
    return transform(p, x, np.arange(len(x)))


def test_population_std():
    x = np.array([[1.0], [2.0], [3.0]])
    p = fit_preprocessor(x, numeric_schema(1), 1, False)
    assert p.shift[0] == 2.0
    assert p.scale[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert p.scale[0] == pytest.approx(0.8165, abs=1e-4)


def test_constant_column_passes_through():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    p = fit_preprocessor(x, numeric_schema(2), 1, False)
    assert p.shift.tolist() == [0.0, 2.0]
    assert p.scale[0] == 1.0 and p.scale[1] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    out = every_row(p, x)
    assert (out[:, 0] == 5.0).all()


def test_empty_train_set():
    with pytest.raises(TrainError, match="empty train set"):
        fit_preprocessor(np.empty((0, 2)), numeric_schema(2), 1, False)


def test_window_dimensionality():
    x = np.arange(12.0).reshape(6, 2)
    p = fit_preprocessor(x, numeric_schema(2), 3, False)
    assert p.window == 3
    out = every_row(p, x)
    assert out.shape == (6, 6)


def test_window_two_layout():
    x = np.array([[1.0, 10.0], [2.0, 20.0]])
    p = fit_preprocessor(x, numeric_schema(2), 2, False)
    out = every_row(p, x)
    std0 = (x[0] - x.mean(axis=0)) / x.std(axis=0)
    std1 = (x[1] - x.mean(axis=0)) / x.std(axis=0)
    assert out[1] == pytest.approx(np.concatenate([std0, std1]), abs=1e-12)
    assert out[0] == pytest.approx(np.concatenate([np.zeros(2), std0]), abs=1e-12)


def test_window_one_is_plain_standardization():
    x = np.array([[1.0], [3.0], [5.0]])
    p = fit_preprocessor(x, numeric_schema(1), 1, False)
    out = every_row(p, x)
    assert out == pytest.approx((x - x.mean()) / x.std(), abs=1e-12)


def test_standardized_train_is_centered(rng):
    x = rng.normal(3.0, 2.5, size=(200, 5))
    p = fit_preprocessor(x, numeric_schema(5), 1, False)
    out = every_row(p, x)
    assert abs(out.mean(axis=0)).max() < 1e-9
    assert abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_no_test_leakage(rng):
    x = rng.normal(0.0, 1.0, size=(50, 3))
    train = x[:30]
    p1 = fit_preprocessor(train, numeric_schema(3), 1, False)
    x_mutated = x.copy()
    x_mutated[30:] = 1e6  # arbitrary test-set mutation
    p2 = fit_preprocessor(x_mutated[:30], numeric_schema(3), 1, False)
    assert (p1.shift == p2.shift).all()
    assert (p1.scale == p2.scale).all()


def test_arity_mismatch():
    x = np.ones((4, 3))
    p = fit_preprocessor(x, numeric_schema(3), 1, False)
    with pytest.raises(ValueError):
        transform(p, np.ones((2, 2)), np.arange(2))


def test_one_hot_encoding_with_unknown_slot():
    x = np.array([[0.0, 1.5], [1.0, 2.5], [2.0, 3.5]])
    p = fit_preprocessor(x, schema_of((CATEGORICAL, NUMERIC), (3, 0)), 1, True)
    assert p.slots.tolist() == [4, 0]
    out = every_row(p, x)
    # 3 known codes + 1 reserved unknown + 1 numeric
    assert out.shape == (3, 5)
    assert out[0, :4].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert out[2, :4].tolist() == [0.0, 0.0, 1.0, 0.0]
    unseen = every_row(p, np.array([[7.0, 2.5]]))
    assert unseen[0, :4].tolist() == [0.0, 0.0, 0.0, 1.0]


def test_categorical_raw_codes_without_one_hot():
    x = np.array([[0.0], [2.0], [1.0]])
    p = fit_preprocessor(x, schema_of((CATEGORICAL,), (3,)), 1, False)
    assert p.slots.tolist() == [0]
    out = every_row(p, x)
    assert out[:, 0].tolist() == [0.0, 2.0, 1.0]


def reference_encode(X, train, kinds, books, one_hot) -> np.ndarray:
    """The column loop _encode replaced, one numpy pass per feature, fitted
    from `train` by its own mean and population std: the oracle transform is
    checked against."""
    mean, std = train.mean(axis=0), train.std(axis=0)
    columns = []
    for j, kind in enumerate(kinds):
        if kind == CATEGORICAL and one_hot:
            codes = np.clip(X[:, j].astype(np.int64), 0, books[j])
            block = np.zeros((len(X), books[j] + 1), dtype=np.float64)
            block[np.arange(len(X)), codes] = 1.0
            columns.append(block)
        elif kind == NUMERIC and std[j] != 0.0:
            columns.append(((X[:, j] - mean[j]) / std[j])[:, None])
        else:
            columns.append(X[:, j, None])
    return np.hstack(columns)


def reference_transform(X, train, kinds, books, one_hot, window) -> np.ndarray:
    """Every row windowed, one shifted copy per block: the oracle for transform."""
    encoded = reference_encode(X, train, kinds, books, one_hot)
    w = window
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
    return X, kinds, (0, 0, 3, 3, 0)


def categorical_capture(rng, n: int = 40) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    """Categorical columns only, so one-hot leaves no plain column; codes 2
    and 5 lie past their books."""
    X = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 4, n), rng.integers(0, 6, n)])
    return X.astype(np.float64), (CATEGORICAL,) * 3, (2, 4, 5)


def numeric_capture(rng, n: int = 40) -> tuple[np.ndarray, tuple[str, ...], tuple[int, ...]]:
    """Numeric columns only, one of zero variance: no one-hot column either way."""
    X = np.column_stack([rng.normal(5.0, 2.0, n), np.full(n, -3.25), rng.normal(0.0, 9.0, n)])
    return X, (NUMERIC,) * 3, (0, 0, 0)


@pytest.mark.parametrize("one_hot", [True, False])
@pytest.mark.parametrize("window", [1, 3, 5])
def test_transform_rows_match_reference(rng, window, one_hot):
    for X, kinds, books in (mixed_capture(rng), categorical_capture(rng), numeric_capture(rng)):
        p = fit_preprocessor(X[5:30], schema_of(kinds, books), window, one_hot)
        expected = reference_transform(X, X[5:30], kinds, books, one_hot, window)
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


@pytest.mark.parametrize("one_hot", [True, False])
@pytest.mark.parametrize("window", [1, 3])
def test_transform_keeps_special_values_of_reference(rng, window, one_hot):
    # outside the fitted rows 5..29: signed zeros in every column, infinities
    # in the numeric ones, so pass-through columns must keep their bits
    X, kinds, books = mixed_capture(rng)
    X[[0, 2, 31, 35], :] = -0.0
    X[[1, 33], :] = 0.0
    X[[3, 36], 0] = np.inf
    X[[4, 37], 1] = -np.inf
    X[[30, 38], 4] = np.inf
    p = fit_preprocessor(X[5:30], schema_of(kinds, books), window, one_hot)
    assert np.signbit(reference_encode(X, X[5:30], kinds, books, one_hot)[0]).any()
    expected = reference_transform(X, X[5:30], kinds, books, one_hot, window)
    for rows in (np.arange(len(X)), np.array([38, 0, 2, 31, 4, 2, 17, 30, 1], dtype=np.int64)):
        assert transform(p, X, rows).tobytes() == expected[rows].tobytes()
