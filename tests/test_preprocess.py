"""Standardization, zero-variance pass-through, one-hot coding, windowing,
and rows gathered from transform's window view against a whole-capture
reference."""

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


def test_population_std():
    x = np.array([[1.0], [2.0], [3.0]])
    p = fit_preprocessor(x, numeric_schema(1))
    assert p.shift[0] == 2.0
    assert p.scale[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    assert p.scale[0] == pytest.approx(0.8165, abs=1e-4)


def test_constant_column_passes_through():
    x = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
    p = fit_preprocessor(x, numeric_schema(2))
    assert p.shift.tolist() == [0.0, 2.0]
    assert p.scale[0] == 1.0 and p.scale[1] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)
    out = transform(p, x, 1)
    assert (out[:, 0] == 5.0).all()


def test_empty_train_set():
    with pytest.raises(TrainError, match="empty train set"):
        fit_preprocessor(np.empty((0, 2)), numeric_schema(2))


def test_window_dimensionality():
    x = np.arange(12.0).reshape(6, 2)
    p = fit_preprocessor(x, numeric_schema(2))
    out = transform(p, x, 3)
    assert out.shape == (6, 6)
    assert not out.flags.writeable


def test_window_two_layout():
    x = np.array([[1.0, 10.0], [2.0, 20.0]])
    p = fit_preprocessor(x, numeric_schema(2))
    out = transform(p, x, 2)
    std0 = (x[0] - x.mean(axis=0)) / x.std(axis=0)
    std1 = (x[1] - x.mean(axis=0)) / x.std(axis=0)
    assert out[1] == pytest.approx(np.concatenate([std0, std1]), abs=1e-12)
    assert out[0] == pytest.approx(np.concatenate([np.zeros(2), std0]), abs=1e-12)


def test_window_one_is_plain_standardization():
    x = np.array([[1.0], [3.0], [5.0]])
    p = fit_preprocessor(x, numeric_schema(1))
    out = transform(p, x, 1)
    assert out == pytest.approx((x - x.mean()) / x.std(), abs=1e-12)


def test_standardized_train_is_centered(rng):
    x = rng.normal(3.0, 2.5, size=(200, 5))
    p = fit_preprocessor(x, numeric_schema(5))
    out = transform(p, x, 1)
    assert abs(out.mean(axis=0)).max() < 1e-9
    assert abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_no_test_leakage(rng):
    x = rng.normal(0.0, 1.0, size=(50, 3))
    train = x[:30]
    p1 = fit_preprocessor(train, numeric_schema(3))
    x_mutated = x.copy()
    x_mutated[30:] = 1e6  # arbitrary test-set mutation
    p2 = fit_preprocessor(x_mutated[:30], numeric_schema(3))
    assert (p1.shift == p2.shift).all()
    assert (p1.scale == p2.scale).all()


def test_one_hot_encoding_with_unknown_slot():
    x = np.array([[0.0, 1.5], [1.0, 2.5], [2.0, 3.5]])
    p = fit_preprocessor(x, schema_of((CATEGORICAL, NUMERIC), (3, 0)))
    assert p.slots.tolist() == [4, 0]
    out = transform(p, x, 1)
    # 3 known codes + 1 reserved unknown + 1 numeric
    assert out.shape == (3, 5)
    assert out[0, :4].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert out[2, :4].tolist() == [0.0, 0.0, 1.0, 0.0]
    unseen = transform(p, np.array([[7.0, 2.5]]), 1)
    assert unseen[0, :4].tolist() == [0.0, 0.0, 0.0, 1.0]


def reference_encode(X, train, kinds, books) -> np.ndarray:
    """The column loop _encode replaced, one numpy pass per feature, fitted
    from `train` by its own mean and population std: the oracle transform is
    checked against."""
    mean, std = train.mean(axis=0), train.std(axis=0)
    columns = []
    for j, kind in enumerate(kinds):
        if kind == CATEGORICAL:
            codes = np.clip(X[:, j].astype(np.int64), 0, books[j])
            block = np.zeros((len(X), books[j] + 1), dtype=np.float64)
            block[np.arange(len(X)), codes] = 1.0
            columns.append(block)
        elif kind == NUMERIC and std[j] != 0.0:
            columns.append(((X[:, j] - mean[j]) / std[j])[:, None])
        else:
            columns.append(X[:, j, None])
    return np.hstack(columns)


def reference_transform(X, train, kinds, books, window) -> np.ndarray:
    """Every row windowed, one shifted copy per block: the oracle for transform."""
    encoded = reference_encode(X, train, kinds, books)
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
    """Numeric columns only, one of zero variance: no one-hot column."""
    X = np.column_stack([rng.normal(5.0, 2.0, n), np.full(n, -3.25), rng.normal(0.0, 9.0, n)])
    return X, (NUMERIC,) * 3, (0, 0, 0)


@pytest.mark.parametrize("window", [1, 3, 5])
def test_transform_rows_match_reference(rng, window):
    # n = 2,100 and the row sets of 1,023 to 1,025 rows reach across the
    # blocks of 1,024 rows in which one-hot rows are encoded
    for n in (40, 2100):
        for X, kinds, books in (
            mixed_capture(rng, n),
            categorical_capture(rng, n),
            numeric_capture(rng, n),
        ):
            p = fit_preprocessor(X[5:30], schema_of(kinds, books))
            expected = reference_transform(X, X[5:30], kinds, books, window)
            view = transform(p, X, window)
            padded = np.arange(window - 1)  # rows whose windows reach before row 0
            for rows in (
                padded,
                np.array([n - 1, 0, 17, 17, 3, n - 1, 1], dtype=np.int64),
                rng.permutation(n)[: n // 2],
                np.arange(n),
                np.array([], dtype=np.int64),
                *(rng.integers(0, n, size) for size in (1023, 1024, 1025)),
            ):
                out = view[rows]
                assert out.dtype == np.float64 and out.flags.c_contiguous
                assert out.shape == expected[rows].shape
                assert out.tobytes() == expected[rows].tobytes()


@pytest.mark.parametrize("window", [1, 3])
def test_transform_keeps_special_values_of_reference(rng, window):
    # outside the fitted rows 5..29: signed zeros in every column, infinities
    # in the numeric ones, so pass-through columns must keep their bits
    for n in (40, 2100):
        X, kinds, books = mixed_capture(rng, n)
        X[[0, 2, 31, 35], :] = -0.0
        X[[1, 33], :] = 0.0
        X[[3, 36], 0] = np.inf
        X[[4, 37], 1] = -np.inf
        X[[30, 38], 4] = np.inf
        X[n - 40 :] = X[:40]  # at n = 2,100 the same rows again, in the third block of 1,024
        p = fit_preprocessor(X[5:30], schema_of(kinds, books))
        assert np.signbit(reference_encode(X, X[5:30], kinds, books)[0]).any()
        expected = reference_transform(X, X[5:30], kinds, books, window)
        view = transform(p, X, window)
        for rows in (
            np.arange(n),
            np.arange(n)[::-1],
            np.array([38, 0, 2, 31, 4, 2, 17, 30, 1], dtype=np.int64),
            *(rng.integers(0, n, size) for size in (1023, 1024, 1025)),
        ):
            assert view[rows].tobytes() == expected[rows].tobytes()
