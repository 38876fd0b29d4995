"""Pegasos-style linear SVM training."""

from __future__ import annotations

import numpy as np
import pytest

from iidsbench.classifiers.base import fit_preprocessor, transform
from iidsbench.classifiers.svm import svm_scores, train_linear_svm
from iidsbench.dataset import CATEGORICAL, NUMERIC, FeatureSchema


def test_two_point_separation():
    x = np.array([[-1.0], [1.0]])
    y = np.array([False, True])
    w, b = train_linear_svm({"lambda": 0.01, "epochs": 200}, np.arange(len(x)), y, 0, x)
    assert x[0] @ w + b < 0
    assert x[1] @ w + b > 0
    scores = svm_scores(w, b, x)
    assert scores[0] < 0.5 < scores[1]


def test_identical_rows_bias_to_majority():
    x = np.ones((12, 2))
    y = np.array([True] * 9 + [False] * 3)
    w, b = train_linear_svm({"lambda": 0.01, "epochs": 100}, np.arange(len(x)), y, 1, x)
    # no separating direction exists; weights stay near zero and the bias
    # carries the majority class
    scores = svm_scores(w, b, x)
    assert (scores >= 0.5).all()


def test_huge_lambda_crushes_weights():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 3))
    y = x[:, 0] > 0
    w, _ = train_linear_svm({"lambda": 1e6, "epochs": 10}, np.arange(len(x)), y, 2, x)
    assert np.linalg.norm(w) < 1e-2


def test_deterministic():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 4))
    y = x[:, 1] > 0
    a = train_linear_svm({"lambda": 1e-4, "epochs": 10}, np.arange(len(x)), y, 5, x)
    b = train_linear_svm({"lambda": 1e-4, "epochs": 10}, np.arange(len(x)), y, 5, x)
    assert (a[0] == b[0]).all() and a[1] == b[1]


def test_separable_accuracy():
    rng = np.random.default_rng(4)
    benign = rng.normal(0, 1, size=(150, 2))
    attack = rng.normal(0, 1, size=(150, 2))
    attack[:, 0] += 10.0
    x = np.vstack([benign, attack])
    y = np.array([False] * 150 + [True] * 150)
    params = train_linear_svm({"lambda": 1e-4, "epochs": 10}, np.arange(len(x)), y, 6, x)
    pred = svm_scores(*params, x) >= 0.5
    assert (pred == y).mean() >= 0.99


def reference_train_linear_svm(hyperparameters: dict, X_windowed, y, seed: int):
    """The training loop on the built matrix of windowed train rows, indexing
    each step's row and label from it: the oracle for train_linear_svm's
    steps over a view."""
    lam = hyperparameters["lambda"]
    X = np.asarray(X_windowed, dtype=np.float64)
    labels = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
    n, n_features = X.shape
    w, b = np.zeros(n_features), 0.0
    total = hyperparameters["epochs"] * n
    tail_start = total - total // 2 + 1
    w_sum, b_sum, averaged, t = np.zeros(n_features), 0.0, 0, 0
    rng = np.random.default_rng(seed)
    for _ in range(hyperparameters["epochs"]):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = labels[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * labels[i] * X[i]
                b += eta * labels[i]
            if t >= tail_start:
                w_sum += w
                b_sum += b
                averaged += 1
    return w_sum / averaged, float(b_sum / averaged)


@pytest.mark.parametrize("window", [1, 3])
def test_steps_over_window_view_match_built_matrix(window):
    rng = np.random.default_rng(8)
    n = 400
    X = np.column_stack(
        [rng.normal(0.0, 2.0, n), rng.integers(0, 4, n), rng.normal(5.0, 1.0, n)]
    ).astype(np.float64)
    kinds = (NUMERIC, CATEGORICAL, NUMERIC)
    schema = FeatureSchema(("f0", "f1", "f2"), kinds, {"f1": ("a", "b", "c")})
    rows = rng.permutation(n)[:300]
    y = rng.integers(0, 2, len(rows)).astype(bool)
    hp = {"lambda": 1e-3, "epochs": 3}
    windows = transform(fit_preprocessor(X[rows], schema), X, window)
    w_ref, b_ref = reference_train_linear_svm(hp, windows[rows], y, seed=4)
    w, b = train_linear_svm(hp, rows, y, 4, windows)
    assert w.tobytes() == w_ref.tobytes()
    assert np.float64(b).tobytes() == np.float64(b_ref).tobytes()
