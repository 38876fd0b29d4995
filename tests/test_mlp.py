"""MLP: gradient correctness, logistic-regression degenerate case, training."""

from __future__ import annotations

import numpy as np
import pytest

from iidsbench.classifiers.base import fit_preprocessor, transform
from iidsbench.classifiers.mlp import (
    MlpParams,
    init_params,
    mlp_loss_and_grads,
    mlp_scores,
    train_mlp,
)
from iidsbench.dataset import CATEGORICAL, NUMERIC, FeatureSchema

from conftest import mlp_loss


def test_gradient_check_small_net():
    rng = np.random.default_rng(0)
    params = init_params([3, 4, 2, 1], rng)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 2, 5).astype(float)
    _, grads_w, grads_b = mlp_loss_and_grads(params, x, y)
    eps = 1e-4
    worst = 0.0
    for layer, gw in enumerate(grads_w):
        w = params.weights[layer]
        for idx in np.ndindex(w.shape):
            original = w[idx]
            w[idx] = original + eps
            up = mlp_loss(params, x, y)
            w[idx] = original - eps
            down = mlp_loss(params, x, y)
            w[idx] = original
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(gw[idx]), 1e-8)
            worst = max(worst, abs(numeric - gw[idx]) / denom)
    for layer, gb in enumerate(grads_b):
        b = params.biases[layer]
        for idx in np.ndindex(b.shape):
            original = b[idx]
            b[idx] = original + eps
            up = mlp_loss(params, x, y)
            b[idx] = original - eps
            down = mlp_loss(params, x, y)
            b[idx] = original
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(gb[idx]), 1e-8)
            worst = max(worst, abs(numeric - gb[idx]) / denom)
    assert worst < 1e-3


def test_zero_hidden_is_logistic_regression():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(-3, 0.5, 80), rng.normal(3, 0.5, 80)]).reshape(-1, 1)
    y = np.array([False] * 80 + [True] * 80)
    hp = {"hidden": (), "learning_rate": 0.5, "batch_size": 32, "epochs": 200}
    params = train_mlp(hp, np.arange(len(x)), y, 2, x)
    assert len(params.weights) == 1  # single affine layer
    pred = mlp_scores(params, x) >= 0.5
    assert (pred == y).mean() == 1.0


def test_two_seeds_differ_but_both_learn():
    rng = np.random.default_rng(3)
    benign = rng.normal(0, 1, size=(200, 3))
    attack = rng.normal(0, 1, size=(200, 3))
    attack[:, 2] += 10.0
    x = np.vstack([benign, attack])
    y = np.array([False] * 200 + [True] * 200)
    hp = {"hidden": (16,), "learning_rate": 0.05, "batch_size": 64, "epochs": 40}
    p1 = train_mlp(hp, np.arange(len(x)), y, 10, x)
    p2 = train_mlp(hp, np.arange(len(x)), y, 11, x)
    assert not all((a == b).all() for a, b in zip(p1.weights, p2.weights))
    for params in (p1, p2):
        acc = ((mlp_scores(params, x) >= 0.5) == y).mean()
        assert acc >= 0.99


def test_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = x[:, 0] > 0
    hp = {"hidden": (8,), "learning_rate": 0.1, "batch_size": 16, "epochs": 5}
    p1 = train_mlp(hp, np.arange(len(x)), y, 7, x)
    p2 = train_mlp(hp, np.arange(len(x)), y, 7, x)
    assert all((a == b).all() for a, b in zip(p1.weights, p2.weights))
    assert all((a == b).all() for a, b in zip(p1.biases, p2.biases))


def test_glorot_init_bounds():
    rng = np.random.default_rng(5)
    params = init_params([10, 6, 1], rng)
    r0 = np.sqrt(6.0 / (10 + 6))
    r1 = np.sqrt(6.0 / (6 + 1))
    assert abs(params.weights[0]).max() <= r0
    assert abs(params.weights[1]).max() <= r1
    assert (params.biases[0] == 0).all() and (params.biases[1] == 0).all()


def reference_train_mlp(hyperparameters: dict, X_windowed, y, seed: int) -> MlpParams:
    """The training loop on the built matrix of windowed train rows, indexing
    each mini-batch from it: the oracle for train_mlp's gathers from a view."""
    X = np.asarray(X_windowed, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    params = init_params([X.shape[1], *hyperparameters["hidden"], 1], rng)
    lr = hyperparameters["learning_rate"]
    batch_size = hyperparameters["batch_size"]
    for _ in range(hyperparameters["epochs"]):
        order = rng.permutation(len(X))
        for start in range(0, len(X), batch_size):
            batch = order[start : start + batch_size]
            _, grads_w, grads_b = mlp_loss_and_grads(params, X[batch], y[batch])
            for W, gW in zip(params.weights, grads_w):
                W -= lr * gW
            for b, gb in zip(params.biases, grads_b):
                b -= lr * gb
    return params


@pytest.mark.parametrize("window", [1, 3, 5])
def test_batches_from_window_view_match_built_matrix(window):
    rng = np.random.default_rng(6)
    n = 400
    X = np.column_stack(
        [rng.normal(0.0, 2.0, n), rng.integers(0, 4, n), rng.normal(5.0, 1.0, n), rng.integers(0, 3, n)]
    ).astype(np.float64)
    schema = FeatureSchema(
        ("f0", "f1", "f2", "f3"),
        (NUMERIC, CATEGORICAL, NUMERIC, CATEGORICAL),
        {"f1": ("a", "b", "c"), "f3": ("a", "b")},
    )
    rows = rng.permutation(n)[:300]  # shuffled, and 300 is no multiple of the batch size 64
    y = rng.integers(0, 2, len(rows)).astype(bool)
    hp = {"hidden": (8, 4), "learning_rate": 0.05, "batch_size": 64, "epochs": 2}
    windows = transform(fit_preprocessor(X[rows], schema), X, window)
    expected = reference_train_mlp(hp, windows[rows], y, seed=9)
    got = train_mlp(hp, rows, y, 9, windows)
    for a, b in zip(got.weights + got.biases, expected.weights + expected.biases, strict=True):
        assert a.tobytes() == b.tobytes()
