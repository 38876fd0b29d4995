"""MLP: gradient correctness, logistic-regression degenerate case, training."""

from __future__ import annotations

import numpy as np

from iidsbench.classifiers.mlp import (
    init_params,
    mlp_loss,
    mlp_loss_and_grads,
    mlp_scores,
    train_mlp,
)


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
    params = train_mlp(
        {"hidden": (), "learning_rate": 0.5, "batch_size": 32, "epochs": 200}, x, y, seed=2
    )
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
    p1 = train_mlp(hp, x, y, seed=10)
    p2 = train_mlp(hp, x, y, seed=11)
    assert not all((a == b).all() for a, b in zip(p1.weights, p2.weights))
    for params in (p1, p2):
        acc = ((mlp_scores(params, x) >= 0.5) == y).mean()
        assert acc >= 0.99


def test_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = x[:, 0] > 0
    hp = {"hidden": (8,), "learning_rate": 0.1, "batch_size": 16, "epochs": 5}
    p1 = train_mlp(hp, x, y, seed=7)
    p2 = train_mlp(hp, x, y, seed=7)
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
