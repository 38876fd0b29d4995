"""Primal linear SVM fit by stochastic subgradient descent.

Objective: lambda/2 * ||w||^2 + mean(max(0, 1 - y_i (w.x_i + b))) with
labels in {-1, +1}. Steps follow the 1/(lambda*t) schedule over a seeded
shuffle per epoch; the bias is unregularized. The returned parameters are
the average of the iterates over the second half of the steps: the last
iterate oscillates (the early 1/(lambda*t) steps are huge, the more so
the smaller lambda), while the tail average is stable. Scores map the
margin through a sigmoid so the shared >= 0.5 decision rule applies.
"""

from __future__ import annotations

import numpy as np

from .base import sigmoid


def train_linear_svm(hyperparameters: dict, X, y, seed: int) -> tuple[np.ndarray, float]:
    lam = hyperparameters["lambda"]
    epochs = hyperparameters["epochs"]
    X = np.asarray(X, dtype=np.float64)
    labels = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
    n, n_features = X.shape
    w = np.zeros(n_features, dtype=np.float64)
    b = 0.0
    total = epochs * n
    tail_start = total - total // 2 + 1  # steps t >= tail_start enter the average
    w_sum = np.zeros(n_features, dtype=np.float64)
    b_sum = 0.0
    averaged = 0
    t = 0
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = labels[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam  # = 1 - 1/t
            if margin < 1.0:
                w += eta * labels[i] * X[i]
                b += eta * labels[i]
            if t >= tail_start:
                w_sum += w
                b_sum += b
                averaged += 1
    return w_sum / averaged, float(b_sum / averaged)


def svm_scores(weights: np.ndarray, bias: float, X) -> np.ndarray:
    """Sigmoid of each row's margin. The margin is a per-row reduction, so a
    row's score does not depend on the rows scored with it; BLAS's
    matrix-vector product may round a row differently by its position.
    """
    X = np.asarray(X, dtype=np.float64)
    return sigmoid(np.einsum("ij,j->i", X, weights) + bias)
