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


def train_linear_svm(
    hyperparameters: dict, rows, y, seed: int, windows
) -> tuple[np.ndarray, float]:
    """Fit on the windowed rows windows[rows], labelled y, with y[i] the
    label of rows[i]. Each step reads its one row from `windows`, a 2-D
    array or view such as base.transform's, so no train matrix is built.
    """
    lam = hyperparameters["lambda"]
    epochs = hyperparameters["epochs"]
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.where(np.asarray(y, dtype=bool), 1.0, -1.0)
    n, n_features = len(rows), windows.shape[1]
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
        order = rng.permutation(n)
        for i, label in zip(rows[order].tolist(), labels[order].tolist()):
            x = windows[i]
            t += 1
            eta = 1.0 / (lam * t)
            margin = label * (x @ w + b)
            w *= 1.0 - eta * lam  # = 1 - 1/t
            if margin < 1.0:
                w += eta * label * x
                b += eta * label
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
