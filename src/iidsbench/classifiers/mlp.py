"""Fully connected feed-forward net: ReLU hidden layers, one sigmoid
output unit, binary cross-entropy loss, plain mini-batch gradient descent.

Weights initialize uniformly in [-r, r] with r = sqrt(6/(fan_in+fan_out));
biases start at zero. With an empty hidden tuple the net degenerates to
logistic regression. The loss is computed on logits via softplus, keeping
it smooth for the finite-difference gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import sigmoid


@dataclass(eq=False)
class MlpParams:
    weights: list[np.ndarray]  # layer l maps (fan_in, fan_out)
    biases: list[np.ndarray]


def init_params(layer_sizes: list[int], rng: np.random.Generator) -> MlpParams:
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MlpParams(weights=weights, biases=biases)


def _forward(params: MlpParams, X: np.ndarray):
    """Returns (activations per layer, pre-activations per layer); the last
    pre-activation is the output logit column.
    """
    activations = [X]
    pre = []
    a = X
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        pre.append(z)
        a = z if l == last else np.maximum(z, 0.0)
        activations.append(a)
    return activations, pre


def mlp_loss_and_grads(params: MlpParams, X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    n = len(X)
    activations, pre = _forward(params, X)
    z_out = pre[-1]
    loss = float(np.mean(np.logaddexp(0.0, z_out) - y * z_out))

    grads_w, grads_b = [], []  # last layer first
    delta = (sigmoid(z_out) - y) / n
    for l in range(len(params.weights) - 1, -1, -1):
        grads_w.append(activations[l].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if l > 0:
            delta = (delta @ params.weights[l].T) * (pre[l - 1] > 0.0)
    return loss, grads_w[::-1], grads_b[::-1]


def train_mlp(hyperparameters: dict, rows, y, seed: int, windows) -> MlpParams:
    """Fit on the windowed rows windows[rows], labelled y, with y[i] the
    label of rows[i]. `windows` is a 2-D array or view of windowed rows, such
    as base.transform's; each mini-batch gathers only its own rows from it,
    so the (len(rows), row width) train matrix is never built.
    """
    rows = np.asarray(rows, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    layer_sizes = [windows.shape[1], *hyperparameters["hidden"], 1]
    rng = np.random.default_rng(seed)
    params = init_params(layer_sizes, rng)
    lr = hyperparameters["learning_rate"]
    batch_size = hyperparameters["batch_size"]
    for _ in range(hyperparameters["epochs"]):
        order = rng.permutation(len(rows))
        for start in range(0, len(rows), batch_size):
            batch = order[start : start + batch_size]
            _, grads_w, grads_b = mlp_loss_and_grads(params, windows[rows[batch]], y[batch])
            for W, gW in zip(params.weights, grads_w):
                W -= lr * gW
            for b, gb in zip(params.biases, grads_b):
                b -= lr * gb
    return params


def mlp_scores(params: MlpParams, X) -> np.ndarray:
    """Output probability per row. The output unit is a per-row reduction,
    so a row's score does not depend on the rows scored with it; BLAS's
    matrix-vector product may round a row differently by its position. The
    hidden layers' products are row-independent for a fixed row count, which
    is why predict_dataset scores svm and mlp rows in fixed-size blocks.
    """
    a = np.asarray(X, dtype=np.float64)
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        a = np.maximum(a @ W + b, 0.0)
    return sigmoid(np.einsum("ij,j->i", a, params.weights[-1][:, 0]) + params.biases[-1][0])
