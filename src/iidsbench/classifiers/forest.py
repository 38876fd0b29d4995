"""CART-style random forest grown on bootstrap samples.

Each node draws sqrt(F) candidate features without replacement and takes
the (feature, threshold) pair minimizing weighted Gini impurity, with
thresholds at midpoints between consecutive distinct sorted values. Ties
keep the earliest candidate in draw order, then the lowest threshold, so
training is deterministic given the seed. Leaves store the malicious
fraction of their samples; a tree votes malicious when the reached leaf's
fraction is >= 0.5, and the forest score is the fraction of trees voting
malicious.

A tree grows on a feature-major (F x n) copy of its bootstrap sample, so
each candidate feature is one contiguous row. A node sorts all its drawn
features with one argsort along the rows, scores every cut position of
every row at once, and takes one row-major argmin. The sort need not be
stable: a cut is scored only where a run of equal values ends, and the
count of malicious rows up to there is the same whatever the order inside
the run (float sums of 0/1 are exact).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import sqrt_feature_count


@dataclass(eq=False)
class DecisionTree:
    feature: np.ndarray  # split feature per node; -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fraction: np.ndarray  # malicious fraction of the node's training rows


def _weighted_gini(count, pos):
    """count * 2 * p * (1 - p) with p = pos / count, computed in pos."""
    pos /= count
    q = 1 - pos
    pos *= count * 2
    pos *= q
    return pos


def _best_split(Xt, y, idx, rng, m_try, min_leaf):
    feats = rng.choice(Xt.shape[0], size=m_try, replace=False)
    n = len(idx)
    yv = y[idx]
    sv = Xt[feats[:, None], idx]
    order = np.argsort(sv, axis=1)
    sv = np.take_along_axis(sv, order, axis=1)
    # column b scores the cut after sorted position b, which sends b + 1 rows left
    pos_l = np.cumsum(yv[order], axis=1, dtype=np.float64)[:, :-1]
    del order
    pos_r = yv.sum() - pos_l
    n_l = np.arange(1, n, dtype=np.float64)
    cost = _weighted_gini(n_l, pos_l)
    cost += _weighted_gini(n - n_l, pos_r)
    cost /= n
    cost[~(sv[:, :-1] < sv[:, 1:])] = np.inf
    cost[:, : min_leaf - 1] = np.inf
    cost[:, n - min_leaf :] = np.inf
    i, b = np.unravel_index(np.argmin(cost), cost.shape)
    if cost[i, b] == np.inf:
        return None
    return int(feats[i]), float((sv[i, b] + sv[i, b + 1]) / 2.0)


def _grow_tree(Xt, y, rng, max_depth, min_leaf, m_try) -> DecisionTree:
    leaf = [-1, 0.0, -1, -1, 0.0]  # feature, threshold, left, right, fraction
    nodes = [list(leaf)]
    stack = [(np.arange(len(y)), 0, 0)]
    while stack:
        idx, depth, slot = stack.pop()
        pos = int(y[idx].sum())
        nodes[slot][4] = pos / len(idx)
        if pos == 0 or pos == len(idx):
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if len(idx) < 2 * min_leaf:
            continue
        split = _best_split(Xt, y, idx, rng, m_try, min_leaf)
        if split is None:
            continue
        f, thr = split
        goes_left = Xt[f, idx] <= thr
        nodes[slot][:4] = [f, thr, len(nodes), len(nodes) + 1]
        nodes += [list(leaf), list(leaf)]
        stack.append((idx[goes_left], depth + 1, len(nodes) - 2))
        stack.append((idx[~goes_left], depth + 1, len(nodes) - 1))
    feature, threshold, left, right, fraction = zip(*nodes)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        fraction=np.asarray(fraction, dtype=np.float64),
    )


def train_random_forest(hyperparameters: dict, X, y, seed: int) -> list[DecisionTree]:
    """Grow n_trees trees, each on a bootstrap resample (same size as the
    train set, drawn with replacement). Tree i trains under its own RNG
    derived from (seed, i), so tree-level work could be parallelized without
    changing the result.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    n = len(y)
    m_try = sqrt_feature_count(X.shape[1])
    trees = []
    for i in range(hyperparameters["n_trees"]):
        rng = np.random.default_rng((seed, i))
        boot = rng.integers(0, n, size=n)
        # feature-major bootstrap, gathered 1024 rows at a time so that no
        # second full-size copy is ever live
        Xt = np.empty((X.shape[1], n))
        for start in range(0, n, 1024):
            Xt[:, start : start + 1024] = X[boot[start : start + 1024]].T
        trees.append(
            _grow_tree(
                Xt,
                y[boot],
                rng,
                hyperparameters["max_depth"],
                hyperparameters["min_leaf"],
                m_try,
            )
        )
    return trees


def tree_leaf_fractions(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(tree.feature[node] >= 0)
    while active.size:
        current = node[active]
        values = X[active, tree.feature[current]]
        node[active] = np.where(
            values <= tree.threshold[current], tree.left[current], tree.right[current]
        )
        active = active[tree.feature[node[active]] >= 0]
    return tree.fraction[node]


def forest_scores(trees: list[DecisionTree], X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros(len(X), dtype=np.float64)
    for tree in trees:
        votes += tree_leaf_fractions(tree, X) >= 0.5
    return votes / len(trees)
