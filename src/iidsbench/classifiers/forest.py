"""CART-style random forest grown on bootstrap samples.

Each node draws sqrt(F) candidate features without replacement and takes
the (feature, threshold) pair minimizing weighted Gini impurity, with
thresholds at midpoints between consecutive distinct sorted values, or at
the lower value where no float lies between the two. Ties
keep the earliest candidate in draw order, then the lowest threshold, so
training is deterministic given the seed. Leaves store the malicious
fraction of their samples; a tree votes malicious when the reached leaf's
fraction is >= 0.5, and the forest score is the fraction of trees voting
malicious.

A tree grows on the distinct rows of its bootstrap sample, each weighted
by its draw count, held as a feature-major (F x distinct rows) matrix so
that each candidate feature is one contiguous row. About 1 - 1/e of the
rows are distinct, so every node array is about a third shorter than the
sample. A node sorts all its drawn features with one argsort along the
rows, takes weighted cumulative sums of the draw counts and the malicious
draw counts, scores every cut position of every row at once, and takes one
row-major argmin. The counts are whole numbers in float64, so they, the
node sizes and the leaf fractions are exactly those of the sample with its
repeated rows, and so is every tree. The sort need not be stable: a cut is
scored only where a run of equal values ends, and the counts up to there
are the same whatever the order inside the run (float sums of whole
numbers are exact).
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


def _best_split(Xt, w, pos, idx, rng, m_try, min_leaf):
    """The best (feature, threshold) of the node holding the distinct rows
    idx, or None if no cut leaves min_leaf draws on each side. w[i] is the
    draw count of row i and pos[i] its malicious draws (w[i] or 0).
    """
    feats = rng.choice(Xt.shape[0], size=m_try, replace=False)
    wv, pv = w[idx], pos[idx]
    n = wv.sum()
    sv = Xt[feats[:, None], idx]
    order = np.argsort(sv, axis=1)
    sv = np.take_along_axis(sv, order, axis=1)
    # column b scores the cut after sorted position b, which sends n_l draws left
    n_l = np.cumsum(wv[order], axis=1)[:, :-1]
    pos_l = np.cumsum(pv[order], axis=1)[:, :-1]
    del order
    pos_r = pv.sum() - pos_l
    n_r = n - n_l
    cost = _weighted_gini(n_l, pos_l)
    cost += _weighted_gini(n_r, pos_r)
    cost /= n
    cost[~(sv[:, :-1] < sv[:, 1:]) | (n_l < min_leaf) | (n_r < min_leaf)] = np.inf
    i, b = np.unravel_index(np.argmin(cost), cost.shape)
    if cost[i, b] == np.inf:
        return None
    lo, hi = sv[i, b], sv[i, b + 1]
    # halves first, so the sum cannot overflow; between adjacent floats the
    # midpoint rounds to one of them, and the cut must keep lo on the left
    mid = lo / 2 + hi / 2
    return int(feats[i]), float(lo if mid >= hi else mid)


def _grow_tree(Xt, w, pos, rng, max_depth, min_leaf, m_try) -> DecisionTree:
    leaf = [-1, 0.0, -1, -1, 0.0]  # feature, threshold, left, right, fraction
    nodes = [list(leaf)]
    stack = [(np.arange(len(w)), 0, 0)]
    while stack:
        idx, depth, slot = stack.pop()
        size, malicious = w[idx].sum(), pos[idx].sum()
        nodes[slot][4] = malicious / size
        if malicious == 0 or malicious == size:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if size < 2 * min_leaf:
            continue
        split = _best_split(Xt, w, pos, idx, rng, m_try, min_leaf)
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


def _bootstrap(windows, rows, y, rng):
    """Draw a bootstrap sample of the train rows windows[rows] (as many draws
    as rows, with replacement) and return its distinct rows as a
    feature-major matrix, with the draw count and the malicious draw count
    of each.
    """
    n = len(rows)
    draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
    picked = np.flatnonzero(draws)
    w = draws[picked].astype(np.float64)
    # gathered 1024 rows at a time so that no second full-size copy is ever live
    Xt = np.empty((windows.shape[1], len(picked)))
    for start in range(0, len(picked), 1024):
        Xt[:, start : start + 1024] = windows[rows[picked[start : start + 1024]]].T
    return Xt, w, np.where(y[picked], w, 0.0)


def train_random_forest(hyperparameters: dict, rows, y, seed: int, windows) -> list[DecisionTree]:
    """Grow n_trees trees on the windowed rows windows[rows], labelled y,
    each on its own bootstrap sample. Tree i trains under its own RNG
    derived from (seed, i), so tree-level work could be parallelized without
    changing the result.
    """
    rows = np.asarray(rows, dtype=np.int64)
    y = np.asarray(y, dtype=bool)
    m_try = sqrt_feature_count(windows.shape[1])
    trees = []
    for i in range(hyperparameters["n_trees"]):
        rng = np.random.default_rng((seed, i))
        # no reference to a sample outlives its tree, which keeps peak memory down
        trees.append(
            _grow_tree(
                *_bootstrap(windows, rows, y, rng),
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
