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

A tree grows on the rank table of the capture (Dataset.feature_ranks), not
on its values: each feature column's dense ranks among its values and 0.0,
the window padding value, which order and tie exactly as the values do. A
windowed column is a shifted capture column, so one table serves every
window. A tree's bootstrap sample is its distinct rows, as view-row
indices, each with its draw count and malicious flag; about 1 - 1/e of the
rows are distinct, so every node array is about a third shorter than the
sample, and no values are copied. A node packs rank << 32 | draws << 1 |
malicious into one int64 key per row and drawn feature and sorts each
feature's keys with one sort. Looked up from the low bits, draws << 32 |
malicious draws summed along the sorted keys gives the counts left of
every cut; the node scores every cut of every drawn feature at once and
takes one row-major argmin, a cut being valid where the rank changes. Rows
are routed by rank, the children get their counts from the cut, and the
threshold is read from the raw window view at two node rows holding the
ranks that bound the cut, so it is in data units. The counts are whole
numbers, so the node sizes and the leaf fractions are exactly those of the
sample with its repeated rows, and so is every tree. The sort need not be
stable: a cut is scored only where a run of equal ranks ends, and the
counts up to there are the same whatever the order inside the run.
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


# The low 32 bits of a node key or of a packed count.
_LOW = 0xFFFF_FFFF


def _best_split(ranks, windows, rows, low, size, malicious, rng, m_try, min_leaf):
    """The best split of the node holding the distinct view rows `rows`, as
    (feature, threshold, goes_left, left draws, left malicious draws), or
    None if no cut leaves min_leaf draws on each side. low[j] is the draw
    count of rows[j] << 1 | its malicious flag, and size and malicious are
    the node's draws and malicious draws, all below 2**31. Column c of view
    row i has the rank ranks[c % F, i + c // F], F being ranks.shape[0].
    """
    feats = rng.choice(windows.shape[1], size=m_try, replace=False)
    width = ranks.shape[0]
    columns = [ranks[c % width, c // width :] for c in feats.tolist()]
    keys = np.empty((m_try, len(rows)), dtype=np.int64)
    for key, column in zip(keys, columns):
        key[:] = column[rows]
    keys <<= 32
    keys |= low
    keys.sort(axis=1)
    # draws << 32 | malicious draws of each sorted row, summed along the rows:
    # column b counts what the cut after sorted position b sends left
    packed = np.arange(int(low.max()) + 1)
    packed = (packed >> 1) * ((1 << 32) + (packed & 1))
    left = packed[keys & _LOW]
    left = np.cumsum(left, axis=1, out=left)[:, :-1]
    n_l = (left >> 32).astype(np.float64)
    pos_l = (left & _LOW).astype(np.float64)
    pos_r = malicious - pos_l
    n_r = size - n_l
    cost = _weighted_gini(n_l, pos_l)
    cost += _weighted_gini(n_r, pos_r)
    cost /= size
    keys >>= 32
    cost[(keys[:, :-1] == keys[:, 1:]) | (n_l < min_leaf) | (n_r < min_leaf)] = np.inf
    i, b = np.unravel_index(np.argmin(cost), cost.shape)
    if cost[i, b] == np.inf:
        return None
    column, feature = columns[i][rows], feats[i]
    lo = windows[rows[np.argmax(column == keys[i, b])], feature]
    hi = windows[rows[np.argmax(column == keys[i, b + 1])], feature]
    # halves first, so the sum cannot overflow; between adjacent floats the
    # midpoint rounds to one of them, and the cut must keep lo on the left
    mid = lo / 2 + hi / 2
    threshold = float(lo if mid >= hi else mid)
    counts = int(left[i, b])
    return int(feature), threshold, column <= keys[i, b], counts >> 32, counts & _LOW


def _grow_tree(ranks, windows, rows, low, rng, max_depth, min_leaf, m_try) -> DecisionTree:
    """The tree of the sample whose distinct view rows are `rows`, low[j]
    being the draw count of rows[j] << 1 | its malicious flag."""
    leaf = [-1, 0.0, -1, -1, 0.0]  # feature, threshold, left, right, fraction
    nodes = [list(leaf)]
    draws = low >> 1
    stack = [(rows, low, int(draws.sum()), int(draws[low & 1 == 1].sum()), 0, 0)]
    while stack:
        rows, low, size, malicious, depth, slot = stack.pop()
        nodes[slot][4] = malicious / size
        if malicious == 0 or malicious == size:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if size < 2 * min_leaf:
            continue
        split = _best_split(ranks, windows, rows, low, size, malicious, rng, m_try, min_leaf)
        if split is None:
            continue
        f, thr, goes_left, size_l, malicious_l = split
        nodes[slot][:4] = [f, thr, len(nodes), len(nodes) + 1]
        nodes += [list(leaf), list(leaf)]
        goes_right = ~goes_left
        left = (rows[goes_left], low[goes_left], size_l, malicious_l)
        right = (rows[goes_right], low[goes_right], size - size_l, malicious - malicious_l)
        stack.append((*left, depth + 1, len(nodes) - 2))
        stack.append((*right, depth + 1, len(nodes) - 1))
    feature, threshold, left, right, fraction = zip(*nodes)
    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        fraction=np.asarray(fraction, dtype=np.float64),
    )


def _bootstrap(rows, y, rng):
    """Draw a bootstrap sample of the train rows (as many draws as rows,
    with replacement) and return its distinct rows, with the draw count of
    each << 1 | its label."""
    n = len(rows)
    draws = np.bincount(rng.integers(0, n, size=n), minlength=n)
    picked = np.flatnonzero(draws)
    return rows[picked], draws[picked] << 1 | y[picked]


def _padded_ranks(ranks, window):
    """The rank table of a window view: rank_columns' table with window - 1
    columns of 0.0's rank before the capture's, so that column c of view
    row i has the rank [c % F, i + c // F]."""
    n = ranks.shape[1] - 1
    padded = np.empty((ranks.shape[0], window - 1 + n), dtype=ranks.dtype)
    padded[:, : window - 1] = ranks[:, n:]
    padded[:, window - 1 :] = ranks[:, :n]
    return padded


def train_random_forest(
    hyperparameters: dict, rows, y, seed: int, windows, ranks
) -> list[DecisionTree]:
    """Grow n_trees trees on the windowed rows windows[rows], labelled y,
    each on its own bootstrap sample. ranks is rank_columns of the capture
    whose window view windows is, as Dataset.feature_ranks gives it. Tree i
    trains under its own RNG derived from (seed, i), so tree-level work could
    be parallelized without changing the result.
    """
    rows = np.asarray(rows, dtype=np.int64)
    y = np.asarray(y, dtype=bool)
    window = windows.shape[1] // ranks.shape[0]
    if window > 1:
        ranks = _padded_ranks(ranks, window)
    m_try = sqrt_feature_count(windows.shape[1])
    trees = []
    for i in range(hyperparameters["n_trees"]):
        rng = np.random.default_rng((seed, i))
        trees.append(
            _grow_tree(
                ranks,
                windows,
                *_bootstrap(rows, y, rng),
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
