"""Random forest: split selection, stopping rules, scoring, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from iidsbench.classifiers.base import transform
from iidsbench.classifiers.forest import (
    _best_split,
    _grow_tree,
    forest_scores,
    train_random_forest,
)
from iidsbench.dataset import rank_columns


def train_on(hyper, rows, y, seed, X):
    """train_random_forest over the matrix X ranked as a capture of its own."""
    return train_random_forest(hyper, rows, y, seed, X, rank_columns(X))


def hp(**overrides):
    base = {"n_trees": 100, "max_depth": 20, "min_leaf": 2}
    base.update(overrides)
    return base


def test_two_point_midpoint_split():
    x = np.array([[0.0], [1.0]])
    y = np.array([False, True])
    forest = train_on(hp(n_trees=1, min_leaf=1), np.arange(len(x)), y, 0, x)
    tree = forest[0]
    # bootstrap of 2 points may draw a pure sample; find a seed with both
    seed = 0
    while len(set(np.random.default_rng((seed, 0)).integers(0, 2, 2).tolist())) == 1:
        seed += 1
    forest = train_on(hp(n_trees=1, min_leaf=1), np.arange(len(x)), y, seed, x)
    tree = forest[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 0.5  # midpoint of the two distinct values


def test_pure_node_is_leaf():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([True, True, True])
    forest = train_on(hp(n_trees=3, min_leaf=1), np.arange(len(x)), y, 1, x)
    for tree in forest:
        assert tree.feature[0] == -1  # root is a leaf
        assert tree.fraction[0] == 1.0


def test_separable_sign_probe(rng):
    x = rng.normal(0, 1, size=(100, 1))
    x = x[abs(x[:, 0]) > 0.05]  # keep a margin around the boundary
    y = x[:, 0] > 0
    forest = train_on(hp(n_trees=20), np.arange(len(x)), y, 3, x)
    scores = forest_scores(forest, np.array([[-1.0], [1.0]]))
    assert scores[0] < 0.5
    assert scores[1] > 0.5


def test_single_unbounded_tree_memorizes(rng):
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, 60).astype(bool)
    y[0], y[1] = False, True
    forest = train_on(
        {"n_trees": 1, "max_depth": None, "min_leaf": 1}, np.arange(len(x)), y, 5, x
    )
    # train on the bootstrap sample; accuracy must be 1.0 on it
    boot = np.random.default_rng((5, 0)).integers(0, 60, 60)
    scores = forest_scores(forest, x[boot])
    assert ((scores >= 0.5) == y[boot]).all()


def test_max_depth_respected(rng):
    x = rng.normal(size=(200, 3))
    y = rng.integers(0, 2, 200).astype(bool)
    forest = train_on(hp(n_trees=5, max_depth=2, min_leaf=1), np.arange(len(x)), y, 7, x)

    def depth(tree, node=0):
        if tree.feature[node] == -1:
            return 0
        return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

    assert all(depth(t) <= 2 for t in forest)


def test_all_trees_vote_malicious():
    x = np.vstack([np.zeros((10, 1)), np.ones((10, 1))])
    y = np.array([False] * 10 + [True] * 10)
    forest = train_on(hp(n_trees=9, min_leaf=1), np.arange(len(x)), y, 2, x)
    scores = forest_scores(forest, np.array([[1.0]]))
    assert scores[0] == 1.0


def test_deterministic(rng):
    x = rng.normal(size=(80, 3))
    y = rng.integers(0, 2, 80).astype(bool)
    y[:2] = [False, True]
    a = train_on(hp(n_trees=10), np.arange(len(x)), y, 11, x)
    b = train_on(hp(n_trees=10), np.arange(len(x)), y, 11, x)
    probe = rng.normal(size=(30, 3))
    assert (forest_scores(a, probe) == forest_scores(b, probe)).all()
    c = train_on(hp(n_trees=10), np.arange(len(x)), y, 12, x)
    assert not (forest_scores(a, probe) == forest_scores(c, probe)).all()


# -- split search against the per-feature reference --------------------------


def reference_best_split(X, y, idx, rng, m_try, min_leaf):
    """One feature at a time over a row-major X, stable sort, first strict
    minimum wins: the search the vectorized one must reproduce exactly."""
    feats = rng.choice(X.shape[1], size=m_try, replace=False)
    n = len(idx)
    yv = y[idx].astype(np.float64)
    best = None  # (cost, feature, threshold)
    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = yv[order]
        boundaries = np.flatnonzero(sv[:-1] < sv[1:])
        if boundaries.size == 0:
            continue
        n_left = boundaries + 1
        keep = (n_left >= min_leaf) & ((n - n_left) >= min_leaf)
        if not keep.any():
            continue
        boundaries = boundaries[keep]
        cum_pos = np.cumsum(sy)
        n_l = (boundaries + 1).astype(np.float64)
        pos_l = cum_pos[boundaries]
        n_r = n - n_l
        pos_r = cum_pos[-1] - pos_l
        p_l = pos_l / n_l
        p_r = pos_r / n_r
        cost = (n_l * 2 * p_l * (1 - p_l) + n_r * 2 * p_r * (1 - p_r)) / n
        j = int(np.argmin(cost))
        if best is None or cost[j] < best[0]:
            thr = (sv[boundaries[j]] + sv[boundaries[j] + 1]) / 2.0
            best = (float(cost[j]), int(f), float(thr))
    if best is None:
        return None
    return best[1], best[2]


def tied_matrix(rng, n, n_features):
    """Columns of few integer values, one constant column, and a column whose
    zeros are a mix of 0.0 and -0.0."""
    X = rng.integers(-2, 3, size=(n, n_features)).astype(np.float64)
    X[:, 1] = 7.0
    zeros = X[:, 2] == 0
    X[zeros, 2] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
    X[:, 3] = rng.normal(size=n).round(1)
    return X


def ranked_split(X, y, draws, idx, rng, m_try, min_leaf):
    """_best_split over the distinct rows idx of X, row i weighted by
    draws[i], with X ranked as its own capture. Checks the routing and the
    left counts it returns against the threshold, and returns (feature,
    threshold) or None."""
    low = draws << 1 | y
    size, malicious = float(draws[idx].sum()), float(draws[idx][y[idx]].sum())
    split = _best_split(rank_columns(X), X, idx, low[idx], size, malicious, rng, m_try, min_leaf)
    if split is None:
        return None
    feature, threshold, goes_left, size_l, malicious_l = split
    assert (goes_left == (X[idx, feature] <= threshold)).all()
    assert size_l == draws[idx][goes_left].sum()
    assert malicious_l == draws[idx][goes_left & y[idx]].sum()
    return feature, threshold


def assert_same_split(X, y, idx, seed, m_try, min_leaf):
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    ref = reference_best_split(X, y, idx, ref_rng, m_try, min_leaf)
    new = ranked_split(X, y, np.ones(len(y), dtype=np.int64), idx, new_rng, m_try, min_leaf)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    if ref is None:
        assert new is None
    else:
        assert new is not None
        assert new[0] == ref[0]
        assert np.float64(new[1]).tobytes() == np.float64(ref[1]).tobytes()
    return new


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_best_split_matches_reference(min_leaf):
    rng = np.random.default_rng(min_leaf)
    found = 0
    for trial in range(60):
        n_rows, n_features = 40, int(rng.integers(4, 10))
        X = tied_matrix(rng, n_rows, n_features)
        y = rng.random(n_rows) < rng.uniform(0.1, 0.9)
        # node sizes from just above 2 * min_leaf up to every row
        size = int(rng.integers(2 * min_leaf, n_rows + 1))
        if trial % 3 == 0:
            size = min(n_rows, 2 * min_leaf + int(rng.integers(0, 3)))
        idx = np.sort(rng.choice(n_rows, size=size, replace=False))
        m_try = int(rng.integers(1, n_features + 1))
        found += assert_same_split(X, y, idx, trial, m_try, min_leaf) is not None
    assert found > 30


def test_best_split_signed_zero_threshold():
    # the only cut lies between -0.5 and a run of mixed 0.0 / -0.0
    X = np.array([[-0.5], [0.0], [-0.0], [0.0], [-0.0]])
    y = np.array([True, False, False, False, False])
    assert assert_same_split(X, y, np.arange(5), 0, 1, 1) == (0, -0.25)


def test_best_split_none_without_valid_cut():
    X = np.array([[3.0, 0.0], [3.0, 0.0], [3.0, 0.0], [3.0, 1.0], [3.0, 0.0], [3.0, 0.0]])
    y = np.array([False, True, False, True, False, True])
    idx = np.arange(6)
    # column 0 is constant; column 1's one cut leaves a single row on one side
    assert assert_same_split(X, y, idx, 0, 2, 2) is None
    assert assert_same_split(X, y, idx, 0, 2, 1) == (1, 0.5)


# -- distinct rows weighted by draw count against the repeated rows ----------


def assert_same_weighted_split(X, y, draws, idx, seed, m_try, min_leaf):
    """_best_split over the distinct rows idx, row i weighted by draws[i],
    against reference_best_split over the same rows each repeated draws[i]
    times."""
    row_of = np.repeat(np.arange(len(X)), draws)
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    ref = reference_best_split(
        X[row_of], y[row_of], np.flatnonzero(np.isin(row_of, idx)), ref_rng, m_try, min_leaf
    )
    new = ranked_split(X, y, draws, idx, new_rng, m_try, min_leaf)
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    if ref is None:
        assert new is None
    else:
        assert new is not None
        assert new[0] == ref[0]
        assert np.float64(new[1]).tobytes() == np.float64(ref[1]).tobytes()
    return new


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_weighted_best_split_matches_repeated_rows(min_leaf):
    rng = np.random.default_rng(100 + min_leaf)
    found = 0
    for trial in range(60):
        n_rows, n_features = 30, int(rng.integers(4, 10))
        X = tied_matrix(rng, n_rows, n_features)
        y = rng.random(n_rows) < rng.uniform(0.1, 0.9)
        draws = rng.integers(1, 5, n_rows)
        # from a couple of distinct rows up to all of them
        size = int(rng.integers(2, n_rows + 1))
        if trial % 3 == 0:
            size = int(rng.integers(2, 5))
        idx = np.sort(rng.choice(n_rows, size=size, replace=False))
        m_try = int(rng.integers(1, n_features + 1))
        found += assert_same_weighted_split(X, y, draws, idx, trial, m_try, min_leaf) is not None
    assert found > 30


def test_weighted_best_split_signed_zero_threshold():
    X = np.array([[-0.5], [0.0], [-0.0], [0.0], [-0.0]])
    y = np.array([True, False, False, False, False])
    draws = np.array([2, 1, 3, 1, 2])
    assert assert_same_weighted_split(X, y, draws, np.arange(5), 0, 1, 1) == (0, -0.25)
    # two draws of the one malicious row meet min_leaf 2 on the left
    assert assert_same_weighted_split(X, y, draws, np.arange(5), 0, 1, 2) == (0, -0.25)
    assert assert_same_weighted_split(X, y, draws, np.arange(5), 0, 1, 3) is None


@pytest.mark.parametrize("min_leaf", [1, 2])
def test_tree_over_distinct_rows_equals_tree_over_bootstrap(min_leaf):
    rng = np.random.default_rng(7)
    X = tied_matrix(rng, 80, 6)
    y = rng.random(80) < 0.4
    hyper = {"n_trees": 1, "max_depth": None, "min_leaf": min_leaf}
    tree = train_on(hyper, np.arange(len(X)), y, min_leaf, X)[0]
    rng = np.random.default_rng((min_leaf, 0))
    boot = rng.integers(0, 80, 80)
    low = np.full(80, 2) | y[boot]  # one draw of each repeated row
    Xb = X[boot]
    expected = _grow_tree(rank_columns(Xb), Xb, np.arange(80), low, rng, None, min_leaf, 2)
    assert len(tree.feature) > 3
    for name in ("feature", "threshold", "left", "right", "fraction"):
        assert getattr(tree, name).tobytes() == getattr(expected, name).tobytes()


@pytest.mark.parametrize("window", [1, 3])
def test_trees_from_window_view_match_built_matrix(window):
    rng = np.random.default_rng(9)
    X = tied_matrix(rng, 120, 4)
    rows = rng.permutation(120)[:90]
    y = rng.random(90) < 0.4
    windows = transform(None, X, window)
    hyper = {"n_trees": 3, "max_depth": None, "min_leaf": 1}
    expected = train_on(hyper, np.arange(len(rows)), y, 6, windows[rows])
    got = train_on(hyper, rows, y, 6, windows)
    assert sum(len(tree.feature) for tree in got) > 9
    for a, b in zip(got, expected, strict=True):
        for name in ("feature", "threshold", "left", "right", "fraction"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("low", [1.0000000000000002, 1.0e308])
def test_cut_between_close_or_huge_values_keeps_both_sides(low):
    # 1.0000000000000004 is the float after 1.0000000000000002, so their
    # midpoint rounds to one of the two; 1.0e308 + 1.7e308 overflows
    high = np.nextafter(low, np.inf) if low < 2.0 else 1.7e308
    x = np.array([[low]] * 4 + [[high]] * 4)
    y = np.array([False] * 4 + [True] * 4)
    for max_depth in (3, None):
        hyper = {"n_trees": 1, "max_depth": max_depth, "min_leaf": 1}
        tree = train_on(hyper, np.arange(8), y, 0, x)[0]
        assert low <= tree.threshold[0] < high
        assert forest_scores([tree], np.array([[low], [high]])).tolist() == [0.0, 1.0]


# -- the rank table --------------------------------------------------------


def test_rank_columns_ties_signed_zeros_with_the_padding():
    X = np.array([[2.5, -1.0], [-0.0, 3.0], [0.0, 3.0], [-7.0, -1.0]])
    ranks = rank_columns(X)
    assert ranks.dtype == np.uint16
    # column 0: -7 < ±0 (the padding's rank too) < 2.5; column 1: -1 < 0.0 < 3
    assert ranks.tolist() == [[2, 1, 1, 0, 1], [0, 2, 2, 0, 1]]


@pytest.mark.parametrize("distinct, dtype", [(65_535, np.uint16), (65_536, np.uint32)])
def test_rank_dtype_widens_past_65535(distinct, dtype):
    ranks = rank_columns(np.arange(1.0, distinct + 1)[:, None])
    assert ranks.dtype == dtype
    assert ranks[0, -1] == 0  # 0.0 ranks below every value
    assert (ranks[0, :-1] == np.arange(1, distinct + 1)).all()


def test_split_over_a_70000_value_column_matches_reference():
    rng = np.random.default_rng(4)
    X = np.column_stack(
        [rng.permutation(70_000) - 34_999.5, rng.integers(-2, 3, 70_000).astype(np.float64)]
    )
    y = X[:, 0] + rng.normal(0, 20_000, 70_000) > 1_000
    assert rank_columns(X).dtype == np.uint32
    idx = np.sort(rng.choice(70_000, size=50_000, replace=False))
    for seed in range(3):
        assert assert_same_split(X, y, idx, seed, 1, 5) is not None


def test_signed_zero_ties_with_repeated_draws():
    # the cut below the subnormal 5e-324 reads lo from a -0.0 or a 0.0 row;
    # either way the threshold is the reference's +0.0
    X = np.array([[-0.0], [0.0], [-0.0], [5e-324], [1.0], [0.0]])
    y = np.array([False, False, False, True, True, False])
    draws = np.array([3, 2, 1, 2, 1, 4])
    for min_leaf in (1, 3):
        split = assert_same_weighted_split(X, y, draws, np.arange(6), 0, 1, min_leaf)
        assert split == (0, 0.0)
        assert np.float64(split[1]).tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("shift", ["zeros", "no-zeros"])
def test_capture_ranks_serve_every_window(window, shift):
    # trees grown on the capture's rank table, padded for the window, equal
    # trees grown on the built window matrix ranked as a capture of its own
    rng = np.random.default_rng(9)
    X = tied_matrix(rng, 120, 4)
    if shift == "no-zeros":
        X[:, 0] += 10.0  # every value above the padding
        X[:, 2] = np.where(X[:, 2] < 0, X[:, 2] - 0.5, X[:, 2] + 0.5)  # around it, never on it
        X[X[:, 3] == 0, 3] = 0.05
        assert not (X == 0).any()
    rows = rng.permutation(120)[:90]
    y = rng.random(90) < 0.4
    windows = transform(None, X, window)
    hyper = {"n_trees": 3, "max_depth": None, "min_leaf": 1}
    expected = train_on(hyper, np.arange(len(rows)), y, 6, windows[rows])
    got = train_random_forest(hyper, rows, y, 6, windows, rank_columns(X))
    assert sum(len(tree.feature) for tree in got) > 9
    if window > 1:
        assert any((tree.feature >= X.shape[1]).any() for tree in got)  # an older row's column
    for a, b in zip(got, expected, strict=True):
        for name in ("feature", "threshold", "left", "right", "fraction"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
