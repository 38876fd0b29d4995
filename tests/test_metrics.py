"""Confusion counting, derived metrics, per-group recall, fold averaging."""

from __future__ import annotations

import pytest

from iidsbench.metrics import (
    ConfusionCounts,
    GroupRecallRow,
    aggregate_folds,
    confusion,
    f1,
    per_group_recall,
    precision,
    recall,
)
from iidsbench.splitting import ScenarioSpec

from conftest import flat_taxonomy, tiny_dataset


def test_confusion_enumerated():
    c = confusion([True, True, False, False], [True, False, False, True])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)


def test_confusion_all_correct():
    c = confusion([True] * 3 + [False] * 2, [True] * 3 + [False] * 2)
    assert (c.tp, c.fp, c.tn, c.fn) == (3, 0, 2, 0)


def test_confusion_errors():
    with pytest.raises(ValueError):
        confusion([True], [True, False])
    with pytest.raises(ValueError):
        confusion([], [])


def test_confusion_matches_brute_force(rng):
    for _ in range(10):
        pred = rng.integers(0, 2, 30).astype(bool)
        truth = rng.integers(0, 2, 30).astype(bool)
        c = confusion(pred, truth)
        tally = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        for p, t in zip(pred, truth):
            if p and t:
                tally["tp"] += 1
            elif p and not t:
                tally["fp"] += 1
            elif not p and not t:
                tally["tn"] += 1
            else:
                tally["fn"] += 1
        assert (c.tp, c.fp, c.tn, c.fn) == (
            tally["tp"],
            tally["fp"],
            tally["tn"],
            tally["fn"],
        )


def test_precision_recall_f1_formulas():
    assert precision(ConfusionCounts(9, 1, 0, 0)) == 0.9
    assert f1(1.0, 1.0) == 1.0
    assert f1(0.5, 1.0) == 2 / 3
    assert precision(ConfusionCounts(0, 0, 5, 5)) is None
    assert recall(ConfusionCounts(0, 3, 5, 0)) is None
    assert f1(None, 1.0) is None
    assert f1(1.0, None) is None
    assert f1(0.0, 0.0) is None  # p+r = 0


def test_permutation_invariance(rng):
    pred = rng.integers(0, 2, 40).astype(bool)
    truth = rng.integers(0, 2, 40).astype(bool)
    c1 = confusion(pred, truth)
    order = rng.permutation(40)
    c2 = confusion(pred[order], truth[order])
    assert (c1.tp, c1.fp, c1.tn, c1.fn) == (c2.tp, c2.fp, c2.tn, c2.fn)


# -- per_group_recall --------------------------------------------------------


def test_per_group_recall_example():
    d = tiny_dataset([3, 3, 3, 3], taxonomy=flat_taxonomy([3]))
    row = per_group_recall([True, True, True, False], d.labels(), d.taxonomy, "attack")
    assert row["values"][3] == 0.75
    assert row["values"][0] is None  # no benign records in test


def test_per_group_recall_absent_group_undefined():
    tax = flat_taxonomy([1, 5])
    d = tiny_dataset([0, 0, 1, 1], taxonomy=tax)
    row = per_group_recall([False, True, True, True], d.labels(), tax, "attack")
    assert row["values"][5] is None
    assert row["values"][1] == 1.0
    assert row["values"][0] == 0.5  # benign: 1 of 2 kept benign


def test_per_group_recall_benign_column():
    tax = flat_taxonomy([1])
    d = tiny_dataset([0, 0, 0, 1], taxonomy=tax)
    # 2 of 3 benign records correctly left benign
    row = per_group_recall([False, True, False, True], d.labels(), tax, "attack")
    assert row["values"][0] == 2 / 3
    assert row["precision"] == 0.5
    assert row["recall"] == 1.0


def test_per_group_recall_category_level():
    tax = flat_taxonomy([1, 2])
    d = tiny_dataset([0, 1, 2, 2], taxonomy=tax)
    row = per_group_recall([False, True, False, True], d.labels(), tax, "category")
    assert row["values"][1] == 1.0
    assert row["values"][2] == 0.5


def test_per_group_recall_matches_brute_force(rng):
    tax = flat_taxonomy([1, 2, 3])
    labels = rng.choice([0, 1, 2, 3], 50).tolist()
    labels[0], labels[1] = 0, 1  # both classes present
    d = tiny_dataset(labels, taxonomy=tax)
    pred = rng.integers(0, 2, 50).astype(bool).tolist()
    row = per_group_recall(pred, d.labels(), tax, "attack")
    for g in (1, 2, 3):
        members = [i for i, t in enumerate(labels) if t == g]
        if not members:
            assert row["values"][g] is None
        else:
            hits = sum(pred[i] for i in members)
            assert row["values"][g] == hits / len(members)
    benign = [i for i, t in enumerate(labels) if t == 0]
    kept = sum(not pred[i] for i in benign)
    assert row["values"][0] == kept / len(benign)


def test_overall_recall_is_weighted_group_mean(rng):
    tax = flat_taxonomy([1, 2])
    labels = ([0] * 10 + [1] * 7 + [2] * 13)
    d = tiny_dataset(labels, taxonomy=tax)
    pred = rng.integers(0, 2, len(labels)).astype(bool).tolist()
    row = per_group_recall(pred, d.labels(), tax, "attack")
    weighted = (7 * row["values"][1] + 13 * row["values"][2]) / 20
    assert row["recall"] == pytest.approx(weighted, abs=1e-12)


def test_perfect_predictor():
    tax = flat_taxonomy([1, 2])
    labels = [0, 0, 1, 2, 2]
    d = tiny_dataset(labels, taxonomy=tax)
    pred = [t != 0 for t in labels]
    row = per_group_recall(pred, d.labels(), tax, "attack")
    assert row["values"] == {0: 1.0, 1: 1.0, 2: 1.0}
    assert row["precision"] == 1.0 and row["recall"] == 1.0 and row["f1"] == 1.0


# -- aggregate_folds ---------------------------------------------------------


def row_with(values, scenario, fold, precision_=1.0):
    return GroupRecallRow(
        classifier="forest",
        scenario=scenario,
        fold=fold,
        values=values,
        precision=precision_,
        recall=1.0,
        f1=1.0,
    )


SC = ScenarioSpec("omit", "attack", 1)


def test_aggregate_example_values():
    folds = [0.9, 1.0, 0.8, 1.0, 0.9]
    rows = [row_with({0: 1.0, 1: v}, SC, i) for i, v in enumerate(folds)]
    agg = aggregate_folds(rows)
    assert agg.values[1] == sum(folds) / 5
    assert agg.values[1] == pytest.approx(0.92, abs=1e-12)
    assert agg.defined_folds[1] == 5
    assert agg.n_folds == 5


def test_aggregate_skips_undefined():
    rows = [
        row_with({1: 0.5}, SC, 0),
        row_with({1: None}, SC, 1),
        row_with({1: 1.0}, SC, 2),
    ]
    agg = aggregate_folds(rows)
    assert agg.values[1] == 0.75
    assert agg.defined_folds[1] == 2


def test_aggregate_all_undefined_stays_undefined():
    rows = [row_with({1: None}, SC, i) for i in range(3)]
    agg = aggregate_folds(rows)
    assert agg.values[1] is None
    assert agg.defined_folds[1] == 0


def test_aggregate_precision_mean():
    rows = [
        row_with({1: 1.0}, SC, 0, precision_=0.8),
        row_with({1: 1.0}, SC, 1, precision_=None),
        row_with({1: 1.0}, SC, 2, precision_=0.6),
    ]
    agg = aggregate_folds(rows)
    assert agg.precision == pytest.approx(0.7, abs=1e-12)
    assert agg.precision_folds == 2


def test_aggregate_random_oracle(rng):
    for _ in range(5):
        values = rng.uniform(0, 1, 5).tolist()
        rows = [row_with({1: v, 2: None}, SC, i) for i, v in enumerate(values)]
        agg = aggregate_folds(rows)
        assert agg.values[1] == sum(values) / len(values)
        assert agg.values[2] is None


def test_aggregate_mixed_scenarios_rejected():
    other = ScenarioSpec("omit", "attack", 2)
    rows = [row_with({1: 1.0}, SC, 0), row_with({1: 1.0}, other, 1)]
    with pytest.raises(ValueError):
        aggregate_folds(rows)
    with pytest.raises(ValueError):
        aggregate_folds([])
