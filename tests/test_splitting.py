"""Fold plans, scenario enumeration, split materialization, split checking."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from iidsbench.dataset import builtin_taxonomy
from iidsbench.errors import SplitError
from iidsbench.splitting import (
    ScenarioSpec,
    SplitInstance,
    enumerate_scenarios,
    materialize_split,
    partition_folds,
)

from conftest import check_split, flat_taxonomy, tiny_dataset


# -- ScenarioSpec -----------------------------------------------------------


def test_scenario_validation():
    ScenarioSpec("baseline", "attack")
    ScenarioSpec("omit", "category", 3)
    with pytest.raises(SplitError):
        ScenarioSpec("baseline", "attack", 1)  # baseline takes no target
    with pytest.raises(SplitError):
        ScenarioSpec("omit", "attack")  # omit needs one
    with pytest.raises(SplitError):
        ScenarioSpec("nope", "attack", 1)
    with pytest.raises(SplitError):
        ScenarioSpec("omit", "nope", 1)


def test_scenario_key_and_round_trip():
    a = ScenarioSpec("baseline", "attack")
    b = ScenarioSpec("omit", "attack", 3)
    assert a.key() == "baseline-attack"
    assert b.key() == "omit-attack-3"
    assert ScenarioSpec(**json.loads(json.dumps(asdict(b)))) == b
    assert ScenarioSpec(**json.loads(json.dumps(asdict(a)))) == a


# -- partition_folds --------------------------------------------------------


def test_contiguous_ten_records_k5():
    d = tiny_dataset([0] * 9 + [1])
    plan = partition_folds(d, 5, "contiguous", 0)
    assert list(plan.assignment) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_stratified_five_five_k5():
    d = tiny_dataset([0] * 5 + [1] * 5)
    plan = partition_folds(d, 5, "stratified", 123)
    labels = d.labels()
    for fold in range(5):
        members = labels[plan.assignment == fold]
        assert sorted(members.tolist()) == [0, 1]


def test_contiguous_seven_records_k3():
    d = tiny_dataset([0] * 6 + [1])
    plan = partition_folds(d, 3, "contiguous", 0)
    sizes = sorted(np.bincount(plan.assignment, minlength=3).tolist(), reverse=True)
    assert sizes == [3, 2, 2]
    assert list(plan.assignment) == [(i * 3) // 7 for i in range(7)]


def test_partition_errors():
    d = tiny_dataset([0, 0, 1])
    with pytest.raises(SplitError):
        partition_folds(d, 1, "contiguous", 0)
    with pytest.raises(SplitError):
        partition_folds(d, 4, "contiguous", 0)
    with pytest.raises(SplitError):
        partition_folds(d, 2, "bogus", 0)


def test_stratified_balance_properties():
    labels = [0] * 31 + [1] * 9 + [2] * 4 + [3] * 2
    d = tiny_dataset(labels)
    for seed in range(5):
        for k in (2, 3, 5):
            plan = partition_folds(d, k, "stratified", seed)
            sizes = np.bincount(plan.assignment, minlength=k)
            assert sizes.max() - sizes.min() <= 1
            arr = np.array(labels)
            for t in (0, 1, 2, 3):
                counts = np.bincount(plan.assignment[arr == t], minlength=k)
                assert counts.max() - counts.min() <= 1


def test_partition_deterministic():
    d = tiny_dataset([0] * 20 + [1] * 10 + [2] * 6)
    a = partition_folds(d, 4, "stratified", 99)
    b = partition_folds(d, 4, "stratified", 99)
    assert (a.assignment == b.assignment).all()
    c = partition_folds(d, 4, "stratified", 100)
    assert (a.assignment != c.assignment).any()


# -- enumerate_scenarios ----------------------------------------------------


def test_enumerate_category_omit():
    specs = enumerate_scenarios(builtin_taxonomy(), "category", {"omit"})
    assert len(specs) == 7
    assert [s.target for s in specs] == [1, 2, 3, 4, 5, 6, 7]
    assert all(s.mode == "omit" for s in specs)


def test_enumerate_attack_full():
    specs = enumerate_scenarios(builtin_taxonomy(), "attack", {"baseline", "omit", "only"})
    assert len(specs) == 71
    assert specs[0].mode == "baseline"
    assert [s.target for s in specs[1:36]] == list(range(1, 36))
    assert [s.target for s in specs[36:]] == list(range(1, 36))


def test_enumerate_baseline_only():
    specs = enumerate_scenarios(builtin_taxonomy(), "attack", {"baseline"})
    assert len(specs) == 1
    assert specs[0] == ScenarioSpec("baseline", "attack")


def test_enumerate_unknown_mode():
    with pytest.raises(SplitError):
        enumerate_scenarios(builtin_taxonomy(), "attack", {"bogus"})


# -- materialize_split ------------------------------------------------------

# 8 records: b0 b1 a0 a1 c0 c1 b2 b3 (A = attack 1, C = attack 2)
EIGHT_LABELS = [0, 0, 1, 1, 2, 2, 0, 0]


def eight_record_dataset():
    return tiny_dataset(EIGHT_LABELS)


def test_baseline_sizes():
    d = tiny_dataset([0] * 95 + [1] * 5)
    plan = partition_folds(d, 5, "contiguous", 0)
    split = materialize_split(d, plan, 0, ScenarioSpec("baseline", "attack"))
    assert len(split.test_indices) == 20
    assert len(split.train_indices) == 80


def test_omit_hand_enumerated():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    # contiguous: records 0..3 -> fold 0, records 4..7 -> fold 1
    split = materialize_split(d, plan, 0, ScenarioSpec("omit", "attack", 1))
    test = set(split.test_indices.tolist())
    train = set(split.train_indices.tolist())
    assert test == {0, 1, 2, 3}  # fold-0 records; a0,a1 already there
    assert train == {4, 5, 6, 7}
    # fold 1: attacks 2,3 move from train to test
    split = materialize_split(d, plan, 1, ScenarioSpec("omit", "attack", 1))
    assert set(split.test_indices.tolist()) == {2, 3, 4, 5, 6, 7}
    assert set(split.train_indices.tolist()) == {0, 1}


def test_only_hand_enumerated():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 0, ScenarioSpec("only", "attack", 1))
    test = set(split.test_indices.tolist())
    train = set(split.train_indices.tolist())
    assert {4, 5} <= test and not ({4, 5} & train)  # c0,c1 forced out
    malicious_train = {i for i in train if EIGHT_LABELS[i] != 0}
    assert malicious_train <= {2, 3}
    # benign membership identical to baseline
    base = materialize_split(d, plan, 0, ScenarioSpec("baseline", "attack"))
    benign = [i for i in range(8) if EIGHT_LABELS[i] == 0]
    for i in benign:
        assert (i in test) == (i in set(base.test_indices.tolist()))


def test_omit_category_level():
    tax = flat_taxonomy([1, 2])
    d = tiny_dataset(EIGHT_LABELS, taxonomy=tax)
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 1, ScenarioSpec("omit", "category", 2))
    assert {4, 5} <= set(split.test_indices.tolist())
    assert not ({4, 5} & set(split.train_indices.tolist()))


def test_empty_target_unit():
    d = tiny_dataset([0, 0, 1, 1], taxonomy=flat_taxonomy([1, 2]))
    plan = partition_folds(d, 2, "contiguous", 0)
    with pytest.raises(SplitError, match="empty target unit"):
        materialize_split(d, plan, 0, ScenarioSpec("omit", "attack", 2))


def test_materialize_deterministic():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "stratified", 7)
    s1 = materialize_split(d, plan, 0, ScenarioSpec("only", "attack", 2))
    s2 = materialize_split(d, plan, 0, ScenarioSpec("only", "attack", 2))
    assert (s1.train_indices == s2.train_indices).all()
    assert (s1.test_indices == s2.test_indices).all()


def test_baseline_folds_partition_dataset():
    d = tiny_dataset([0] * 12 + [1] * 5 + [2] * 3)
    plan = partition_folds(d, 4, "stratified", 3)
    seen: list[int] = []
    for fold in range(4):
        split = materialize_split(d, plan, fold, ScenarioSpec("baseline", "attack"))
        seen.extend(split.test_indices.tolist())
    assert sorted(seen) == list(range(20))


def test_split_export_shape():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 0, ScenarioSpec("omit", "attack", 1))
    assert split.scenario == ScenarioSpec("omit", "attack", 1)
    assert split.fold == 0
    for indices in (split.train_indices, split.test_indices):
        assert indices.tolist() == sorted(indices.tolist())


# -- check_split ------------------------------------------------------------


def test_check_split_accepts_materialized():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "stratified", 5)
    for spec in enumerate_scenarios(d.taxonomy, "attack", {"baseline", "omit", "only"}):
        for fold in range(2):
            split = materialize_split(d, plan, fold, spec)
            assert check_split(d, split, plan) == []


def test_check_split_flags_omit_leak():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 0, ScenarioSpec("omit", "attack", 1))
    # push target record 2 back into train
    bad = SplitInstance(
        scenario=split.scenario,
        fold=split.fold,
        train_indices=np.sort(np.append(split.train_indices, 2)),
        test_indices=np.array([i for i in split.test_indices if i != 2]),
    )
    findings = check_split(d, bad, plan)
    assert len(findings) == 1
    assert findings[0].record_index == 2
    assert "train" in findings[0].message


def test_check_split_flags_overlap():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 0, ScenarioSpec("baseline", "attack"))
    bad = SplitInstance(
        scenario=split.scenario,
        fold=split.fold,
        train_indices=np.sort(np.append(split.train_indices, split.test_indices[0])),
        test_indices=split.test_indices,
    )
    findings = check_split(d, bad, plan)
    assert len(findings) == 1
    assert "both train and test" in findings[0].message


def test_check_split_flags_only_stray():
    d = eight_record_dataset()
    plan = partition_folds(d, 2, "contiguous", 0)
    split = materialize_split(d, plan, 1, ScenarioSpec("only", "attack", 1))
    # drag non-target attack record 4 into train
    bad = SplitInstance(
        scenario=split.scenario,
        fold=split.fold,
        train_indices=np.sort(np.append(split.train_indices, 4)),
        test_indices=np.array([i for i in split.test_indices if i != 4]),
    )
    findings = check_split(d, bad, plan)
    assert any(f.record_index == 4 for f in findings)
