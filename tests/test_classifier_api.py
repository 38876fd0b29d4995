"""Shared train/predict surface: dispatch, determinism, tie rule, row selection."""

from __future__ import annotations

import numpy as np
import pytest

import iidsbench
import iidsbench.classifiers
from iidsbench.classifiers import (
    DEFAULT_HYPERPARAMETERS,
    ClassifierSpec,
    labels_from_scores,
    predict_dataset,
    train,
)
from iidsbench.dataset import generate_synthetic
from iidsbench.errors import ConfigError, TrainError
from iidsbench.splitting import ScenarioSpec, materialize_split, partition_folds

from conftest import separable_config, tiny_dataset

KINDS = ("random_forest", "linear_svm", "mlp")

FAST_HP = {
    "random_forest": {"n_trees": 15},
    "linear_svm": {},
    "mlp": {"hidden": (16,), "epochs": 40, "learning_rate": 0.1},
}


def baseline_split(d, k=4, fold=0):
    plan = partition_folds(d, k, "stratified", 0)
    return materialize_split(d, plan, fold, ScenarioSpec("baseline", "attack"))


@pytest.mark.parametrize("module", [iidsbench, iidsbench.classifiers], ids=lambda m: m.__name__)
def test_public_exports_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ClassifierSpec("nonsense")
    with pytest.raises(ConfigError):
        ClassifierSpec("random_forest", {"n_trees": 0})
    with pytest.raises(ConfigError):
        ClassifierSpec("linear_svm", {"lambda": -1.0})
    with pytest.raises(ConfigError):
        ClassifierSpec("mlp", {"hidden": (0,)})
    with pytest.raises(ConfigError):
        ClassifierSpec("random_forest", {"bogus": 1})
    spec = ClassifierSpec("mlp", {"hidden": [8, 4]})
    assert spec.hyperparameters["hidden"] == (8, 4)
    assert spec.name == "mlp"


def _bad_hyperparameter_values(default) -> list:
    """A bool, a float given for an integer, and a value below the minimum."""
    if isinstance(default, tuple):  # a list of positive integers
        return [True, [True], [2.0], [0], "64"]
    if isinstance(default, float):  # a positive real
        return [True, 0.0, -1, float("nan"), float("inf")]
    return [True, float(default), 0]


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind in KINDS for key in DEFAULT_HYPERPARAMETERS[kind]]
)
def test_every_hyperparameter_checked(kind, key):
    for bad in _bad_hyperparameter_values(DEFAULT_HYPERPARAMETERS[kind][key]):
        with pytest.raises(ConfigError, match=f"hyperparameter {key} "):
            ClassifierSpec(kind, {key: bad})


def test_hyperparameters_pass_through_as_given():
    svm = ClassifierSpec("linear_svm", {"lambda": 1})
    assert type(svm.hyperparameters["lambda"]) is int
    assert ClassifierSpec("random_forest", {"max_depth": None}).hyperparameters["max_depth"] is None
    assert ClassifierSpec("mlp", {"hidden": []}).hyperparameters["hidden"] == ()


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_classifier_seed_checked(seed):
    with pytest.raises(ConfigError, match="classifier seed"):
        ClassifierSpec("random_forest", seed=seed)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escaped", "a\\b", 5, True])
def test_classifier_name_is_one_path_component(name):
    with pytest.raises(ConfigError, match="classifier name"):
        ClassifierSpec("random_forest", name=name)


def test_default_hyperparameters_applied():
    spec = ClassifierSpec("random_forest")
    assert spec.hyperparameters["n_trees"] == 100
    assert spec.hyperparameters["max_depth"] == 20
    assert spec.hyperparameters["min_leaf"] == 2
    svm = ClassifierSpec("linear_svm")
    assert svm.hyperparameters["lambda"] == 1e-4
    assert svm.hyperparameters["epochs"] == 10
    mlp = ClassifierSpec("mlp")
    assert mlp.hyperparameters["hidden"] == (64, 32)
    assert mlp.hyperparameters["window"] == 5


@pytest.mark.parametrize("kind", KINDS)
def test_train_deterministic(kind, separable_dataset):
    split = baseline_split(separable_dataset)
    spec = ClassifierSpec(kind, FAST_HP[kind], seed=3)
    m1 = train(spec, split, separable_dataset)
    m2 = train(spec, split, separable_dataset)
    f1, s1 = predict_dataset(m1, separable_dataset, split.test_indices)
    f2, s2 = predict_dataset(m2, separable_dataset, split.test_indices)
    assert (f1 == f2).all()
    assert (s1 == s2).all()


@pytest.mark.parametrize("kind", KINDS)
def test_separable_accuracy(kind, separable_dataset):
    split = baseline_split(separable_dataset)
    spec = ClassifierSpec(kind, FAST_HP[kind], seed=1)
    model = train(spec, split, separable_dataset)
    flags, _ = predict_dataset(model, separable_dataset, split.train_indices)
    truth = separable_dataset.binary_labels()[split.train_indices]
    assert (flags == truth).mean() >= 0.99


def test_degenerate_labels():
    d = tiny_dataset([0, 0, 0, 0, 1, 1])
    split = baseline_split(d, k=2)
    # omit the only attack type: train set becomes single-class
    plan = partition_folds(d, 2, "contiguous", 0)
    omitted = materialize_split(d, plan, 0, ScenarioSpec("omit", "attack", 1))
    with pytest.raises(TrainError, match="degenerate training labels"):
        train(ClassifierSpec("random_forest"), omitted, d)


def test_tie_scores_label_malicious():
    scores = np.array([0.0, 0.49999, 0.5, 0.50001, 1.0])
    assert labels_from_scores(scores).tolist() == [False, False, True, True, True]


@pytest.mark.parametrize("kind", KINDS)
def test_predict_arity_mismatch(kind, separable_dataset):
    split = baseline_split(separable_dataset)
    model = train(ClassifierSpec(kind, FAST_HP[kind]), split, separable_dataset)
    with pytest.raises(ValueError):
        predict_dataset(model, tiny_dataset([0, 1]), [0, 1])  # 2 features, the model wants 4


def test_predict_on_records(separable_dataset):
    split = baseline_split(separable_dataset)
    model = train(ClassifierSpec("linear_svm"), split, separable_dataset)
    flags, scores = predict_dataset(model, separable_dataset, split.test_indices[:5])
    assert len(flags) == len(scores) == 5
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    assert (flags == (scores >= 0.5)).all()


def test_windowed_model_uses_capture_order():
    cfg = separable_config(benign=200, per_attack=40, dim=3, seed=21)
    d = generate_synthetic(cfg)
    split = baseline_split(d)
    spec = ClassifierSpec("mlp", {"hidden": (8,), "epochs": 5, "window": 3})
    model = train(spec, split, d)
    assert model.preprocessor.window == 3
    flags, scores = predict_dataset(model, d, split.test_indices)
    assert len(flags) == len(split.test_indices)


@pytest.mark.parametrize("kind", KINDS)
def test_predict_dataset_indices_match_full_scores(kind, separable_dataset):
    d = separable_dataset
    split = baseline_split(d)
    spec = ClassifierSpec(kind, {**FAST_HP[kind], "window": 3}, seed=4)
    model = train(spec, split, d)
    all_flags, all_scores = predict_dataset(model, d, np.arange(len(d)))
    assert len(all_scores) == len(d)
    # unsorted, repeated, and the first rows, whose windows reach before row 0
    idx = np.concatenate([[len(d) - 1, 0, 1, 1], split.test_indices[::-1]])
    flags, scores = predict_dataset(model, d, idx)
    assert (flags == all_flags[idx]).all()
    if kind == "random_forest":
        assert (scores == all_scores[idx]).all()
    else:
        # numpy hands a product with one row or one output column to OpenBLAS's
        # matrix-vector routine, which computes the rows left over after its
        # blocks of four with another kernel. So a score can move in its last
        # bits with the number of rows scored beside it, on equal input rows.
        np.testing.assert_allclose(scores, all_scores[idx], rtol=1e-12, atol=0)


def test_fresh_attack_instances_detected():
    cfg = separable_config(benign=300, per_attack=60, attack_ids=(1,), dim=3, seed=5)
    d = generate_synthetic(cfg)
    split = baseline_split(d)
    model = train(ClassifierSpec("random_forest", {"n_trees": 25}), split, d)
    # fresh draws from the same generating family, new seed
    probe_cfg = separable_config(benign=1, per_attack=50, attack_ids=(1,), dim=3, seed=99)
    probe = generate_synthetic(probe_cfg)
    flags, _ = predict_dataset(model, probe, np.flatnonzero(probe.binary_labels()))
    assert flags.mean() >= 0.9
