"""Shared train/predict surface: dispatch, determinism, tie rule, the
sigmoid, row selection."""

from __future__ import annotations

from dataclasses import replace

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
from iidsbench.classifiers.base import sigmoid
from iidsbench.dataset import Dataset, generate_synthetic
from iidsbench.errors import ConfigError, TrainError
from iidsbench.runner import ExperimentConfig, run
from iidsbench.splitting import ScenarioSpec, SplitInstance, materialize_split, partition_folds

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


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The two-branch formula: 1 / (1 + exp(-z)) where z >= 0, and
    exp(z) / (1 + exp(z)) elsewhere, so that exp never overflows."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_two_branch_reference():
    special = [0.0, 1e-300, 37.0, 709.0, 745.0, np.inf]
    z = np.array(special + [-v for v in special])
    normals = np.random.default_rng(29).standard_normal(10_000)
    for values in (z, normals, 30.0 * normals, (30.0 * normals).reshape(-1, 1)):
        out = sigmoid(values)
        assert out.shape == values.shape
        assert out.tobytes() == reference_sigmoid(values).tobytes()
    assert sigmoid(z[[0, 6, 5, 11]]).tolist() == [0.5, 0.5, 1.0, 0.0]  # +-0.0, +-inf


@pytest.mark.parametrize("kind", KINDS)
def test_predict_arity_mismatch(kind, separable_dataset):
    split = baseline_split(separable_dataset)
    model = train(ClassifierSpec(kind, FAST_HP[kind]), split, separable_dataset)
    # another capture, here of 2 features where the model trained on 4
    with pytest.raises(ValueError, match="dataset it trained on"):
        predict_dataset(model, tiny_dataset([0, 1]), [0, 1])


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
    assert model.trained_view[1].shape == (len(d), 3 * 3)  # three numeric features, three rows
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
    assert (scores == all_scores[idx]).all()


def overlapping_dataset():
    """More than two score blocks of rows whose classes overlap, so that
    scores stay off 0 and 1, where rounding differences would still show."""
    cfg = separable_config(benign=2400, per_attack=200, offset=1.5, dim=6, seed=8)
    return generate_synthetic(cfg)


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("kind", ["linear_svm", "mlp"])
def test_scores_do_not_depend_on_rows_beside_them(kind, window):
    d = overlapping_dataset()
    B = iidsbench.classifiers.BLOCK_ROWS
    assert len(d) > 2 * B + 100
    model = train(ClassifierSpec(kind, {**FAST_HP[kind], "window": window}, seed=2), baseline_split(d), d)
    _, full = predict_dataset(model, d, np.arange(len(d)))
    assert np.unique(full).size == len(d)  # none saturated at 0 or 1
    rng = np.random.default_rng(17)
    sizes = [1, 2, B - 1, B, B + 1, 2 * B + 100]
    for trial in range(240):
        size = sizes[trial] if trial < len(sizes) else int(rng.integers(1, 2 * B + 100))
        idx = rng.choice(len(d), size, replace=False)
        _, scores = predict_dataset(model, d, idx)
        assert scores.tobytes() == full[idx].tobytes(), f"subset {trial} of {size} rows"


def test_block_size_changes_no_score(tmp_path, monkeypatch):
    d = overlapping_dataset()
    split = baseline_split(d)
    hp = {**FAST_HP, "random_forest": {"n_trees": 4}}
    models = [
        train(ClassifierSpec(kind, {**hp[kind], "window": window}, seed=5), split, d)
        for kind in KINDS
        for window in (1, 4)
    ]
    wanted = [predict_dataset(m, d, split.test_indices)[1] for m in models]
    cfg = ExperimentConfig(
        classifiers=tuple(ClassifierSpec(kind, hp[kind], name=kind) for kind in KINDS),
        synthetic=separable_config(benign=400, per_attack=60, attack_ids=(1, 2, 3), offset=2.0),
        k=2,
        modes=("baseline", "omit"),
    )
    run(replace(cfg, output_dir=str(tmp_path / "a")))
    # not a multiple of four, the rows BLAS's matrix-vector kernel takes at once
    monkeypatch.setattr(iidsbench.classifiers, "BLOCK_ROWS", 13)
    for model, scores in zip(models, wanted):
        assert predict_dataset(model, d, split.test_indices)[1].tobytes() == scores.tobytes()
    run(replace(cfg, output_dir=str(tmp_path / "b")))
    texts = [(tmp_path / out / "run.json").read_text() for out in "ab"]
    a, b = (text[: text.index('\n  "timing": ')] for text in texts)
    assert a == b


def test_fresh_attack_instances_detected():
    cfg = separable_config(benign=300, per_attack=60, attack_ids=(1,), dim=3, seed=5)
    d = generate_synthetic(cfg)
    split = baseline_split(d)
    model = train(ClassifierSpec("random_forest", {"n_trees": 25}), split, d)
    # the held-out fold's attack records, which no tree saw
    test = np.asarray(split.test_indices)
    fresh = test[d.binary_labels()[test]]
    assert len(fresh) >= 10 and not np.isin(fresh, split.train_indices).any()
    flags, _ = predict_dataset(model, d, fresh)
    assert flags.mean() >= 0.9


def baseline_of(train_rows, test_rows) -> SplitInstance:
    return SplitInstance(ScenarioSpec("baseline", "attack"), 0, train_rows, test_rows)


def test_forest_threshold_in_data_units():
    # Train values 0 (benign) and 2 (malicious) cut at their midpoint, 1.0
    # exactly, and a record holding 1.0 goes left. Standardized by these
    # train rows' mean and std, 1.0 lands above the cut and went right.
    d = tiny_dataset([0] * 4 + [1] * 5 + [0], [[0.0]] * 4 + [[2.0]] * 5 + [[1.0]])
    split = baseline_of(np.arange(9), np.array([9]))
    spec = ClassifierSpec("random_forest", {"n_trees": 1, "max_depth": 1, "min_leaf": 1})
    model = train(spec, split, d)
    tree = model.params[0]
    assert (tree.feature[0], tree.threshold[0]) == (0, 1.0)
    _, scores = predict_dataset(model, d, split.test_indices)
    assert scores.tolist() == [tree.fraction[tree.left[0]]] == [0.0]


def test_windowed_forest_trains_on_raw_rows(monkeypatch):
    d = tiny_dataset([0, 1] * 6, [[i + 1.0, 10.0 * (i + 1)] for i in range(12)])
    split = baseline_of(np.array([0, 1, 4, 7]), np.arange(12))
    seen = []
    forest = iidsbench.classifiers.train_random_forest

    def recording(hp, rows, y, seed, windows, ranks):
        seen.append(windows[rows])
        return forest(hp, rows, y, seed, windows, ranks)

    monkeypatch.setattr(iidsbench.classifiers, "train_random_forest", recording)
    train(ClassifierSpec("random_forest", {"n_trees": 1, "window": 3}), split, d)
    padded = np.vstack([np.zeros((2, 2)), d.feature_matrix()])
    expected = np.array([padded[i : i + 3].reshape(-1) for i in split.train_indices])
    assert seen[0].tobytes() == expected.tobytes()


def _refuse_encoding(*args, **kwargs):
    raise AssertionError("a forest cell must not encode its features")


def test_forest_cells_fit_and_encode_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(iidsbench.classifiers, "fit_preprocessor", _refuse_encoding)
    monkeypatch.setattr(iidsbench.classifiers.base, "_encode", _refuse_encoding)
    cfg = ExperimentConfig(
        classifiers=tuple(
            ClassifierSpec("random_forest", {"n_trees": 2, "window": w}, name=f"forest{w}")
            for w in (1, 3)
        ),
        synthetic=separable_config(benign=200, per_attack=40, dim=3),
        k=2,
        modes=("baseline", "omit"),
        output_dir=str(tmp_path / "out"),
    )
    assert run(cfg).timing["computed_cells"] == 12


@pytest.mark.parametrize("window", [1, 3])
@pytest.mark.parametrize("kind", ["mlp", "linear_svm"])
def test_mlp_cell_encodes_the_capture_once(kind, window, monkeypatch):
    d = overlapping_dataset()
    split = baseline_split(d)
    calls = []
    encode = iidsbench.classifiers.base._encode

    def counting(*args):
        calls.append(args)
        encode(*args)

    monkeypatch.setattr(iidsbench.classifiers.base, "_encode", counting)
    spec = ClassifierSpec(kind, {**FAST_HP[kind], "epochs": 2, "window": window}, seed=6)
    model = train(spec, split, d)
    predict_dataset(model, d, split.test_indices)
    assert len(calls) == 1
    # a model scores only the capture it trained on, even one of equal values
    copy = Dataset(d.schema, d.feature_matrix().copy(), d.labels(), d.taxonomy)
    with pytest.raises(ValueError, match="dataset it trained on"):
        predict_dataset(model, copy, split.test_indices)
    assert len(calls) == 1
