"""Golden digests: run.json (timing aside) of five fixed experiments.

Each test pins the sha256 of the canonical JSON of a finished run, so any
change to parsing, splitting, preprocessing, training or scoring that moves
a single number fails here, and such a change bumps RESULTS_VERSION, which
is pinned here with them. The windowed mlp digest reads the same with
numpy's default OpenBLAS thread pool and with one BLAS thread; a BLAS build
that sums matrix products in another order may move its last bits.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from iidsbench.classifiers import ClassifierSpec
from iidsbench.dataset import (
    _GAS_PIPELINE_COLUMNS,
    SCHEMA_GAS_PIPELINE,
    AttackSpec,
    SyntheticConfig,
    builtin_taxonomy,
)
from iidsbench.runner import RESULTS_VERSION, ExperimentConfig, artifact_to_dict, run

SYNTHETIC_DIGEST = "d74d7253f045b2ce6756f554226f6160fb494cae51b667d4b67798db9a0c84d6"
GAS_CSV_DIGEST = "6158ea1abc49fe6404411e8cdc3e5aaadfdfe5638984fa1971cc4705957ccc37"
FOREST_TIES_DIGEST = "e03c5c47c21708e554404ad11cd3a6c51c088ea938d7b398d8b14ce292412f1e"
MLP_WINDOWED_DIGEST = "8f84ea8ca981a0af0f371a43bdbe8e01a1aeb84a137a69b35c90ae514900c144"
ELEVEN_TYPES_DIGEST = "42e7886e8f825e462a86aabcf7fc5c819add5f846f7798cfc2deb39dafd41352"
# The results version the digests above were computed under.
DIGESTS_RESULTS_VERSION = "2"


def test_digests_pinned_under_current_results_version():
    assert RESULTS_VERSION == DIGESTS_RESULTS_VERSION


def digest(cfg: ExperimentConfig) -> str:
    data = artifact_to_dict(run(cfg))
    del data["timing"]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def test_golden_synthetic_attack_level(tmp_path):
    cfg = ExperimentConfig(
        classifiers=(
            ClassifierSpec("random_forest", {"n_trees": 4}, name="forest"),
            ClassifierSpec("linear_svm", {"epochs": 3}, name="svm"),
        ),
        synthetic=SyntheticConfig(
            benign_count=120,
            attacks=(
                AttackSpec(1, 24, (0,), 5.0),
                AttackSpec(2, 24, (1,), 5.0, overlap_group=1),
                AttackSpec(3, 24, (1,), 5.0, overlap_group=1),
            ),
            base_dim=4,
            seed=17,
        ),
        k=3,
        seed=5,
        levels=("attack",),
        modes=("baseline", "omit", "only"),
        output_dir=str(tmp_path / "out"),
    )
    assert digest(cfg) == SYNTHETIC_DIGEST


def test_golden_eleven_types_attack_level(tmp_path):
    # Group ids 10 and 11 sort before 2 as JSON strings but after it as
    # integers, so this digest pins the key order of every values map.
    cfg = ExperimentConfig(
        classifiers=(ClassifierSpec("random_forest", {"n_trees": 2}, name="forest"),),
        synthetic=SyntheticConfig(
            benign_count=110,
            attacks=tuple(AttackSpec(t, 10, (t - 1,), 4.0) for t in range(1, 12)),
            base_dim=11,
            seed=23,
        ),
        k=2,
        seed=3,
        levels=("attack",),
        modes=("baseline", "omit", "only"),
        output_dir=str(tmp_path / "out"),
    )
    assert digest(cfg) == ELEVEN_TYPES_DIGEST


def write_gas_csv(path) -> None:
    """Four rows per builtin attack type plus as many benign rows, shuffled,
    with every column of the gas-pipeline schema. About one numeric cell in
    twenty is blank; categorical cells hold short texts.
    """
    rng = np.random.default_rng(2024)
    labels = [0] * 140 + [t for t in sorted(builtin_taxonomy().types) for _ in range(4)]
    labels = rng.permutation(labels).tolist()
    lines = [",".join([name for name, _ in _GAS_PIPELINE_COLUMNS] + ["attack_type"])]
    for label in labels:
        cells = []
        for j, (_, kind) in enumerate(_GAS_PIPELINE_COLUMNS):
            if kind == "categorical":
                code = int(rng.integers(0, 3)) + (1 if label and j % 4 == 0 else 0)
                cells.append(f"c{code}")
            elif rng.random() < 0.05:
                cells.append("")
            else:
                shift = 2.0 * (label % 5) if label and j % 3 == 0 else 0.0
                cells.append(f"{rng.normal(shift, 1.0):.4f}")
        cells.append(str(label))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_golden_gas_csv_category_level(tmp_path, monkeypatch):
    # A relative dataset path keeps the config, and so the digest, free of tmp_path.
    monkeypatch.chdir(tmp_path)
    write_gas_csv(tmp_path / "gas.csv")
    cfg = ExperimentConfig(
        classifiers=(
            ClassifierSpec("random_forest", {"n_trees": 3, "window": 3}, name="forest"),
            ClassifierSpec("linear_svm", {"epochs": 3, "window": 3}, name="svm"),
        ),
        dataset_path="gas.csv",
        schema_source=SCHEMA_GAS_PIPELINE,
        k=3,
        seed=9,
        levels=("category",),
        modes=("baseline", "omit", "only"),
        output_dir="out",
    )
    assert digest(cfg) == GAS_CSV_DIGEST


def test_golden_mlp_windowed_category_level(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_gas_csv(tmp_path / "gas.csv")
    cfg = ExperimentConfig(
        classifiers=(
            ClassifierSpec("mlp", {"hidden": [16, 8], "epochs": 3, "window": 3}, name="mlp"),
        ),
        dataset_path="gas.csv",
        schema_source=SCHEMA_GAS_PIPELINE,
        k=3,
        seed=9,
        levels=("category",),
        modes=("baseline", "omit"),
        output_dir="out",
    )
    assert digest(cfg) == MLP_WINDOWED_DIGEST


def write_tied_csv(path) -> None:
    """Integer-valued numeric columns over a few values each and low-cardinality
    categorical columns, so most split candidates sit inside long runs of equal
    values. Benign and attack rows overlap, so unbounded trees grow deep.
    """
    rng = np.random.default_rng(77)
    labels = rng.permutation([0] * 240 + [1] * 40 + [2] * 40 + [32] * 40).tolist()
    lines = ["n0,n1,n2,n3,n4,c0,c1,c2,attack_type"]
    for label in labels:
        cells = [
            str(int(rng.integers(-2, 3)) + (1 if label == 1 else 0)),
            str(int(rng.integers(0, 4)) + (1 if label == 2 else 0)),
            str(int(rng.integers(0, 10))),
            str(int(rng.integers(0, 2)) * (2 if label == 32 else 1)),
            str(int(rng.poisson(1.0 + (label > 0)))),
        ]
        cells += [f"k{int(rng.integers(0, 3))}" for _ in range(2)]
        cells.append("on" if rng.random() < (0.7 if label == 32 else 0.4) else "off")
        cells.append(str(label))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_golden_forest_ties_unbounded_depth(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_tied_csv(tmp_path / "tied.csv")
    kinds = ["numeric"] * 5 + ["categorical"] * 3
    names = ["n0", "n1", "n2", "n3", "n4", "c0", "c1", "c2"]
    schema = {"features": [{"name": n, "kind": k} for n, k in zip(names, kinds)]}
    (tmp_path / "tied.schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "tied.taxonomy.csv").write_text(
        "kind,id,name,category,abbreviation\n"
        "category,1,Injection,,INJ\n"
        "category,6,Denial of Service,,DoS\n"
        "attack,1,INJ-1,1,\n"
        "attack,2,INJ-2,1,\n"
        "attack,32,DoS-1,6,\n",
        encoding="utf-8",
    )
    cfg = ExperimentConfig(
        classifiers=(
            ClassifierSpec(
                "random_forest",
                {"n_trees": 5, "max_depth": None, "min_leaf": 3},
                name="forest",
            ),
        ),
        dataset_path="tied.csv",
        schema_source="tied.schema.json",
        taxonomy_source="tied.taxonomy.csv",
        k=3,
        seed=13,
        levels=("attack",),
        modes=("baseline", "omit"),
        output_dir="out",
    )
    assert digest(cfg) == FOREST_TIES_DIGEST
