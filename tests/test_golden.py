"""Golden digests: run.json (timing aside) of two fixed experiments.

Each test pins the sha256 of the canonical JSON of a finished run, so any
change to parsing, splitting, preprocessing, training or scoring that moves
a single number fails here. The mlp is left out: BLAS thread counts can
change its last bits.
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
from iidsbench.runner import ExperimentConfig, artifact_to_dict, run

SYNTHETIC_DIGEST = "d74d7253f045b2ce6756f554226f6160fb494cae51b667d4b67798db9a0c84d6"
GAS_CSV_DIGEST = "c4676bd53263be03acc248e4b9f3e9e3ba03f008f923a2a051508c39936493d4"


def digest(cfg: ExperimentConfig) -> str:
    data = artifact_to_dict(run(cfg), timing=False)
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
