"""Helpers that make hand-sized datasets for the test modules, and
check_split, the tests' oracle of the split invariants."""

from __future__ import annotations

import csv
import io
from typing import NamedTuple

import numpy as np
import pytest

from iidsbench.classifiers.mlp import MlpParams
from iidsbench.dataset import (
    AttackCategory,
    AttackSpec,
    AttackTaxonomy,
    AttackType,
    Dataset,
    FeatureSchema,
    SyntheticConfig,
    generate_synthetic,
)
from iidsbench.report import UNDEFINED_TEXT
from iidsbench.splitting import FoldPlan, SplitInstance


def flat_taxonomy(type_ids: list[int]) -> AttackTaxonomy:
    """Each attack type in its own category, category id = type id."""
    return AttackTaxonomy(
        types={t: AttackType(f"attack-{t}", t) for t in type_ids},
        categories={t: AttackCategory(f"A{t}", f"category-{t}") for t in type_ids},
    )


def tiny_dataset(
    labels: list[int],
    features: list[list[float]] | None = None,
    taxonomy: AttackTaxonomy | None = None,
) -> Dataset:
    """Dataset built directly from a label list; features default to the
    row index so rows stay distinguishable.
    """
    n = len(labels)
    if features is None:
        features = [[float(i), float(i % 3)] for i in range(n)]
    if taxonomy is None:
        taxonomy = flat_taxonomy(sorted({t for t in labels if t != 0}) or [1])
    schema = FeatureSchema(
        feature_names=tuple(f"f{j}" for j in range(len(features[0]))),
        feature_kinds=tuple("numeric" for _ in features[0]),
    )
    return Dataset(
        schema, np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64), taxonomy
    )


def separable_config(
    benign: int = 300,
    per_attack: int = 50,
    attack_ids: tuple[int, ...] = (1, 2),
    offset: float = 10.0,
    dim: int = 4,
    seed: int = 11,
) -> SyntheticConfig:
    return SyntheticConfig(
        benign_count=benign,
        attacks=tuple(
            AttackSpec(t, per_attack, (idx % dim,), offset)
            for idx, t in enumerate(attack_ids)
        ),
        base_dim=dim,
        noise_scale=1.0,
        seed=seed,
    )


def matrix_from_csv(text: str) -> tuple[list[str], list[str], list[list[float | None]]]:
    """Parse `report --format csv` output: (row labels, column labels, cells),
    with "n/a" cells as None.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    cells = [[None if cell == UNDEFINED_TEXT else float(cell) for cell in row[1:]] for row in rows[1:]]
    return [row[0] for row in rows[1:]], rows[0][1:], cells


def mlp_loss(params: MlpParams, X, y) -> float:
    """Mean binary cross-entropy on logits of the net on (X, y), from a
    forward pass written out here: the reference for finite-difference
    checks of mlp_loss_and_grads's gradients.
    """
    a = np.asarray(X, dtype=np.float64)
    last = len(params.weights) - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        a = a @ W + b
        if l < last:
            a = np.maximum(a, 0.0)
    z = a[:, 0]
    return float(np.mean(np.logaddexp(0.0, z) - np.asarray(y, dtype=np.float64) * z))


class Finding(NamedTuple):
    message: str
    record_index: int | None = None


def check_split(d: Dataset, s: SplitInstance, plan: FoldPlan | None = None) -> list[Finding]:
    """Every violated SplitInstance invariant; empty iff the split is valid.
    The benign-placement invariant needs the fold assignment, so it is
    checked only when the plan is supplied.
    """
    findings = []
    n = len(d)
    train = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for name, mask, indices in (("train", train, s.train_indices), ("test", test, s.test_indices)):
        arr = np.asarray(indices, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            findings.append(Finding(f"{name} indices fall outside 0..{n - 1}"))
            arr = arr[(arr >= 0) & (arr < n)]
        mask[arr] = True
    overlap = np.flatnonzero(train & test)
    if overlap.size:
        listed = ", ".join(map(str, overlap[:10].tolist()))
        findings.append(Finding(f"{overlap.size} records in both train and test: {listed}"))
    uncovered = np.flatnonzero(~(train | test))
    if uncovered.size:
        listed = ", ".join(map(str, uncovered[:10].tolist()))
        findings.append(Finding(f"{uncovered.size} records in neither set: {listed}"))

    malicious = d.binary_labels()
    if s.scenario.mode != "baseline":
        unit = d.units(s.scenario.level) == s.scenario.target
        if s.scenario.mode == "omit":
            leaked = unit & train
            message = "target-unit record present in train set"
        else:
            leaked = malicious & ~unit & train
            message = "malicious record outside target unit in train set"
        for idx in np.flatnonzero(leaked).tolist():
            findings.append(Finding(message, idx))

    if plan is not None:
        should_test = plan.assignment == s.fold
        for idx in np.flatnonzero(~malicious & (test != should_test)).tolist():
            expected = "test" if should_test[idx] else "train"
            message = f"benign record moved out of its {expected} position"
            findings.append(Finding(message, idx))
    return findings


@pytest.fixture
def separable_dataset() -> Dataset:
    return generate_synthetic(separable_config())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
