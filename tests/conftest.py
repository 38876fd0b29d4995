"""Shared builders for hand-sized datasets used across the test modules."""

from __future__ import annotations

import csv
import io

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


@pytest.fixture
def separable_dataset() -> Dataset:
    return generate_synthetic(separable_config())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
