"""Fold plans and the three train/test scenario kinds.

baseline is a plain k-fold split. omit removes one target unit (an attack
type or a whole category: Dataset.units at the scenario's level) from every
train set and tests it in full. only keeps a single target unit as the
malicious training material and moves every other malicious record into the
test set. Benign records never move: a benign record is tested exactly when
its fold id matches the instance's fold, in all three modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LEVEL_ATTACK, LEVELS, AttackTaxonomy, Dataset
from .errors import SplitError

MODE_BASELINE = "baseline"
MODE_OMIT = "omit"
MODE_ONLY = "only"
MODES = (MODE_BASELINE, MODE_OMIT, MODE_ONLY)

STRATEGY_STRATIFIED = "stratified"
STRATEGY_CONTIGUOUS = "contiguous"
STRATEGIES = (STRATEGY_STRATIFIED, STRATEGY_CONTIGUOUS)


@dataclass(frozen=True)
class ScenarioSpec:
    mode: str
    level: str = LEVEL_ATTACK
    target: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise SplitError(f"unknown scenario mode {self.mode!r}")
        if self.level not in LEVELS:
            raise SplitError(f"unknown aggregation level {self.level!r}")
        if self.mode == MODE_BASELINE and self.target is not None:
            raise SplitError("baseline scenario takes no target")
        if self.mode != MODE_BASELINE and self.target is None:
            raise SplitError(f"{self.mode} scenario requires a target unit")

    def key(self) -> str:
        if self.mode == MODE_BASELINE:
            return f"{self.mode}-{self.level}"
        return f"{self.mode}-{self.level}-{self.target}"


@dataclass(frozen=True, eq=False)
class FoldPlan:
    k: int
    assignment: np.ndarray  # per-record fold id, 0..k-1


def partition_folds(
    d: Dataset,
    k: int,
    strategy: str = STRATEGY_STRATIFIED,
    seed: int = 0,
) -> FoldPlan:
    """Assign every record a fold id. stratified shuffles each attack_type
    stratum by seed and deals records round-robin, carrying the dealing
    offset across strata so overall fold sizes still differ by at most one.
    contiguous assigns record i to fold floor(i*k/N).
    """
    n = len(d)
    if k < 2:
        raise SplitError(f"k must be at least 2, got {k}")
    if k > n:
        raise SplitError(f"k={k} exceeds dataset size {n}")
    if strategy not in STRATEGIES:
        raise SplitError(f"unknown fold strategy {strategy!r}")
    assignment = np.empty(n, dtype=np.int64)
    if strategy == STRATEGY_CONTIGUOUS:
        assignment[:] = (np.arange(n, dtype=np.int64) * k) // n
    else:
        rng = np.random.default_rng(seed)
        labels = d.labels()
        offset = 0
        for value in np.unique(labels):
            members = np.flatnonzero(labels == value)
            members = rng.permutation(members)
            assignment[members] = (offset + np.arange(len(members))) % k
            offset = (offset + len(members)) % k
    return FoldPlan(k=k, assignment=assignment)


def enumerate_scenarios(
    tax: AttackTaxonomy,
    level: str,
    modes,
) -> list[ScenarioSpec]:
    """All scenario specs for one level in deterministic order: baseline
    first when requested, then omit over units ascending, then only.
    """
    modes = set(modes)
    unknown = modes - set(MODES)
    if unknown:
        raise SplitError(f"unknown modes {sorted(unknown)}")
    specs: list[ScenarioSpec] = []
    if MODE_BASELINE in modes:
        specs.append(ScenarioSpec(MODE_BASELINE, level))
    units = tax.unit_ids(level)
    for mode in (MODE_OMIT, MODE_ONLY):
        if mode in modes:
            specs.extend(ScenarioSpec(mode, level, unit) for unit in units)
    return specs


@dataclass(frozen=True, eq=False)
class SplitInstance:
    scenario: ScenarioSpec
    fold: int
    train_indices: np.ndarray  # sorted, unique
    test_indices: np.ndarray  # sorted, unique


def _unit_mask(d: Dataset, scenario: ScenarioSpec) -> np.ndarray:
    if scenario.target not in d.taxonomy.unit_ids(scenario.level):
        raise SplitError(f"target {scenario.level} unit {scenario.target} absent from taxonomy")
    return d.units(scenario.level) == scenario.target


def materialize_split(
    d: Dataset,
    plan: FoldPlan,
    fold: int,
    scenario: ScenarioSpec,
) -> SplitInstance:
    """Start from the baseline split for `fold`, then move records per the
    scenario: omit pushes the whole target unit into test; only pushes every
    malicious record outside the target unit into test.
    """
    if not 0 <= fold < plan.k:
        raise SplitError(f"fold {fold} outside 0..{plan.k - 1}")
    if len(plan.assignment) != len(d):
        raise SplitError("fold plan does not cover this dataset")
    in_test = plan.assignment == fold
    if scenario.mode != MODE_BASELINE:
        unit = _unit_mask(d, scenario)
        if not unit.any():
            raise SplitError(f"empty target unit: no records of {scenario.key()}")
        if scenario.mode == MODE_OMIT:
            in_test = in_test | unit
        else:
            moved = d.binary_labels() & ~unit
            in_test = in_test | moved
    return SplitInstance(
        scenario=scenario,
        fold=fold,
        train_indices=np.flatnonzero(~in_test),
        test_indices=np.flatnonzero(in_test),
    )

