"""Confusion counting, precision/recall/F1, per-group recall, fold means.

Zero-denominator metrics are undefined, represented as None (never
substituted with 0 or 1), and fold averaging runs over the defined folds
only, reporting how many there were. The malicious class is positive
everywhere except the benign column, which scores benign traffic as its
own positive class (tn/(tn+fp)).

GroupRecallRow and AggregatedRow are the `rows` and `aggregates` entries of
run.json: their fields are the JSON keys, and each constructor also takes
the JSON form, with the scenario as an object and group ids as strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BENIGN, LEVEL_ATTACK, AttackTaxonomy
from .errors import check_real
from .splitting import ScenarioSpec


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(predicted, truth) -> ConfusionCounts:
    """Tally outcomes of binary predictions; True means malicious."""
    pred = np.asarray(predicted, dtype=bool)
    true = np.asarray(truth, dtype=bool)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} predictions vs {true.shape} labels")
    if pred.size == 0:
        raise ValueError("empty prediction set")
    tp = int(np.sum(pred & true))
    fp = int(np.sum(pred & ~true))
    tn = int(np.sum(~pred & ~true))
    fn = int(np.sum(~pred & true))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def precision(c: ConfusionCounts) -> float | None:
    if c.tp + c.fp == 0:
        return None
    return c.tp / (c.tp + c.fp)


def recall(c: ConfusionCounts) -> float | None:
    if c.tp + c.fn == 0:
        return None
    return c.tp / (c.tp + c.fn)


def f1(p: float | None, r: float | None) -> float | None:
    if p is None or r is None or p + r == 0:
        return None
    return 2 * p * r / (p + r)


def check_metrics(values, where: str) -> None:
    """Raise TypeError unless every value is None (undefined) or a finite
    number, so that a damaged result file fails when it is read rather than
    when it is rendered."""
    for value in values:
        if value is not None:
            check_real(value, where, error=TypeError)


def _from_json(record, *group_maps: str) -> None:
    """Turn a record's JSON form into its field types in place: the
    scenario object into a ScenarioSpec, string group ids into integers."""
    if not isinstance(record.scenario, ScenarioSpec):
        object.__setattr__(record, "scenario", ScenarioSpec(**record.scenario))
    for name in group_maps:
        object.__setattr__(record, name, {int(g): v for g, v in getattr(record, name).items()})


@dataclass(frozen=True)
class GroupRecallRow:
    """Recall per group for one evaluated fold. Groups are the benign column
    (dataset.BENIGN, id 0) plus every unit of the taxonomy at the scenario's
    level; a group whose records never appear in the test set holds None.
    """

    classifier: str
    scenario: ScenarioSpec
    fold: int
    values: dict[int, float | None]
    precision: float | None
    recall: float | None
    f1: float | None

    def __post_init__(self) -> None:
        _from_json(self, "values")
        check_metrics([*self.values.values(), self.precision, self.recall, self.f1], "row values")


def per_group_recall(
    predictions,
    attack_types,
    taxonomy: AttackTaxonomy,
    level: str = LEVEL_ATTACK,
) -> dict:
    """Score one fold's test set. predictions[i] is the binary verdict for
    the record labeled attack_types[i] (True = malicious); every label must
    be benign or a type of the taxonomy. A record's group is its unit at
    `level` (AttackTaxonomy.unit_map), and benign records are group 0. Each
    group scores the fraction of its records classified correctly: benign
    ones predicted benign, malicious ones predicted malicious. Returns the
    values, precision, recall and f1 fields of the fold's GroupRecallRow.
    """
    if len(predictions) != len(attack_types):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(attack_types)} labels"
        )
    pred = np.asarray(predictions, dtype=bool)
    types = np.asarray(attack_types, dtype=np.int64)
    truth = types != BENIGN
    units = taxonomy.unit_map(level)[types]
    groups = [BENIGN, *taxonomy.unit_ids(level)]
    totals = np.bincount(units, minlength=max(groups) + 1).tolist()
    correct = np.bincount(units[pred == truth], minlength=len(totals)).tolist()
    values = {g: correct[g] / totals[g] if totals[g] else None for g in groups}

    counts = confusion(pred, truth)
    p = precision(counts)
    r = recall(counts)
    return {"values": values, "precision": p, "recall": r, "f1": f1(p, r)}


@dataclass(frozen=True)
class AggregatedRow:
    """Fold means of one classifier's scenario: values[g] averages group g
    over the defined_folds[g] folds where it is defined, and precision over
    precision_folds of the n_folds folds.
    """

    classifier: str
    scenario: ScenarioSpec
    values: dict[int, float | None]
    defined_folds: dict[int, int]
    precision: float | None
    precision_folds: int
    n_folds: int

    def __post_init__(self) -> None:
        _from_json(self, "values", "defined_folds")
        check_metrics([*self.values.values(), self.precision], "aggregate values")


def _mean_defined(values: list[float | None]) -> tuple[float | None, int]:
    defined = [v for v in values if v is not None]
    if not defined:
        return None, 0
    return sum(defined) / len(defined), len(defined)


def aggregate_folds(rows: list[GroupRecallRow]) -> AggregatedRow:
    """Arithmetic mean over the folds where each value is defined. All rows
    must belong to one classifier and scenario.
    """
    if not rows:
        raise ValueError("no fold rows to aggregate")
    first = rows[0]
    for row in rows[1:]:
        if (row.classifier, row.scenario) != (first.classifier, first.scenario):
            raise ValueError(
                f"mixed cells: {first.classifier} {first.scenario.key()} "
                f"and {row.classifier} {row.scenario.key()}"
            )
    groups = first.values.keys()
    for row in rows[1:]:
        if row.values.keys() != groups:
            raise ValueError("fold rows disagree on the group set")

    values: dict[int, float | None] = {}
    defined_folds: dict[int, int] = {}
    for group in groups:
        values[group], defined_folds[group] = _mean_defined([row.values[group] for row in rows])
    precision_mean, precision_count = _mean_defined([row.precision for row in rows])
    return AggregatedRow(
        classifier=first.classifier,
        scenario=first.scenario,
        values=values,
        defined_folds=defined_folds,
        precision=precision_mean,
        precision_folds=precision_count,
        n_folds=len(rows),
    )
