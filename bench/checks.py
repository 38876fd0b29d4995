"""Output checks. Each expectation is computed from what the benchmark
generated, apart from the harness; the harness is called only to produce the
output under test. A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import PLANTED_OVERLAP, PLANTED_SIGNATURES, Expected


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_dataset(dataset, expected: Expected) -> None:
    """Matrix (imputed blanks and missing flags included), labels, feature
    names and first-occurrence code books equal what was generated."""
    require(
        dataset.schema.feature_names == expected.feature_names,
        f"feature names {dataset.schema.feature_names} != {expected.feature_names}",
    )
    X = dataset.feature_matrix()
    require(X.shape == expected.matrix.shape, f"matrix shape {X.shape} != {expected.matrix.shape}")
    bad = np.flatnonzero((X != expected.matrix).any(axis=0))
    require(bad.size == 0, f"loaded values differ in columns {[expected.feature_names[j] for j in bad]}")
    require(np.array_equal(dataset.labels(), expected.labels), "loaded labels differ")
    require(
        dataset.schema.categorical_codes == expected.code_books,
        "categorical code books differ from first-occurrence order",
    )


def scenario_targets(cfg: dict, expected: Expected):
    """(mode, level, target) of every scenario the config asks for."""
    for level in cfg["levels"]:
        if "baseline" in cfg["modes"]:
            yield "baseline", level, None
        for mode in ("omit", "only"):
            if mode in cfg["modes"]:
                for unit in expected.units[level]:
                    yield mode, level, unit


def expected_cells(cfg: dict, expected: Expected) -> int:
    return len(list(scenario_targets(cfg, expected))) * cfg["k"] * len(cfg["classifiers"])


def check_splits(dataset, plan, cfg: dict, expected: Expected) -> dict:
    """Every split partitions all rows and moves exactly what its scenario
    says. Returns the test mask per (mode, level, target, fold)."""
    from iidsbench.splitting import ScenarioSpec, materialize_split

    n = len(expected.labels)
    assignment = np.asarray(plan.assignment)
    require(assignment.shape == (n,), "fold plan does not cover every row")
    require(set(np.unique(assignment).tolist()) == set(range(cfg["k"])), "fold ids outside 0..k-1")
    benign = expected.labels == 0
    masks = {}
    for mode, level, target in scenario_targets(cfg, expected):
        unit = expected.groups(level) == target if target is not None else np.zeros(n, bool)
        for fold in range(cfg["k"]):
            split = materialize_split(dataset, plan, fold, ScenarioSpec(mode, level, target))
            where = f"{mode}-{level}-{target} fold {fold}"
            train, test = np.zeros(n, int), np.zeros(n, int)
            np.add.at(train, split.train_indices, 1)
            np.add.at(test, split.test_indices, 1)
            require(((train + test) == 1).all(), f"{where}: train and test do not partition the rows")
            if mode == "omit":
                require(not (train.astype(bool) & unit).any(), f"{where}: omitted unit in train")
            if mode == "only":
                require(
                    not (train.astype(bool) & ~benign & ~unit).any(),
                    f"{where}: another unit's malicious rows in train",
                )
            tested = test.astype(bool)
            require(
                np.array_equal(tested[benign], assignment[benign] == fold),
                f"{where}: benign rows not tested exactly in their fold",
            )
            moved = ~benign & ~unit if mode == "only" else unit
            require(
                np.array_equal(tested, (assignment == fold) | moved),
                f"{where}: test set differs from fold plus moved rows",
            )
            masks[(mode, level, target, fold)] = tested
    return masks


def _recounts(expected: Expected, level: str, tested: np.ndarray, flags=None) -> dict:
    """Group id -> (records, malicious verdicts) over the test rows, by bincount."""
    groups = expected.groups(level)[tested]
    size = max(expected.units[level]) + 1
    totals = np.bincount(groups, minlength=size)
    hits = np.bincount(groups[flags], minlength=size) if flags is not None else None
    return {
        g: (int(totals[g]), None if hits is None else int(hits[g]))
        for g in [0, *expected.units[level]]
    }


def read_cells(out_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(out_dir.glob("cells/*/*/*.json"))]


def _cell_key(cell: dict) -> tuple:
    s = cell["scenario"]
    return (cell["classifier"], s["mode"], s["level"], s["target"], cell["fold"])


def check_run(out_dir: Path, run: dict, cfg: dict, expected: Expected, masks: dict) -> None:
    """A fresh run's run.json and its cell files agree with each other and
    with the splits: one cell per planned (classifier, scenario, fold),
    undefined groups null, every aggregate the mean over defined folds."""
    planned = expected_cells(cfg, expected)
    require(
        run["timing"]["computed_cells"] == planned,
        f"{out_dir.name}: computed_cells {run['timing']['computed_cells']} != {planned}",
    )
    cells = read_cells(out_dir)
    names = [c["name"] for c in cfg["classifiers"]]
    want = {(c, m, lv, t, f) for c in names for (m, lv, t, f) in masks}
    require({_cell_key(c) for c in cells} == want, f"{out_dir.name}: cell files differ from the plan")
    require(len(cells) == len(want), f"{out_dir.name}: duplicate cell files")
    require(
        all(c["config_hash"] == run["config_hash"] for c in cells),
        f"{out_dir.name}: a cell file carries another config hash",
    )
    rows = {_cell_key(r): r for r in run["rows"]}
    by_scenario: dict[tuple, list[dict]] = {}
    for cell in cells:
        key = _cell_key(cell)
        require(rows.get(key, {}).get("values") == cell["values"], f"{key}: run.json row differs")
        counts = _recounts(expected, key[2], masks[key[1:]])
        for g, (total, _) in counts.items():
            value = cell["values"][str(g)]
            if total == 0:
                require(value is None, f"{key}: group {g} has no test rows but reads {value}")
            else:
                require(value is not None, f"{key}: group {g} has {total} test rows but reads null")
                hits = value * total
                require(abs(hits - round(hits)) < 1e-6, f"{key}: group {g} recall {value} is not k/{total}")
        by_scenario.setdefault(key[:4], []).append(cell)
    aggregates = {
        (a["classifier"], a["scenario"]["mode"], a["scenario"]["level"], a["scenario"]["target"]): a
        for a in run["aggregates"]
    }
    require(set(aggregates) == set(by_scenario), f"{out_dir.name}: aggregates differ from the plan")
    for key, folds in by_scenario.items():
        agg = aggregates[key]
        for g in agg["values"]:
            defined = [c["values"][g] for c in folds if c["values"][g] is not None]
            require(agg["defined_folds"][g] == len(defined), f"{key}: defined folds of group {g}")
            if defined:
                mean = math.fsum(defined) / len(defined)
                value = agg["values"][g]
                require(
                    value is not None and abs(value - mean) <= 1e-12,
                    f"{key}: group {g} aggregate {value} != mean {mean}",
                )
            else:
                require(agg["values"][g] is None, f"{key}: group {g} undefined in every fold but not null")


def without_timing(run: dict) -> dict:
    return {k: v for k, v in run.items() if k != "timing"}


def check_resume(before: dict, after: dict, planned: int) -> None:
    require(without_timing(before) == without_timing(after), "resume changed run.json beyond timing")
    timing = after["timing"]
    require(
        timing["computed_cells"] == 0 and timing["reused_cells"] == planned,
        f"resume recomputed cells: {timing['computed_cells']} computed, {timing['reused_cells']} reused",
    )


def check_sampled_cell(dataset, plan, cfg: dict, expected: Expected, out_dir: Path, masks: dict, rng) -> None:
    """Re-train and re-predict one cell, and recount its per-group recall."""
    from iidsbench import classifiers, runner
    from iidsbench.splitting import ScenarioSpec, materialize_split

    keys = sorted(masks, key=str)
    mode, level, target, fold = keys[int(rng.integers(len(keys)))]
    specs = runner.config_from_dict(cfg).classifiers
    spec = specs[int(rng.integers(len(specs)))]
    scenario = ScenarioSpec(mode, level, target)
    split = materialize_split(dataset, plan, fold, scenario)
    seed = runner.cell_seed(cfg["seed"], spec.name, scenario, fold)
    model = classifiers.train(replace(spec, seed=seed), split, dataset)
    flags, _ = classifiers.predict_dataset(model, dataset, split.test_indices)
    tested = masks[(mode, level, target, fold)]
    counts = _recounts(expected, level, tested, np.asarray(flags, dtype=bool))
    cell = next(c for c in read_cells(out_dir) if _cell_key(c) == (spec.name, mode, level, target, fold))
    for g, (total, hits) in counts.items():
        if g == 0:
            want = (total - hits) / total if total else None
        else:
            want = hits / total if total else None
        got = cell["values"][str(g)]
        require(got == want, f"re-predicted {spec.name}/{mode}-{level}-{target}/{fold}: group {g} {got} != {want}")


# Thresholds from forest_omit's design. Each signature shifts five features by
# PLANTED_OFFSET (four) noise deviations, so a trained detector separates it
# almost perfectly. An omitted signature-disjoint type looks benign on every feature
# a detector trained without it relies on: its recall falls toward the benign
# false-positive rate. An omitted member of an overlap group shares its
# signature with a trained type and stays detected.
PLANTED_MIN_BENIGN = 0.85
PLANTED_MIN_TRAINED = 0.8
PLANTED_MAX_OMITTED_DISJOINT = 0.25
PLANTED_MIN_OMITTED_OVERLAP = 0.8


def check_planted(run: dict) -> None:
    for m in run["matrices"]:
        cells = {
            (row, col): v
            for row, values in zip(m["row_units"], m["cells"])
            for col, v in zip(m["col_groups"], values)
        }
        for t in PLANTED_SIGNATURES:
            base = cells[(None, t)]
            require(base >= PLANTED_MIN_TRAINED, f"baseline recall of type {t} is {base}")
        require(cells[(None, 0)] >= PLANTED_MIN_BENIGN, f"baseline benign recall {cells[(None, 0)]}")
        if m["mode"] != "omit":
            continue
        for t in PLANTED_SIGNATURES:
            value = cells[(t, t)]
            if t in PLANTED_OVERLAP:
                require(value >= PLANTED_MIN_OMITTED_OVERLAP, f"omitted overlap type {t} recall {value}")
            else:
                require(value <= PLANTED_MAX_OMITTED_DISJOINT, f"omitted disjoint type {t} recall {value}")
            require(cells[(t, 0)] >= PLANTED_MIN_BENIGN, f"benign recall with type {t} omitted")
