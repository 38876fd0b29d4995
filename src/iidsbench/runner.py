"""Experiment runner: schedules (classifier, scenario, fold) cells, trains
and scores each one, persists every cell to its own JSON file, and folds the
results into run.json.

run.json and the cell files are the JSON of the result records: a
RunArtifact's fields, or a GroupRecallRow's plus config_hash,
results_version and wall_time, each with format_version. _encode writes them
and _decode reads them back. Existing cells are reused only under this
config and this RESULTS_VERSION.

Reruns are reproducible to the byte (timing aside): each cell gets its own
seed derived by hashing the experiment seed with the cell identity, so
results do not depend on worker count or execution order. A rerun over an
existing output directory recomputes only the missing cells. The cells are
planned and run.json assembled from the config and the taxonomy alone, so
the dataset is loaded and its folds partitioned only when a cell is missing:
a complete directory is rebuilt from config.json, the taxonomy and its cell
files. inputs.json records the absolute path and the sha256 of every input
file when the directory is first written; later runs read each input from
that path, and check the taxonomy and schema against the hash on every run,
the dataset just before it is parsed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from itertools import groupby
from multiprocessing import active_children, get_context
from pathlib import Path

import numpy as np

from .classifiers import ClassifierSpec, TrainedModel, predict_dataset, train
from .dataset import (
    BENIGN,
    LEVEL_ATTACK,
    LEVELS,
    SCHEMA_INFER_NUMERIC,
    SCHEMA_GAS_PIPELINE,
    TAXONOMY_BUILTIN,
    AttackTaxonomy,
    Dataset,
    SyntheticConfig,
    generate_synthetic,
    load_taxonomy,
    parse_dataset,
    synthetic_config_from_dict,
    synthetic_taxonomy,
)
from .errors import (
    ConfigError,
    HarnessError,
    RunError,
    check_choices,
    check_int,
    check_text,
    reject_unknown_keys,
)
from .fileio import atomic_write_text, dump_json, file_sha256, read_json
from .metrics import AggregatedRow, GroupRecallRow, aggregate_folds, per_group_recall
from .report import MetricsMatrix, build_matrix
from .splitting import (
    MODE_BASELINE,
    MODE_OMIT,
    MODE_ONLY,
    MODES,
    STRATEGIES,
    STRATEGY_STRATIFIED,
    FoldPlan,
    ScenarioSpec,
    enumerate_scenarios,
    materialize_split,
    partition_folds,
)

FORMAT_VERSION = "1"
# The version of the numbers a cell holds. A change that moves any cell's
# result bumps it, so that resume never mixes cells computed before the
# change with cells computed after it. A cell file without one is "1".
RESULTS_VERSION = "2"
RUN_FILE = "run.json"
CONFIG_FILE = "config.json"
INPUTS_FILE = "inputs.json"
MARKER_FILE = "INCOMPLETE"
CELLS_DIR = "cells"


@dataclass(frozen=True)
class ExperimentConfig:
    classifiers: tuple[ClassifierSpec, ...]
    dataset_path: str | None = None
    schema_source: str = SCHEMA_INFER_NUMERIC
    taxonomy_source: str = TAXONOMY_BUILTIN
    synthetic: SyntheticConfig | None = None
    k: int = 5
    strategy: str = STRATEGY_STRATIFIED
    seed: int = 0
    levels: tuple[str, ...] = (LEVEL_ATTACK,)
    modes: tuple[str, ...] = MODES
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.classifiers]
        if not names or len(set(names)) != len(names):
            raise ConfigError(f"need at least one classifier, and unique names, got {names}")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset_path and synthetic must be set")
        defaults = (SCHEMA_INFER_NUMERIC, TAXONOMY_BUILTIN)
        if self.synthetic is not None and (self.schema_source, self.taxonomy_source) != defaults:
            raise ConfigError("a synthetic dataset takes no schema or taxonomy")
        for name in ("dataset_path", "schema_source", "taxonomy_source", "output_dir"):
            if getattr(self, name) is not None:
                check_text(getattr(self, name), name)
        check_int(self.k, "k", 2)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown fold strategy {self.strategy!r}")
        check_int(self.seed, "seed", 0)
        check_int(self.workers, "workers", 1)
        object.__setattr__(self, "levels", check_choices(self.levels, "levels", LEVELS))
        object.__setattr__(self, "modes", check_choices(self.modes, "modes", MODES))


def config_identity(cfg: ExperimentConfig) -> dict:
    """Everything that determines the numbers. Excludes output_dir and
    workers, which only say where and how fast.
    """
    if cfg.synthetic is not None:
        source: dict = {"synthetic": asdict(cfg.synthetic)}
    else:
        source = {
            "path": cfg.dataset_path,
            "schema": cfg.schema_source,
            "taxonomy": cfg.taxonomy_source,
        }
    return {
        "dataset": source,
        "k": cfg.k,
        "strategy": cfg.strategy,
        "seed": cfg.seed,
        "levels": list(cfg.levels),
        "modes": list(cfg.modes),
        "classifiers": [asdict(spec) for spec in cfg.classifiers],
    }


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {**config_identity(cfg), "output_dir": cfg.output_dir, "workers": cfg.workers}


# The dataset block's JSON keys and the ExperimentConfig field each sets.
_DATASET_KEYS = {
    "path": "dataset_path",
    "schema": "schema_source",
    "taxonomy": "taxonomy_source",
    "synthetic": "synthetic",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from its JSON form. Omitted keys take the dataclass
    defaults; an unknown key at any level raises ConfigError.
    """
    top_keys = {f.name for f in fields(ExperimentConfig)} - set(_DATASET_KEYS.values())
    reject_unknown_keys(data, {"dataset", *top_keys}, "experiment config")
    rest = dict(data)
    try:
        source = rest.pop("dataset")
        reject_unknown_keys(source, _DATASET_KEYS, "dataset block")
        dataset = {_DATASET_KEYS[key]: value for key, value in source.items()}
        if "synthetic" in dataset:
            dataset["synthetic"] = synthetic_config_from_dict(dataset["synthetic"])
        entries = rest.pop("classifiers")
        if not isinstance(entries, (list, tuple)):
            raise ConfigError(f"classifiers must be a list of classifier entries, got {entries!r}")
        for entry in entries:
            reject_unknown_keys(entry, [f.name for f in fields(ClassifierSpec)], "classifier entry")
        classifiers = tuple(ClassifierSpec(**entry) for entry in entries)
        return ExperimentConfig(classifiers=classifiers, **dataset, **rest)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from exc


def config_fingerprint(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_identity(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_seed(config_seed: int, classifier_name: str, scenario: ScenarioSpec, fold: int) -> int:
    key = f"{config_seed}|{classifier_name}|{scenario.key()}|{fold}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def experiment_taxonomy(cfg: ExperimentConfig) -> AttackTaxonomy:
    """The taxonomy of cfg's dataset, read or built without its rows."""
    if cfg.synthetic is not None:
        return synthetic_taxonomy(cfg.synthetic)
    return load_taxonomy(cfg.taxonomy_source)


def load_experiment_dataset(
    cfg: ExperimentConfig, taxonomy: AttackTaxonomy | None = None
) -> Dataset:
    """cfg's dataset. A CSV is parsed with taxonomy, which defaults to
    experiment_taxonomy(cfg); a synthetic dataset builds its own."""
    if cfg.synthetic is not None:
        return generate_synthetic(cfg.synthetic)
    if taxonomy is None:
        taxonomy = load_taxonomy(cfg.taxonomy_source)
    return parse_dataset(cfg.dataset_path, schema_source=cfg.schema_source, taxonomy=taxonomy)


def _input_files(cfg: ExperimentConfig) -> dict[str, str]:
    """The path of each input file cfg names, by role: the dataset CSV, and
    the taxonomy and schema where they are files. A synthetic config names
    none."""
    if cfg.synthetic is not None:
        return {}
    files = {"dataset": cfg.dataset_path}
    if cfg.taxonomy_source != TAXONOMY_BUILTIN:
        files["taxonomy"] = cfg.taxonomy_source
    if cfg.schema_source not in (SCHEMA_INFER_NUMERIC, SCHEMA_GAS_PIPELINE):
        files["schema"] = cfg.schema_source
    return files


@dataclass(frozen=True)
class CellKey:
    classifier: ClassifierSpec
    scenario: ScenarioSpec
    fold: int

    def path(self) -> str:
        return f"{CELLS_DIR}/{self.classifier.name}/{self.scenario.key()}/{self.fold}.json"

    def ident(self) -> str:
        return f"{self.classifier.name}/{self.scenario.key()}/fold {self.fold}"


def plan_cells(cfg: ExperimentConfig, taxonomy: AttackTaxonomy) -> list[CellKey]:
    cells = []
    for spec in cfg.classifiers:
        for level in cfg.levels:
            for scenario in enumerate_scenarios(taxonomy, level, cfg.modes):
                for fold in range(cfg.k):
                    cells.append(CellKey(spec, scenario, fold))
    return cells


@dataclass(frozen=True, eq=False)
class RunArtifact:
    config: dict
    config_hash: str
    rows: tuple[GroupRecallRow, ...]
    aggregates: tuple[AggregatedRow, ...]
    matrices: tuple[MetricsMatrix, ...]
    timing: dict = field(default_factory=dict)

    def matrix(self, classifier: str, mode: str, level: str) -> MetricsMatrix:
        for m in self.matrices:
            if m.classifier == classifier and m.mode == mode and m.level == level:
                return m
        raise RunError(f"no matrix for classifier {classifier!r} mode {mode!r} level {level!r}")

    def classifier_names(self) -> tuple[str, ...]:
        return tuple(sorted({m.classifier for m in self.matrices}))


def _compute_cell(
    dataset: Dataset, plan: FoldPlan, key: CellKey, seed: int
) -> tuple[GroupRecallRow, float]:
    """Train and score one cell; return its row and its wall time in seconds."""
    start = time.perf_counter()
    split = materialize_split(dataset, plan, key.fold, key.scenario)
    spec = replace(key.classifier, seed=seed)
    model: TrainedModel = train(spec, split, dataset)
    flags, _ = predict_dataset(model, dataset, split.test_indices)
    test_labels = dataset.labels()[split.test_indices]
    scores = per_group_recall(flags, test_labels, dataset.taxonomy, key.scenario.level)
    row = GroupRecallRow(key.classifier.name, key.scenario, key.fold, **scores)
    return row, time.perf_counter() - start


_POOL_STATE: dict = {}


def _pool_init(dataset: Dataset, plan: FoldPlan) -> None:
    _POOL_STATE["dataset"] = dataset
    _POOL_STATE["plan"] = plan


def _pool_task(args: tuple[CellKey, int]) -> tuple[GroupRecallRow, float]:
    key, seed = args
    return _compute_cell(_POOL_STATE["dataset"], _POOL_STATE["plan"], key, seed)


def _string_keys(obj):
    if isinstance(obj, dict):
        return {str(k): _string_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_string_keys(v) for v in obj]
    return obj


def _encode(record, **extra) -> dict:
    """The JSON object of a result record: format_version, the record's
    fields and extra. Group ids become strings here, before dump_json sorts
    the keys, so that "10" sorts before "2" as it does when read back.
    """
    return _string_keys({"format_version": FORMAT_VERSION, **asdict(record), **extra})


def _decode(data: dict, build):
    """Inverse of _encode: check format_version and call build with the
    other keys, so that a missing or unknown key raises TypeError."""
    rest = dict(data)
    version = rest.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
    return build(**rest)


def _artifact(rows, aggregates, matrices, **rest) -> RunArtifact:
    return RunArtifact(
        rows=tuple(GroupRecallRow(**row) for row in rows),
        aggregates=tuple(AggregatedRow(**row) for row in aggregates),
        matrices=tuple(MetricsMatrix(**m) for m in matrices),
        **rest,
    )


def _sort_key(row: GroupRecallRow) -> tuple:
    return (row.classifier, row.scenario.key(), row.fold)


def _assemble(
    cfg: ExperimentConfig, taxonomy: AttackTaxonomy, rows: list[GroupRecallRow]
) -> tuple[tuple[AggregatedRow, ...], tuple[MetricsMatrix, ...]]:
    """Aggregate rows, which come in _sort_key order, and build every matrix."""
    aggregates = tuple(
        aggregate_folds(list(folds))
        for _, folds in groupby(rows, key=lambda r: (r.classifier, r.scenario))
    )
    lookup = {(row.classifier, row.scenario): row for row in aggregates}
    matrices = []
    for spec in cfg.classifiers:
        for level in cfg.levels:
            baseline = lookup.get((spec.name, ScenarioSpec(MODE_BASELINE, level)))
            for mode in cfg.modes:
                units = () if mode == MODE_BASELINE else taxonomy.unit_ids(level)
                unit_rows = {
                    unit: lookup[(spec.name, ScenarioSpec(mode, level, unit))] for unit in units
                }
                matrices.append(
                    build_matrix(spec.name, mode, level, baseline, unit_rows, taxonomy)
                )
    matrices.sort(key=lambda m: (m.classifier, m.level, m.mode))
    return aggregates, tuple(matrices)


def artifact_to_dict(artifact: RunArtifact) -> dict:
    return _encode(artifact)


def _read_stored(path: Path, decode):
    """Read one JSON file of an output directory and return decode(data). A
    file that cannot be read, is not UTF-8 JSON, or does not hold the fields
    decode needs raises RunError naming the file.
    """
    try:
        data = read_json(path)
    except (OSError, ValueError) as exc:
        raise RunError(f"unreadable file {path}: {exc}") from exc
    try:
        return decode(data)
    except (AttributeError, HarnessError, KeyError, TypeError, ValueError) as exc:
        raise RunError(f"malformed file {path}: {type(exc).__name__}: {exc}") from exc


def load_artifact(output_dir: str | Path) -> RunArtifact:
    path = Path(output_dir) / RUN_FILE
    if not path.exists():
        raise RunError(f"no {RUN_FILE} under {output_dir}")
    return _read_stored(path, lambda data: _decode(data, _artifact))


def _read_existing_cell(
    path: Path, fingerprint: str, key: CellKey, taxonomy: AttackTaxonomy
) -> tuple[GroupRecallRow, float]:
    """Read key's cell file, which must hold key's cell under this config
    and this RESULTS_VERSION, with a value for benign and for every unit of
    taxonomy at the cell's level and for no other group."""

    def cell(config_hash: str, wall_time: float, results_version="1", **row) -> tuple:
        return config_hash, results_version, GroupRecallRow(**row), wall_time

    config_hash, version, row, wall_time = _read_stored(path, lambda data: _decode(data, cell))
    if config_hash != fingerprint:
        raise RunError(
            f"cell {key.ident()} was produced by a different config "
            f"(stored {config_hash!r}, expected {fingerprint!r})"
        )
    if version != RESULTS_VERSION:
        raise RunError(
            f"cell {key.ident()} holds results version {version!r}, but this harness "
            f"computes results version {RESULTS_VERSION!r}; use a fresh directory"
        )
    stored = f"{row.classifier}/{row.scenario.key()}/fold {row.fold}"
    if stored != key.ident():
        raise RunError(f"cell file {path} holds cell {stored}, not {key.ident()}")
    groups = [BENIGN, *taxonomy.unit_ids(key.scenario.level)]
    if sorted(row.values) != groups:
        raise RunError(f"cell file {path} holds groups {sorted(row.values)}, expected {groups}")
    return row, wall_time


def _input_check(output_dir: Path, cfg: ExperimentConfig, new_dir: bool):
    """Return (check, inputs): check(role) raises RunError naming the input
    file of that role unless its sha256 equals the one INPUTS_FILE records,
    and inputs is cfg with each input file at the path it is read from. A
    new directory has each file's absolute path and hash recorded now, so an
    input that cannot be read fails before config.json is written. An
    existing directory reads its inputs from the recorded paths, from any
    working directory, or from cfg's where INPUTS_FILE holds none; one
    without INPUTS_FILE raises RunError naming it. Each file is hashed at
    most once.
    """
    files = _input_files(cfg)
    hashes: dict[str, str] = {}

    def current(role: str) -> str:
        if role not in hashes:
            try:
                hashes[role] = file_sha256(files[role])
            except OSError as exc:
                raise RunError(f"cannot read {role} file {files[role]}: {exc.strerror}") from exc
        return hashes[role]

    def decode(data: dict) -> tuple[dict, dict]:
        recorded, paths = _decode(data, lambda sha256, path=files: (sha256, path))
        for key, value in (("sha256", recorded), ("path", paths)):
            if not isinstance(value, dict) or sorted(value) != sorted(files):
                raise ValueError(f"{key} holds {value!r}, expected the roles {sorted(files)}")
            for text in value.values():
                check_text(text, key)
        return recorded, paths

    path = output_dir / INPUTS_FILE
    if new_dir:
        recorded = {role: current(role) for role in files}
        paths = {role: os.path.abspath(name) for role, name in files.items()}
        atomic_write_text(
            path, dump_json({"format_version": FORMAT_VERSION, "path": paths, "sha256": recorded})
        )
    else:
        recorded, paths = _read_stored(path, decode)
    files.update(paths)
    keys = {"dataset": "dataset_path", "taxonomy": "taxonomy_source", "schema": "schema_source"}
    inputs = replace(cfg, **{keys[role]: name for role, name in files.items()})

    def check(role: str) -> None:
        if role in files and current(role) != recorded[role]:
            raise RunError(
                f"{role} file {files[role]} changed since {output_dir} was first run "
                f"(sha256 {hashes[role]}, recorded {recorded[role]}); "
                "restore it or use a fresh directory"
            )

    return check, inputs


def _compute_cells(
    cfg: ExperimentConfig, dataset: Dataset, pending: list[tuple[CellKey, int]], finish
) -> None:
    """Compute the pending (key, seed) cells, serially or in a pool of
    cfg.workers, and hand each to finish(key, result)."""
    plan = partition_folds(dataset, cfg.k, cfg.strategy, cfg.seed)
    if cfg.workers == 1 or len(pending) <= 1:
        for key, seed in pending:
            finish(key, partial(_compute_cell, dataset, plan, key, seed))
        return
    # spawn keeps worker state independent of the parent's thread state
    pool = ProcessPoolExecutor(
        max_workers=min(cfg.workers, len(pending)),
        mp_context=get_context("spawn"),
        initializer=_pool_init,
        initargs=(dataset, plan),
    )
    # Cells are written as they finish. A failure or an interrupt
    # cancels the queued cells and waits only for the running ones.
    try:
        futures = {pool.submit(_pool_task, (key, seed)): key for key, seed in pending}
        for future in as_completed(futures):
            finish(futures[future], future.result)
    finally:
        try:
            pool.shutdown(cancel_futures=True)
        except KeyboardInterrupt:  # a second one ends the wait: stop the workers
            for worker in active_children():
                worker.terminate()
            raise


def _environment() -> dict:
    """What can change the arithmetic without changing the config."""
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(affinity(0)) if affinity else os.cpu_count(),
    }


def _execute(cfg: ExperimentConfig, output_dir: Path) -> RunArtifact:
    fingerprint = config_fingerprint(cfg)
    output_dir.mkdir(parents=True, exist_ok=True)

    config_path = output_dir / CONFIG_FILE
    new_dir = not config_path.exists()
    if not new_dir:
        stored = _read_stored(config_path, config_from_dict)
        if config_fingerprint(stored) != fingerprint:
            raise RunError(
                f"output directory {output_dir} holds a different experiment; "
                "use a fresh directory or restore the original config"
            )
    check_input, inputs = _input_check(output_dir, cfg, new_dir)
    # The taxonomy's labels shape the plan and run.json, so it is checked
    # on every run; the dataset only if a cell needs it.
    check_input("taxonomy")
    check_input("schema")
    total_start = time.perf_counter()
    # loaded before config.json is written, so that a taxonomy which fails
    # to load leaves a directory that the fixed taxonomy can still start
    taxonomy = experiment_taxonomy(inputs)
    atomic_write_text(config_path, dump_json(config_to_dict(cfg)))
    atomic_write_text(output_dir / MARKER_FILE, "run in progress or aborted\n")

    cells = plan_cells(cfg, taxonomy)

    done: dict[str, tuple[GroupRecallRow, float]] = {}
    pending: list[tuple[CellKey, int]] = []
    for key in cells:
        path = output_dir / key.path()
        if path.exists():
            done[key.path()] = _read_existing_cell(path, fingerprint, key, taxonomy)
        else:
            pending.append((key, cell_seed(cfg.seed, key.classifier.name, key.scenario, key.fold)))

    def finish(key: CellKey, result) -> None:
        """Write the cell that result() computes; any failure, of the cell
        or of its write, becomes a RunError naming the cell."""
        try:
            row, wall_time = result()
            cell = _encode(
                row, config_hash=fingerprint, results_version=RESULTS_VERSION, wall_time=wall_time
            )
            atomic_write_text(output_dir / key.path(), dump_json(cell))
        except Exception as exc:
            raise RunError(f"cell {key.ident()} failed: {exc}") from exc
        done[key.path()] = row, wall_time

    if pending:
        check_input("dataset")
        _compute_cells(cfg, load_experiment_dataset(inputs, taxonomy), pending, finish)

    ordered = sorted((row for row, _ in done.values()), key=_sort_key)
    aggregates, matrices = _assemble(cfg, taxonomy, ordered)
    timing = {
        "total_seconds": time.perf_counter() - total_start,
        "computed_cells": len(pending),
        "reused_cells": len(cells) - len(pending),
        "cell_seconds": {key.path(): done[key.path()][1] for key in cells},
        "environment": _environment(),
    }
    artifact = RunArtifact(
        config=config_identity(cfg),
        config_hash=fingerprint,
        rows=tuple(ordered),
        aggregates=aggregates,
        matrices=matrices,
        timing=timing,
    )
    atomic_write_text(output_dir / RUN_FILE, dump_json(artifact_to_dict(artifact)))
    (output_dir / MARKER_FILE).unlink(missing_ok=True)
    return artifact


def run(cfg: ExperimentConfig) -> RunArtifact:
    if cfg.output_dir is None:
        raise ConfigError("experiment has no output directory")
    return _execute(cfg, Path(cfg.output_dir))


def resume(output_dir: str | Path) -> RunArtifact:
    """Recompute whatever cells are missing under an existing output
    directory and rebuild run.json. A complete directory is reassembled
    from config.json, the taxonomy and its cell files, and its dataset is
    never read; a partial one has its dataset checked against the recorded
    sha256 and then parsed.
    """
    output_dir = Path(output_dir)
    config_path = output_dir / CONFIG_FILE
    if not config_path.exists():
        raise RunError(f"no {CONFIG_FILE} under {output_dir}, nothing to resume")
    cfg = _read_stored(config_path, config_from_dict)
    cfg = replace(cfg, output_dir=str(output_dir))
    return _execute(cfg, output_dir)


def compare_experiments(a: RunArtifact, b: RunArtifact) -> list[dict]:
    """Juxtapose generalization directions: for every unit, the omit-mode
    recall from the first artifact against the only-mode recalls every other
    unit's trainer scored on it in the second.
    """
    if a.classifier_names() != b.classifier_names():
        raise RunError(
            f"classifier sets differ: {list(a.classifier_names())} vs {list(b.classifier_names())}"
        )
    omit_matrices = [m for m in a.matrices if m.mode == MODE_OMIT]
    if not omit_matrices:
        raise RunError("first artifact has no omit-mode matrices")
    table = []
    for omit in omit_matrices:
        try:
            only = b.matrix(omit.classifier, MODE_ONLY, omit.level)
        except RunError as exc:
            raise RunError(
                f"second artifact has no only-mode matrix for {omit.classifier!r} "
                f"at level {omit.level!r}"
            ) from exc
        if omit.col_groups != only.col_groups or omit.col_labels != only.col_labels:
            raise RunError(
                f"taxonomy mismatch for {omit.classifier!r} at level {omit.level!r}"
            )
        units = [u for u in omit.row_units if u is not None]
        for unit in units:
            label = omit.col_labels[omit.col_groups.index(unit)]
            trainers = {}
            for trainer in units:
                if trainer == unit:
                    continue
                trainer_label = only.col_labels[only.col_groups.index(trainer)]
                trainers[trainer_label] = only.cell(trainer, unit)
            table.append(
                {
                    "classifier": omit.classifier,
                    "level": omit.level,
                    "unit": unit,
                    "unit_label": label,
                    "omit_recall": omit.cell(unit, unit),
                    "only_recall_by_trainer": trainers,
                }
            )
    return table
