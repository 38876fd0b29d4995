"""Benchmark harness for measuring whether industrial intrusion detectors
generalize to attack types held out of training.

The workflow: load or synthesize a labeled dataset, enumerate scenario
variants of a k-fold split (plain baseline, leave-one-unit-out, and
train-on-one-unit), train the bundled from-scratch classifiers on each
variant, and aggregate per-group recall into heatmap matrices.
"""

import os

# One BLAS thread per process unless the user chose a count: a run's
# parallelism comes from its workers, and OpenBLAS's default pool only adds
# CPU time and memory, and oversubscribes the cores once workers exceed 1.
# OpenBLAS reads the variable when numpy first loads it, so this precedes
# every import of numpy; spawned workers inherit it with the environment.
if not os.environ.keys() & {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .classifiers import ClassifierSpec, TrainedModel, train
from .dataset import (
    AttackSpec,
    AttackTaxonomy,
    Dataset,
    FeatureSchema,
    StatsSummary,
    SyntheticConfig,
    builtin_taxonomy,
    dataset_stats,
    generate_synthetic,
    load_taxonomy,
    parse_dataset,
    validate_dataset,
    write_dataset,
)
from .errors import (
    ConfigError,
    DatasetError,
    HarnessError,
    ReportError,
    RunError,
    SplitError,
    TaxonomyError,
    TrainError,
)
from .metrics import GroupRecallRow, aggregate_folds, confusion, per_group_recall
from .report import MetricsMatrix, precision_report
from .runner import (
    ExperimentConfig,
    RunArtifact,
    compare_experiments,
    load_artifact,
    resume,
    run,
)
from .splitting import (
    FoldPlan,
    ScenarioSpec,
    SplitInstance,
    enumerate_scenarios,
    materialize_split,
    partition_folds,
)

__version__ = "0.1.0"

__all__ = [
    "AttackSpec",
    "AttackTaxonomy",
    "ClassifierSpec",
    "ConfigError",
    "Dataset",
    "DatasetError",
    "ExperimentConfig",
    "FeatureSchema",
    "FoldPlan",
    "GroupRecallRow",
    "HarnessError",
    "MetricsMatrix",
    "ReportError",
    "RunArtifact",
    "RunError",
    "ScenarioSpec",
    "SplitError",
    "SplitInstance",
    "StatsSummary",
    "SyntheticConfig",
    "TaxonomyError",
    "TrainError",
    "TrainedModel",
    "aggregate_folds",
    "builtin_taxonomy",
    "compare_experiments",
    "confusion",
    "dataset_stats",
    "enumerate_scenarios",
    "generate_synthetic",
    "load_artifact",
    "load_taxonomy",
    "materialize_split",
    "parse_dataset",
    "partition_folds",
    "per_group_recall",
    "precision_report",
    "resume",
    "run",
    "train",
    "validate_dataset",
    "write_dataset",
]
