"""Spans and counts recorded around the harness's public functions.

A `Tracer` replaces module attributes with wrappers. Each wrapped call records
a span (name, start, end, parent) plus its counts, kept in memory until the
traced process writes them out. The harness itself is unchanged: the wrappers
sit on the names its modules call through.

`summarize` turns the spans of a traced run and a traced resume into the
per-layer metrics. Time metrics are self times (a span minus its children), so
the layers and `runner.self_s` add up to the traced run's wall time.
"""

from __future__ import annotations

import functools
import statistics
import time

MB = 1024 * 1024


def peak_rss_mb() -> float:
    """Peak resident set of this process so far. VmHWM starts afresh at exec;
    ru_maxrss would start from the RSS of the process that forked this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None, hwm: bool = False, skip=None) -> None:
        """Trace calls through `owner.attr`. `counts(result, *args)` returns
        extra span fields; `hwm` records the rise in peak RSS across the call;
        `skip(*args)` true lets a call through untraced.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if skip is not None and skip(*args):
                return original(*args, **kwargs)
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            before = peak_rss_mb() if hwm else 0.0
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if hwm:
                span["hwm_mb"] = peak_rss_mb() - before
            if counts is not None:
                span.update(counts(result, *args))
            return result

        setattr(owner, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap every layer the runner reaches, at the names it calls them by."""
    from iidsbench import classifiers, runner
    from iidsbench.dataset import Dataset

    tracer.wrap(runner, "run", "runner.run", counts=lambda a, *_: {"cells": a.timing["computed_cells"]})
    tracer.wrap(runner, "resume", "runner.resume")
    tracer.wrap(runner, "parse_dataset", "dataset.parse", counts=lambda d, *_: {"rows": len(d)}, hwm=True)
    tracer.wrap(runner, "load_taxonomy", "dataset.taxonomy")
    # First builds only: later calls return the cached array.
    tracer.wrap(Dataset, "feature_matrix", "dataset.matrix", skip=lambda d: "_matrix" in d.__dict__)
    tracer.wrap(Dataset, "labels", "dataset.matrix", skip=lambda d: "_labels" in d.__dict__)
    tracer.wrap(runner, "partition_folds", "splitting.partition")
    tracer.wrap(runner, "materialize_split", "splitting.split")
    tracer.wrap(runner, "train", "classifiers.train")
    tracer.wrap(runner, "predict_dataset", "classifiers.predict")
    tracer.wrap(classifiers, "fit_preprocessor", "base.fit")
    tracer.wrap(
        classifiers,
        "transform",
        "base.transform",
        counts=lambda out, *_: {"bytes": out.shape[0] * out.shape[1] * out.itemsize},
        hwm=True,
    )
    tracer.wrap(
        classifiers,
        "train_random_forest",
        "forest.train",
        counts=lambda trees, *_: {"trees": len(trees), "nodes": sum(t.feature.size for t in trees)},
    )
    tracer.wrap(classifiers, "forest_scores", "forest.score")
    tracer.wrap(
        classifiers,
        "train_mlp",
        "mlp.train",
        counts=lambda _, hyper, X, *rest: {"samples": len(X) * hyper["epochs"]},
    )
    tracer.wrap(classifiers, "mlp_scores", "mlp.score")
    tracer.wrap(
        classifiers,
        "train_linear_svm",
        "svm.train",
        counts=lambda _, hyper, X, *rest: {"steps": len(X) * hyper["epochs"]},
    )
    tracer.wrap(classifiers, "svm_scores", "svm.score")
    tracer.wrap(
        runner,
        "per_group_recall",
        "metrics.recall",
        counts=lambda _, flags, records, *rest: {"records": len(records)},
    )
    tracer.wrap(runner, "aggregate_folds", "metrics.aggregate")
    tracer.wrap(runner, "build_matrix", "report.matrix")
    tracer.wrap(
        runner,
        "atomic_write_text",
        "fileio.write",
        counts=lambda _, path, text: {"bytes": len(text.encode("utf-8"))},
    )
    tracer.wrap(runner, "read_json", "fileio.read")


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _per_second(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def summarize(
    run_spans: list[dict],
    resume_spans: list[dict],
    untraced_run_s: float,
    untraced_cell_seconds: list[float],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit). All come from the traced run
    except fileio.read_*, which come from the traced resume: a fresh run reads
    no file the resume does not.
    """
    own = self_times(run_spans)

    def sum_self(name: str) -> float:
        return sum(t for s, t in zip(run_spans, own) if s["name"] == name)

    def sum_field(name: str, field: str, spans=run_spans) -> float:
        return sum(s.get(field, 0) for s in spans if s["name"] == name)

    def calls(name: str, spans=run_spans) -> int:
        return sum(1 for s in spans if s["name"] == name)

    root = next(i for i, s in enumerate(run_spans) if s["name"] == "runner.run")
    run_s = run_spans[root]["end"] - run_spans[root]["start"]
    parse_wall = sum(s["end"] - s["start"] for s in run_spans if s["name"] == "dataset.parse")
    resume_own = self_times(resume_spans)
    forest_s, trees = sum_self("forest.train"), sum_field("forest.train", "trees")
    mlp_s, svm_s = sum_self("mlp.train"), sum_self("svm.train")
    return {
        "dataset.parse_s": (sum_self("dataset.parse"), "s"),
        "dataset.rows_per_s": (_per_second(sum_field("dataset.parse", "rows"), parse_wall), "1/s"),
        "dataset.load_hwm_mb": (sum_field("dataset.parse", "hwm_mb"), "MB"),
        "dataset.matrix_s": (sum_self("dataset.matrix"), "s"),
        "splitting.partition_s": (sum_self("splitting.partition"), "s"),
        "splitting.split_s": (sum_self("splitting.split"), "s"),
        "splitting.splits": (calls("splitting.split"), "count"),
        "classifiers.train_self_s": (sum_self("classifiers.train"), "s"),
        "classifiers.predict_self_s": (sum_self("classifiers.predict"), "s"),
        "base.fit_s": (sum_self("base.fit"), "s"),
        "base.transform_s": (sum_self("base.transform"), "s"),
        "base.transforms": (calls("base.transform"), "count"),
        "base.transform_mb": (sum_field("base.transform", "bytes") / MB, "MB"),
        "base.transform_hwm_mb": (sum_field("base.transform", "hwm_mb"), "MB"),
        "forest.train_s": (forest_s, "s"),
        "forest.trees": (trees, "count"),
        "forest.nodes": (sum_field("forest.train", "nodes"), "count"),
        "forest.s_per_tree": (forest_s / trees if trees else 0.0, "s"),
        "forest.score_s": (sum_self("forest.score"), "s"),
        "mlp.train_s": (mlp_s, "s"),
        "mlp.samples_per_s": (_per_second(sum_field("mlp.train", "samples"), mlp_s), "1/s"),
        "mlp.score_s": (sum_self("mlp.score"), "s"),
        "svm.train_s": (svm_s, "s"),
        "svm.steps_per_s": (_per_second(sum_field("svm.train", "steps"), svm_s), "1/s"),
        "svm.score_s": (sum_self("svm.score"), "s"),
        "metrics.recall_s": (sum_self("metrics.recall"), "s"),
        "metrics.records_scored": (sum_field("metrics.recall", "records"), "count"),
        "metrics.aggregate_s": (sum_self("metrics.aggregate"), "s"),
        "report.matrix_s": (sum_self("report.matrix"), "s"),
        "fileio.write_s": (sum_self("fileio.write"), "s"),
        "fileio.files_written": (calls("fileio.write"), "count"),
        "fileio.bytes_written": (sum_field("fileio.write", "bytes"), "B"),
        "fileio.read_s": (
            sum(t for s, t in zip(resume_spans, resume_own) if s["name"] == "fileio.read"),
            "s",
        ),
        "fileio.files_read": (calls("fileio.read", resume_spans), "count"),
        "runner.cells": (run_spans[root]["cells"], "count"),
        "runner.cell_s_p50": (statistics.median(untraced_cell_seconds), "s"),
        "runner.self_s": (own[root], "s"),
        "runner.trace_overhead_s": (run_s - untraced_run_s, "s"),
    }
