"""Experiment execution: scheduling, persistence, resume, determinism,
cross-artifact comparison."""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from iidsbench import dataset as dataset_module
from iidsbench import runner
from iidsbench.classifiers import ClassifierSpec
from iidsbench.cli import main
from iidsbench.dataset import (
    AttackSpec,
    SyntheticConfig,
    generate_synthetic,
    taxonomy_to_csv,
    write_dataset,
)
from iidsbench.errors import ConfigError, RunError
from iidsbench.fileio import dump_json, file_sha256, read_json
from iidsbench.report import compare_to_csv
from iidsbench.runner import (
    RESULTS_VERSION,
    ExperimentConfig,
    _read_existing_cell,
    artifact_to_dict,
    cell_seed,
    compare_experiments,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    load_artifact,
    load_experiment_dataset,
    plan_cells,
    resume,
    run,
)
from iidsbench.splitting import ScenarioSpec

SYN_TWO = SyntheticConfig(
    benign_count=90,
    attacks=(AttackSpec(1, 30, (0,), 6.0), AttackSpec(2, 30, (1,), 6.0)),
    base_dim=3,
    noise_scale=1.0,
    seed=7,
)

SYN_THREE = SyntheticConfig(
    benign_count=90,
    attacks=(
        AttackSpec(1, 24, (0,), 6.0),
        AttackSpec(2, 24, (1,), 6.0),
        AttackSpec(3, 24, (2,), 6.0),
    ),
    base_dim=3,
    noise_scale=1.0,
    seed=7,
)

FOREST = ClassifierSpec("random_forest", {"n_trees": 6}, name="forest")


def small_config(out, **overrides) -> ExperimentConfig:
    base = dict(
        classifiers=(FOREST,),
        synthetic=SYN_TWO,
        k=2,
        strategy="stratified",
        seed=3,
        levels=("attack",),
        modes=("baseline", "omit", "only"),
        output_dir=str(out),
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def stripped(path: Path) -> str:
    data = read_json(path / "run.json")
    data.pop("timing")
    return json.dumps(data, sort_keys=True)


# -- config -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config("/tmp/x", classifiers=())
    with pytest.raises(ConfigError):
        small_config("/tmp/x", k=1)
    with pytest.raises(ConfigError):
        small_config("/tmp/x", modes=("bogus",))
    with pytest.raises(ConfigError):
        small_config("/tmp/x", synthetic=None)  # no dataset source at all
    with pytest.raises(ConfigError):
        small_config("/tmp/x", dataset_path="d.csv")  # two dataset sources
    with pytest.raises(ConfigError):
        small_config("/tmp/x", workers=0)
    with pytest.raises(ConfigError):
        small_config(
            "/tmp/x",
            classifiers=(FOREST, ClassifierSpec("linear_svm", name="forest")),
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 2.0),
        ("k", True),
        ("seed", -1),
        ("workers", True),
        ("levels", "attack"),
        ("levels", ()),
        ("modes", ("omit", "bogus")),
        ("output_dir", ""),
        ("strategy", ["stratified"]),
    ],
)
def test_config_field_checked(field, value):
    with pytest.raises(ConfigError, match=field):
        small_config("/tmp/x", **{field: value})


def test_config_choices_in_canonical_order():
    cfg = small_config("/tmp/x", levels=["category", "attack"], modes=["only", "omit", "only"])
    assert (cfg.levels, cfg.modes) == (("attack", "category"), ("omit", "only"))


def test_config_round_trip(tmp_path):
    cfg = small_config(tmp_path, workers=4)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert config_fingerprint(again) == config_fingerprint(cfg)


# JSON configs that state only what has no default. The digests were taken
# before the decoder built configs through their constructors, so they pin
# where the defaults live as well as what they are.
MINIMAL_CSV_CONFIG = {"dataset": {"path": "capture.csv"}, "classifiers": [{"kind": "random_forest"}]}
MINIMAL_SYNTHETIC_CONFIG = {
    "dataset": {
        "synthetic": {
            "benign_count": 40,
            "base_dim": 2,
            "attacks": [{"attack_type": 1, "count": 10, "signature_features": [0], "offset": 6}],
        }
    },
    "classifiers": [{"kind": "mlp"}],
}


def test_fingerprint_of_defaults_pinned():
    assert (
        config_fingerprint(config_from_dict(MINIMAL_CSV_CONFIG))
        == "72e494d2509ad07d9cf3a8d590e5eb35c5c48de8ca55d470abcbba19b101439d"
    )
    assert (
        config_fingerprint(config_from_dict(MINIMAL_SYNTHETIC_CONFIG))
        == "eb81642cbe5f3e3c7cb1fc93266a49ceaf5f31e7e640a4e6822d8eca5cf0ff72"
    )


def test_integer_offset_hashes_as_float():
    as_float = json.loads(json.dumps(MINIMAL_SYNTHETIC_CONFIG))
    as_float["dataset"]["synthetic"]["attacks"][0]["offset"] = 6.0
    assert config_fingerprint(config_from_dict(as_float)) == config_fingerprint(
        config_from_dict(MINIMAL_SYNTHETIC_CONFIG)
    )


def _with(config: dict, edit) -> dict:
    config = json.loads(json.dumps(config))
    edit(config)
    return config


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda c: c.update(worker=4), "worker"),
        (lambda c: c["dataset"].update(scheme="embedded-gas-pipeline"), "scheme"),
        (lambda c: c["classifiers"][0].update(hyperparameter={"n_trees": 2}), "hyperparameter"),
        (lambda c: c["dataset"]["synthetic"].update(noise=0.5), "noise"),
        (lambda c: c["dataset"]["synthetic"]["attacks"][0].update(group=1), "group"),
    ],
    ids=["top", "dataset", "classifier", "synthetic", "attack"],
)
def test_unknown_config_key_rejected(edit, key):
    base = MINIMAL_SYNTHETIC_CONFIG if key in ("noise", "group") else MINIMAL_CSV_CONFIG
    with pytest.raises(ConfigError, match=f"unknown key.*'{key}'"):
        config_from_dict(_with(base, edit))


def test_dataset_block_takes_one_source():
    both = _with(MINIMAL_SYNTHETIC_CONFIG, lambda c: c["dataset"].update(path="capture.csv"))
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(both)
    taxonomy = _with(MINIMAL_SYNTHETIC_CONFIG, lambda c: c["dataset"].update(taxonomy="t.csv"))
    with pytest.raises(ConfigError, match="no schema or taxonomy"):
        config_from_dict(taxonomy)


def test_fingerprint_ignores_workers_and_output(tmp_path):
    a = small_config(tmp_path / "a", workers=1)
    b = small_config(tmp_path / "b", workers=8)
    assert config_fingerprint(a) == config_fingerprint(b)
    c = small_config(tmp_path / "a", seed=4)
    assert config_fingerprint(a) != config_fingerprint(c)


def test_cell_seed_distinct():
    sc1 = ScenarioSpec("omit", "attack", 1)
    sc2 = ScenarioSpec("omit", "attack", 2)
    seeds = {
        cell_seed(0, "forest", sc1, 0),
        cell_seed(0, "forest", sc1, 1),
        cell_seed(0, "forest", sc2, 0),
        cell_seed(0, "svm", sc1, 0),
        cell_seed(1, "forest", sc1, 0),
    }
    assert len(seeds) == 5
    assert cell_seed(0, "forest", sc1, 0) == cell_seed(0, "forest", sc1, 0)


def test_plan_cell_counts(tmp_path):
    cfg = small_config(tmp_path, synthetic=SYN_THREE, k=2, modes=("baseline", "omit"))
    dataset = load_experiment_dataset(cfg)
    cells = plan_cells(cfg, dataset.taxonomy)
    # (1 baseline + 3 omit) scenarios x 2 folds
    assert len(cells) == 8


def test_plan_225_cells(tmp_path):
    cfg = small_config(
        tmp_path,
        synthetic=None,
        dataset_path="unused.csv",
        taxonomy_source="builtin",
        classifiers=(
            FOREST,
            ClassifierSpec("linear_svm", name="svm"),
            ClassifierSpec("mlp", name="mlp"),
        ),
        k=5,
        levels=("category",),
    )
    from iidsbench.dataset import builtin_taxonomy
    from iidsbench.splitting import enumerate_scenarios

    scenarios = enumerate_scenarios(builtin_taxonomy(), "category", cfg.modes)
    assert len(cfg.classifiers) * len(scenarios) * cfg.k == 225


# -- run --------------------------------------------------------------------


def test_run_and_artifact_shape(tmp_path):
    cfg = small_config(tmp_path / "out", synthetic=SYN_THREE, modes=("baseline", "omit"))
    artifact = run(cfg)
    # matrix with none + 3 rows, benign + 3 columns
    omit = artifact.matrix("forest", "omit", "attack")
    assert len(omit.row_labels) == 4
    assert len(omit.col_labels) == 4
    assert omit.row_labels[0] == "none"
    assert omit.col_labels[0] == "benign"
    assert len(artifact.rows) == 8
    cell_files = sorted((tmp_path / "out" / "cells").rglob("*.json"))
    assert len(cell_files) == 8
    assert not (tmp_path / "out" / "INCOMPLETE").exists()
    assert (tmp_path / "out" / "run.json").exists()


def test_cell_file_contents(tmp_path):
    cfg = small_config(tmp_path / "out", modes=("baseline",))
    run(cfg)
    cell = read_json(tmp_path / "out" / "cells" / "forest" / "baseline-attack" / "0.json")
    assert cell["format_version"] == "1"
    assert cell["config_hash"] == config_fingerprint(cfg)
    assert cell["results_version"] == RESULTS_VERSION
    assert cell["classifier"] == "forest"
    assert cell["fold"] == 0
    assert set(cell["values"]) == {"0", "1", "2"}
    assert "wall_time" in cell


def test_run_deterministic_bytes(tmp_path):
    cfg1 = small_config(tmp_path / "a")
    cfg2 = small_config(tmp_path / "b")
    run(cfg1)
    run(cfg2)
    assert stripped(tmp_path / "a") == stripped(tmp_path / "b")


def test_run_worker_count_invariant(tmp_path):
    run(small_config(tmp_path / "a", workers=1))
    run(small_config(tmp_path / "b", workers=2))
    assert stripped(tmp_path / "a") == stripped(tmp_path / "b")


WINDOWED_FORESTS = (
    FOREST,
    ClassifierSpec("random_forest", {"n_trees": 4, "window": 3}, name="forest3"),
)


def test_windowed_forest_worker_count_invariant(tmp_path):
    # each worker ranks the capture it unpickles; the trees must not notice
    cfg = small_config(tmp_path / "a", classifiers=WINDOWED_FORESTS[1:])
    run(cfg)
    run(replace(cfg, output_dir=str(tmp_path / "b"), workers=2))
    assert stripped(tmp_path / "a") == stripped(tmp_path / "b")


def test_forest_run_ranks_the_capture_once(tmp_path, monkeypatch):
    calls = []
    rank = dataset_module.rank_columns

    def counting(features):
        calls.append(features.shape)
        return rank(features)

    monkeypatch.setattr(dataset_module, "rank_columns", counting)
    cfg = small_config(tmp_path / "out", classifiers=WINDOWED_FORESTS, modes=("baseline", "omit"))
    assert run(cfg).timing["computed_cells"] == 12
    assert calls == [(150, 3)]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, *BLAS_THREAD_VARIABLES])
def test_import_defaults_to_one_blas_thread(preset):
    # A fresh process that imports iidsbench gets one BLAS thread unless a
    # thread variable is already set; then its environment stays as it was.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if preset is not None:
        env[preset] = "3"
    src = str(Path(runner.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import json, os, iidsbench; print(json.dumps(dict(os.environ)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    expected = env if preset is not None else {**env, "OPENBLAS_NUM_THREADS": "1"}
    assert json.loads(proc.stdout) == expected


def test_baseline_rows_equal_across_mode_sets(tmp_path):
    full = run(small_config(tmp_path / "full"))
    base_only = run(small_config(tmp_path / "base", modes=("baseline",)))
    a = full.matrix("forest", "baseline", "attack")
    b = base_only.matrix("forest", "baseline", "attack")
    assert a.cells == b.cells


def test_omit_rows_have_defined_target(tmp_path):
    artifact = run(small_config(tmp_path / "out"))
    omit = artifact.matrix("forest", "omit", "attack")
    for unit in (1, 2):
        assert omit.cell(unit, unit) is not None
        row_idx = omit.row_units.index(unit)
        col_idx = omit.col_groups.index(unit)
        assert omit.defined_folds[row_idx][col_idx] >= 1


def test_resume_recomputes_only_missing(tmp_path):
    out = tmp_path / "out"
    run(small_config(out))
    before = stripped(out)
    victim = out / "cells" / "forest" / "omit-attack-1" / "1.json"
    kept = out / "cells" / "forest" / "baseline-attack" / "0.json"
    kept_mtime = kept.stat().st_mtime_ns
    victim.unlink()
    artifact = resume(out)
    assert stripped(out) == before
    assert victim.exists()
    assert kept.stat().st_mtime_ns == kept_mtime  # untouched cells not rewritten
    assert artifact.timing["computed_cells"] == 1
    assert artifact.timing["reused_cells"] == 9


def without_timing(path: Path) -> str:
    """The text of run.json up to its last key, timing."""
    text = (path / "run.json").read_text()
    return text[: text.index('\n  "timing": ')]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interrupted_run_resumes_to_same_results(tmp_path, monkeypatch, seed):
    reference = tmp_path / "reference"
    run(small_config(reference))
    total = len(list((reference / "cells").rglob("*.json")))
    finished = random.Random(seed).randrange(total)
    compute = runner._compute_cell
    budget = 0

    def interrupted(*args):
        nonlocal budget
        if budget == 0:
            raise KeyboardInterrupt
        budget -= 1
        return compute(*args)

    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        budget = finished
        monkeypatch.setattr(runner, "_compute_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(small_config(out))
        monkeypatch.setattr(runner, "_compute_cell", compute)
        assert len(list((out / "cells").rglob("*.json"))) == finished
        config = read_json(out / "config.json")
        config["workers"] = workers
        (out / "config.json").write_text(json.dumps(config))
        assert resume(out).timing["computed_cells"] == total - finished
        assert without_timing(out) == without_timing(reference)


def test_interrupted_pool_run_cancels_queued_cells(tmp_path, monkeypatch):
    # Ctrl-C while a two-worker run writes its first cell must cancel the
    # queued cells rather than compute them and throw them away.
    submitted = []

    class RecordingPool(runner.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(super().submit(*args, **kwargs))
            return submitted[-1]

    out = tmp_path / "out"
    write = runner.atomic_write_text

    def interrupted_write(path, text):
        if runner.CELLS_DIR in Path(path).relative_to(out).parts:
            raise KeyboardInterrupt
        write(path, text)

    three = dict(synthetic=SYN_THREE, k=3)
    reference = tmp_path / "reference"
    run(small_config(reference, **three))
    monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(runner, "atomic_write_text", interrupted_write)
    with pytest.raises(KeyboardInterrupt):
        run(small_config(out, workers=2, **three))
    monkeypatch.undo()
    assert len(submitted) >= 20
    assert any(future.cancelled() for future in submitted)
    assert (out / "INCOMPLETE").exists()
    resume(out)
    assert without_timing(out) == without_timing(reference)


def test_second_interrupt_stops_pool_workers(tmp_path):
    # Two quick SIGINTs to a two-worker `iidsbench run` must end it, workers
    # included, and leave a directory that resumes to the serial results.
    attacks = tuple(AttackSpec(t, 200, (t - 1,), 6.0) for t in (1, 2, 3, 4))
    cfg = small_config(
        tmp_path / "pool",
        synthetic=SyntheticConfig(2000, attacks, base_dim=4, seed=17),
        classifiers=(ClassifierSpec("random_forest", {"n_trees": 16}, name="forest"),),
        k=3,
        workers=2,
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    src = str(Path(runner.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "iidsbench.cli", "run", "--config", str(config)]
    stderr = tmp_path / "stderr.txt"
    with stderr.open("w") as sink:
        proc = subprocess.Popen(
            command,
            env={**os.environ, "PYTHONPATH": path},
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=sink,
        )

    def said() -> str:
        return f"stderr of the run:\n{stderr.read_text()}"

    try:
        cells = Path(cfg.output_dir) / "cells"
        deadline = time.monotonic() + 60
        while not any(cells.rglob("*.json")) and proc.poll() is None:
            assert time.monotonic() < deadline, f"no cell written within 60 s\n{said()}"
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        time.sleep(0.05)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired as exc:
            pytest.fail(f"{exc}\n{said()}")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the workers share the run's group
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == -signal.SIGINT, said()
    assert (Path(cfg.output_dir) / "INCOMPLETE").exists(), said()
    resume(cfg.output_dir)
    run(replace(cfg, output_dir=str(tmp_path / "serial"), workers=1))
    assert without_timing(Path(cfg.output_dir)) == without_timing(tmp_path / "serial")


def test_resume_complete_directory_trains_nothing(tmp_path):
    out = tmp_path / "out"
    run(small_config(out))
    mtimes = {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("*.json")}
    artifact = resume(out)
    assert artifact.timing["computed_cells"] == 0
    for p, stamp in mtimes.items():
        assert p.stat().st_mtime_ns == stamp


def _refuse(*args, **kwargs):
    raise AssertionError("a complete resume must not load the dataset")


def test_complete_resume_loads_no_dataset(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run(small_config(out))
    before = stripped(out)
    for name in ("parse_dataset", "generate_synthetic", "partition_folds"):
        monkeypatch.setattr(runner, name, _refuse)
    artifact = resume(out)
    assert artifact.timing["computed_cells"] == 0
    assert stripped(out) == before


@pytest.fixture
def csv_run(tmp_path):
    """A finished run over a CSV, a taxonomy CSV and a schema JSON: the
    output directory and the three input paths."""
    dataset = generate_synthetic(SYN_TWO)
    data, tax, schema = tmp_path / "d.csv", tmp_path / "tax.csv", tmp_path / "schema.json"
    write_dataset(dataset, data)
    tax.write_text(taxonomy_to_csv(dataset.taxonomy))
    features = [{"name": name, "kind": "numeric"} for name in dataset.schema.feature_names]
    schema.write_text(json.dumps({"features": features}))
    out = tmp_path / "out"
    cfg = small_config(
        out,
        synthetic=None,
        dataset_path=str(data),
        taxonomy_source=str(tax),
        schema_source=str(schema),
    )
    run(cfg)
    return out, data, tax, schema


def test_inputs_recorded_beside_config(csv_run):
    out, data, tax, schema = csv_run
    recorded = read_json(out / runner.INPUTS_FILE)
    assert recorded["format_version"] == "1"
    assert recorded["sha256"] == {
        "dataset": file_sha256(data),
        "taxonomy": file_sha256(tax),
        "schema": file_sha256(schema),
    }
    assert recorded["path"] == {"dataset": str(data), "taxonomy": str(tax), "schema": str(schema)}
    assert "sha256" not in read_json(out / "config.json")


def test_resume_from_another_working_directory(tmp_path, monkeypatch, capsys):
    # relative input paths, as in the README Quickstart, resolve against
    # the first run's working directory, whose absolute paths inputs.json
    # records; a directory without them reads cfg's from the current one
    dataset = generate_synthetic(SYN_TWO)
    write_dataset(dataset, tmp_path / "d.csv")
    (tmp_path / "tax.csv").write_text(taxonomy_to_csv(dataset.taxonomy))
    features = [{"name": name, "kind": "numeric"} for name in dataset.schema.feature_names]
    (tmp_path / "schema.json").write_text(json.dumps({"features": features}))
    cfg = small_config(
        "out",
        synthetic=None,
        dataset_path="d.csv",
        taxonomy_source="tax.csv",
        schema_source="schema.json",
    )
    monkeypatch.chdir(tmp_path)
    run(cfg)
    out = tmp_path / "out"
    before = stripped(out)
    assert read_json(out / "config.json")["dataset"]["path"] == "d.csv"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    cell = out / "cells" / "forest" / "omit-attack-1" / "0.json"
    cell.unlink()
    assert main(["resume", str(out)]) == 0
    assert cell.exists() and stripped(out) == before
    recorded = read_json(out / runner.INPUTS_FILE)
    del recorded["path"]
    (out / runner.INPUTS_FILE).write_text(dump_json(recorded))
    capsys.readouterr()
    assert main(["resume", str(out)]) == 3
    assert "cannot read taxonomy file tax.csv" in capsys.readouterr().err
    monkeypatch.chdir(tmp_path)
    cell.unlink()
    assert main(["resume", str(out)]) == 0
    assert cell.exists() and stripped(out) == before


def test_complete_resume_needs_no_csv(csv_run, tmp_path):
    out, data, _, _ = csv_run
    before = stripped(out)
    data.rename(tmp_path / "moved.csv")
    artifact = resume(out)
    assert artifact.timing["computed_cells"] == 0
    assert stripped(out) == before


def test_partial_resume_without_csv_names_it(csv_run, tmp_path, capsys):
    out, data, _, _ = csv_run
    data.rename(tmp_path / "moved.csv")
    (out / "cells" / "forest" / "omit-attack-1" / "1.json").unlink()
    mtimes = {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("*.json")}
    assert main(["resume", str(out)]) == 3
    assert str(data) in capsys.readouterr().err
    assert {p: p.stat().st_mtime_ns for p in (out / "cells").rglob("*.json")} == mtimes


def test_edited_csv_fails_partial_resume(csv_run, capsys):
    out, data, _, _ = csv_run
    text = data.read_text()
    data.write_text(text + text.splitlines()[1] + "\n")  # one row more
    assert main(["resume", str(out)]) == 0  # complete: the capture is not read
    (out / "cells" / "forest" / "baseline-attack" / "0.json").unlink()
    capsys.readouterr()
    assert main(["resume", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(data) in err and "changed" in err
    assert not (out / "cells" / "forest" / "baseline-attack" / "0.json").exists()


@pytest.mark.parametrize("role", ["taxonomy", "schema"])
def test_edited_taxonomy_or_schema_fails_complete_resume(csv_run, capsys, role):
    out, _, tax, schema = csv_run
    path = tax if role == "taxonomy" else schema
    path.write_text(path.read_text() + "\n")
    assert main(["resume", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "changed" in err


def test_untouched_inputs_resume(csv_run):
    out, _, _, _ = csv_run
    before = stripped(out)
    (out / "cells" / "forest" / "only-attack-2" / "0.json").unlink()
    artifact = resume(out)
    assert artifact.timing["computed_cells"] == 1
    assert stripped(out) == before


def test_run_with_missing_input_writes_nothing(tmp_path):
    out = tmp_path / "out"
    cfg = small_config(out, synthetic=None, dataset_path=str(tmp_path / "absent.csv"))
    with pytest.raises(RunError, match="cannot read dataset file .*absent.csv"):
        run(cfg)
    assert list(out.iterdir()) == []


def test_taxonomy_that_fails_to_load_leaves_no_config(tmp_path, capsys):
    # the taxonomy loads before config.json is written, so once it is fixed
    # the same run into the same directory starts afresh
    dataset = generate_synthetic(SYN_TWO)
    data, tax, out = tmp_path / "d.csv", tmp_path / "tax.csv", tmp_path / "out"
    write_dataset(dataset, data)
    cfg = small_config(out, synthetic=None, dataset_path=str(data), taxonomy_source=str(tax))
    config = tmp_path / "config.json"
    config.write_text(dump_json(config_to_dict(cfg)), encoding="utf-8")
    good = taxonomy_to_csv(dataset.taxonomy)
    tax.write_text(good + "attack,3,b,9,\n")
    assert main(["run", "--config", str(config), "--out", str(out)]) == 3
    assert "attack type 3 references missing category 9" in capsys.readouterr().err
    assert not (out / "config.json").exists()
    tax.write_text(good)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    fresh = tmp_path / "fresh"
    run(replace(cfg, output_dir=str(fresh)))
    assert stripped(out) == stripped(fresh)


def test_directory_without_hashes_refused(csv_run, capsys):
    out, data, _, _ = csv_run
    before = (out / "run.json").read_bytes()
    (out / runner.INPUTS_FILE).unlink()
    data.write_text(data.read_text() + data.read_text().splitlines()[1] + "\n")
    capsys.readouterr()
    assert main(["resume", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and runner.INPUTS_FILE in err
    assert not (out / runner.INPUTS_FILE).exists()
    assert (out / "run.json").read_bytes() == before


def test_timing_records_environment(tmp_path):
    timing = run(small_config(tmp_path / "out")).timing
    assert timing["environment"] == {
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpus": len(os.sched_getaffinity(0)),
    }


def test_resume_without_config(tmp_path):
    with pytest.raises(RunError, match="config"):
        resume(tmp_path)


def test_resume_edited_config_mismatch(tmp_path):
    out = tmp_path / "out"
    run(small_config(out))
    cfg_path = out / "config.json"
    data = read_json(cfg_path)
    data["seed"] = 99
    cfg_path.write_text(json.dumps(data))
    with pytest.raises(RunError, match="different config"):
        resume(out)


def _set_results_version(path: Path, version: str | None) -> None:
    """Rewrite a cell file with another results_version, or without one."""
    cell = read_json(path)
    if version is None:
        del cell["results_version"]
    else:
        cell["results_version"] = version
    path.write_text(dump_json(cell), encoding="utf-8")


@pytest.mark.parametrize("version", ["1", None], ids=["v1", "absent"])
@pytest.mark.parametrize("command", ["resume", "run"])
def test_cell_of_another_results_version_refused(tmp_path, capsys, version, command):
    out = tmp_path / "out"
    cfg = small_config(out)
    run(cfg)
    before = without_timing(out)
    edited = out / "cells" / "forest" / "baseline-attack" / "0.json"
    original = edited.read_bytes()
    _set_results_version(edited, version)
    missing = out / "cells" / "forest" / "omit-attack-1" / "1.json"
    missing.unlink()
    message = (
        "cell forest/baseline-attack/fold 0 holds results version '1', "
        f"but this harness computes results version '{RESULTS_VERSION}'"
    )
    with pytest.raises(RunError) as refused:
        resume(out) if command == "resume" else run(cfg)
    assert message in str(refused.value)
    assert main(["resume", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not missing.exists()  # refused before any cell was computed
    # restored to the current version, the directory resumes to the same run.json
    edited.write_bytes(original)
    assert resume(out).timing["computed_cells"] == 1
    assert without_timing(out) == before


# Edits to the group values of stored cells: (scenario, folds edited, edit).
GROUP_EDITS = {
    "one-fold-lacks-a-group": ("omit-attack-1", (0,), lambda values: values.pop("3")),
    "every-fold-lacks-a-group": ("omit-attack-1", (0, 1), lambda values: values.pop("3")),
    "unknown-group": ("omit-attack-2", (0, 1), lambda values: values.update({"9": 0.5})),
}


@pytest.mark.parametrize("case", GROUP_EDITS)
def test_cell_with_other_groups_refused(tmp_path, capsys, case):
    out = tmp_path / "out"
    run(small_config(out, synthetic=SYN_THREE))
    before = (out / "run.json").read_bytes()
    scenario, folds, edit = GROUP_EDITS[case]
    paths = [out / "cells" / "forest" / scenario / f"{fold}.json" for fold in folds]
    for path in paths:
        cell = read_json(path)
        edit(cell["values"])
        path.write_text(dump_json(cell), encoding="utf-8")
    capsys.readouterr()
    assert main(["resume", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"cell file {paths[0]} holds groups" in err
    assert (out / "run.json").read_bytes() == before


def test_run_into_foreign_directory_rejected(tmp_path):
    out = tmp_path / "out"
    run(small_config(out))
    with pytest.raises(RunError, match="different experiment"):
        run(small_config(out, seed=4))


def test_failed_cell_names_identity_and_leaves_marker(tmp_path):
    # omitting the only attack type leaves a single-class train set
    lone = SyntheticConfig(
        benign_count=40, attacks=(AttackSpec(1, 10, (0,), 6.0),), base_dim=2, seed=1
    )
    out = tmp_path / "out"
    cfg = small_config(out, synthetic=lone, modes=("omit",))
    with pytest.raises(RunError) as err:
        run(cfg)
    assert "omit-attack-1" in str(err.value)
    assert "forest" in str(err.value)
    assert (out / "INCOMPLETE").exists()


def test_parallel_failure_names_cell_and_keeps_readable_cells(tmp_path):
    # With one attack-2 row, omitting attack 1 leaves the fold that tests
    # that row with no malicious train rows; every other cell is well posed.
    rare = SyntheticConfig(
        benign_count=60,
        attacks=(AttackSpec(1, 20, (0,), 6.0), AttackSpec(2, 1, (1,), 6.0)),
        base_dim=2,
        seed=1,
    )
    out = tmp_path / "out"
    cfg = small_config(out, synthetic=rare, modes=("baseline", "omit"), workers=2)
    with pytest.raises(RunError, match=r"cell forest/omit-attack-1/fold \d failed: degenerate"):
        run(cfg)
    assert (out / "INCOMPLETE").exists()
    fingerprint = config_fingerprint(cfg)
    stored = 0
    taxonomy = load_experiment_dataset(cfg).taxonomy
    for key in plan_cells(cfg, taxonomy):
        if (out / key.path()).exists():
            row, _ = _read_existing_cell(out / key.path(), fingerprint, key, taxonomy)
            assert row.classifier == "forest"
            stored += 1
    assert stored == len(list((out / "cells").rglob("*.json")))


def test_load_artifact_round_trip(tmp_path):
    out = tmp_path / "out"
    artifact = run(small_config(out))
    again = load_artifact(out)
    assert again.config_hash == artifact.config_hash
    assert len(again.rows) == len(artifact.rows)
    assert [asdict(m) for m in again.matrices] == [asdict(m) for m in artifact.matrices]
    # decoding rows, aggregates and matrices and encoding them again
    # gives back run.json byte for byte
    assert dump_json(artifact_to_dict(again)) == (out / "run.json").read_text()
    with pytest.raises(RunError):
        load_artifact(tmp_path / "nowhere")


# -- compare ----------------------------------------------------------------


def test_compare_same_artifact(tmp_path):
    artifact = run(small_config(tmp_path / "out"))
    table = compare_experiments(artifact, artifact)
    assert len(table) == 2  # one row per unit
    by_unit = {r["unit"]: r for r in table}
    omit = artifact.matrix("forest", "omit", "attack")
    only = artifact.matrix("forest", "only", "attack")
    assert by_unit[1]["omit_recall"] == omit.cell(1, 1)
    assert by_unit[1]["only_recall_by_trainer"] == {"2.1": only.cell(2, 1)}
    text = compare_to_csv(table)
    assert text.startswith("classifier,level,unit,unit_label,omit_recall,trainer,only_recall")


def test_compare_classifier_mismatch(tmp_path):
    a = run(small_config(tmp_path / "a"))
    other = ClassifierSpec("random_forest", {"n_trees": 6}, name="other")
    b = run(small_config(tmp_path / "b", classifiers=(other,)))
    with pytest.raises(RunError, match="classifier"):
        compare_experiments(a, b)


def test_compare_taxonomy_mismatch(tmp_path):
    a = run(small_config(tmp_path / "a"))
    b = run(small_config(tmp_path / "b", synthetic=SYN_THREE))
    with pytest.raises(RunError, match="taxonomy"):
        compare_experiments(a, b)


def test_compare_missing_only_mode(tmp_path):
    a = run(small_config(tmp_path / "a"))
    b = run(small_config(tmp_path / "b", modes=("baseline", "omit")))
    with pytest.raises(RunError, match="only"):
        compare_experiments(a, b)
