"""CLI subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from iidsbench.cli import main
from iidsbench.fileio import read_json

from conftest import matrix_from_csv

SYN_CONFIG = {
    "benign_count": 90,
    "base_dim": 3,
    "noise_scale": 1.0,
    "seed": 7,
    "attacks": [
        {"attack_type": 1, "count": 30, "signature_features": [0], "offset": 6.0},
        {"attack_type": 2, "count": 30, "signature_features": [1], "offset": 6.0},
    ],
}


def experiment_config(workers: int = 1) -> dict:
    return {
        "dataset": {"synthetic": SYN_CONFIG},
        "k": 2,
        "strategy": "stratified",
        "seed": 3,
        "levels": ["attack"],
        "modes": ["baseline", "omit", "only"],
        "workers": workers,
        "classifiers": [
            {
                "name": "forest",
                "kind": "random_forest",
                "seed": 0,
                "hyperparameters": {"n_trees": 6},
            }
        ],
    }


@pytest.fixture
def synth_files(tmp_path):
    cfg = tmp_path / "syn.json"
    cfg.write_text(json.dumps(SYN_CONFIG))
    data = tmp_path / "data.csv"
    assert main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    return data, data.with_name("data.taxonomy.csv")


@pytest.fixture
def finished_run(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(experiment_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["nonsense"]) == 2
    assert main(["run"]) == 2  # missing --config
    assert main(["run", "--config", "x.json", "--bogus"]) == 2
    assert main(["report", "somewhere", "--format", "pdf"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("validate", "stats", "synth", "run", "resume", "report", "compare"):
        assert f"\n    {name} " in out, name


def test_validate_ok(synth_files, capsys):
    data, tax = synth_files
    code = main(["validate", str(data), "--taxonomy", str(tax)])
    assert code == 0
    assert "no findings" in capsys.readouterr().out


def test_validate_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("f0,attack_type\n1.0,0\nnot-a-number,1\n")
    code = main(["validate", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_validate_rejects_non_finite_values(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("f0,f1,attack_type\nnan,1,0\n2.0,inf,1\n3.0,2,0\n4,1,1\n")
    assert main(["validate", str(bad)]) == 1
    assert "line 2: column 'f0': non-finite numeric value nan" in capsys.readouterr().err


def test_validate_huge_taxonomy_id_exit_1(tmp_path, capsys):
    tax = tmp_path / "tax.csv"
    tax.write_text(
        "kind,id,name,category,abbreviation\ncategory,1,c,,C\nattack,1000000000000,a,1,\n"
    )
    data = tmp_path / "d.csv"
    data.write_text("f0,attack_type\n1.0,0\n2.0,1\n")
    assert main(["validate", str(data), "--taxonomy", str(tax)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1000000000000" in err


def test_validate_findings_exit_1(tmp_path, capsys):
    bad = tmp_path / "allbenign.csv"
    bad.write_text("f0,attack_type\n1.0,0\n2.0,0\n")
    code = main(["validate", str(bad)])
    assert code == 1
    out = capsys.readouterr().out
    assert "no malicious" in out


def test_stats_output(synth_files, capsys):
    data, tax = synth_files
    assert main(["stats", str(data), "--taxonomy", str(tax)]) == 0
    out = capsys.readouterr().out
    assert "total records: 150" in out
    assert "attack types: 2" in out


def test_stats_missing_file_exit_3(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "nope.csv")]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "run"])
@pytest.mark.parametrize("fault", ["missing", "malformed"])
def test_unreadable_config_exit_3(tmp_path, capsys, command, fault):
    cfg = tmp_path / "cfg.json"
    if fault == "malformed":
        cfg.write_text('{"k": 2,')
    out = tmp_path / ("data.csv" if command == "synth" else "out")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err
    assert ("not valid JSON" in err) == (fault == "malformed")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "run"])
@pytest.mark.parametrize("body", ["[1, 2]", '"config"', "7"])
def test_config_not_an_object_exit_3(tmp_path, capsys, command, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(body)
    out = tmp_path / ("data.csv" if command == "synth" else "out")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_unknown_config_key_exit_3(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    config = {"dataset": {"path": "capture.csv"}, "classifiers": [{"kind": "mlp"}], "worker": 4}
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'worker'" in err
    assert not out.exists()


def _second_classifier(config: dict) -> None:
    config["classifiers"][0]["name"] = 5
    config["classifiers"].append({"name": "svm", "kind": "linear_svm"})


def _in_attack(edit):
    return lambda syn: edit(syn["attacks"][0])


# Config values that must fail before anything is written: (edit, the field
# the error names, the config the edit applies to). Synthetic edits apply to
# SYN_CONFIG, through synth and through run's embedded synthetic block.
BAD_CONFIG_VALUES = {
    "k-float": (lambda c: c.update(k=2.5), "k", "run"),
    "seed-float": (lambda c: c.update(seed=1.5), "seed", "run"),
    "workers-float": (lambda c: c.update(workers=2.0), "workers", "run"),
    "path-int": (lambda c: c.update(dataset={"path": 5}), "dataset_path", "run"),
    "taxonomy-int": (
        lambda c: c.update(dataset={"path": "capture.csv", "taxonomy": 5}),
        "taxonomy_source",
        "run",
    ),
    "name-escapes": (
        lambda c: c["classifiers"][0].update(name="../../../escaped"),
        "classifier name",
        "run",
    ),
    "name-int": (_second_classifier, "classifier name", "run"),
    "classifiers-int": (lambda c: c.update(classifiers=5), "classifiers", "run"),
    "benign-count-float": (lambda s: s.update(benign_count=200.7), "benign_count", "synthetic"),
    "signature-string": (
        _in_attack(lambda a: a.update(signature_features="01")),
        "signature_features",
        "synthetic",
    ),
    "attack-type-float": (
        _in_attack(lambda a: a.update(attack_type=1.9)),
        "attack_type",
        "synthetic",
    ),
    "synthetic-seed-bool": (lambda s: s.update(seed=True), "synthetic seed", "synthetic"),
    "attack-type-huge": (
        _in_attack(lambda a: a.update(attack_type=10**12)),
        "attack type id",
        "synthetic",
    ),
}


@pytest.mark.parametrize(
    "case, command",
    [
        (case, command)
        for case, (_, _, target) in BAD_CONFIG_VALUES.items()
        for command in (["run"] if target == "run" else ["synth", "run"])
    ],
)
def test_bad_config_value_exit_3(tmp_path, capsys, case, command):
    edit, field, target = BAD_CONFIG_VALUES[case]
    config = json.loads(json.dumps(experiment_config()))
    edit(config if target == "run" else config["dataset"]["synthetic"])
    if command == "synth":
        config = config["dataset"]["synthetic"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    # two levels down, so that an escaping classifier name would land in tmp_path
    out = tmp_path / "a" / ("data.csv" if command == "synth" else "out")
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} must" in err, err
    assert list(tmp_path.iterdir()) == [cfg]


def test_synth_writes_taxonomy_sibling(synth_files):
    data, tax = synth_files
    assert data.exists() and tax.exists()
    assert data.read_text().startswith("f0,")
    assert tax.read_text().startswith("kind,")


def test_run_produces_artifact(finished_run):
    assert (finished_run / "run.json").exists()
    data = read_json(finished_run / "run.json")
    assert data["format_version"] == "1"
    assert len(data["matrices"]) == 3


def test_run_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(experiment_config()))
    out = tmp_path / "out"
    assert (
        main(["run", "--config", str(cfg), "--out", str(out), "--seed", "9", "--k", "3"]) == 0
    )
    stored = read_json(out / "config.json")
    assert stored["seed"] == 9
    assert stored["k"] == 3


def test_run_output_dir_from_env(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(experiment_config()))
    target = tmp_path / "envout"
    monkeypatch.setenv("IIDSBENCH_OUTPUT_DIR", str(target))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (target / "run.json").exists()


def test_run_no_output_dir_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("IIDSBENCH_OUTPUT_DIR", raising=False)
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(experiment_config()))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "output directory" in capsys.readouterr().err


def test_workers_produce_identical_run(tmp_path):
    for workers, name in ((1, "a"), (4, "b")):
        cfg = tmp_path / f"exp{workers}.json"
        cfg.write_text(json.dumps(experiment_config(workers)))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    a = read_json(tmp_path / "a" / "run.json")
    b = read_json(tmp_path / "b" / "run.json")
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_resume_after_cell_deletion(finished_run, capsys):
    victim = finished_run / "cells" / "forest" / "only-attack-2" / "1.json"
    victim.unlink()
    assert main(["resume", str(finished_run)]) == 0
    assert victim.exists()
    assert "computed 1 cell(s)" in capsys.readouterr().out


def test_resume_rejects_cell_file_at_wrong_path(finished_run, capsys):
    cells = finished_run / "cells" / "forest" / "baseline-attack"
    (cells / "1.json").write_bytes((cells / "0.json").read_bytes())
    capsys.readouterr()
    assert main(["resume", str(finished_run)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(cells / "1.json") in err
    assert "fold 0" in err


def test_report_text_to_stdout(finished_run, capsys):
    assert main(["report", str(finished_run)]) == 0
    out = capsys.readouterr().out
    assert "# forest / baseline / attack" in out
    assert "benign" in out


def test_report_csv_requires_out(finished_run, capsys):
    assert main(["report", str(finished_run), "--format", "csv"]) == 2
    assert "--out" in capsys.readouterr().err


def test_report_csv_matches_run_json(finished_run, tmp_path):
    dest = tmp_path / "rendered"
    assert main(["report", str(finished_run), "--format", "csv", "--out", str(dest)]) == 0
    run_data = read_json(finished_run / "run.json")
    matrices = {
        (m["classifier"], m["mode"], m["level"]): m for m in run_data["matrices"]
    }
    for path in dest.glob("heatmap-*.csv"):
        _, classifier, mode, level = path.stem.split("-")
        _, _, cells = matrix_from_csv(path.read_text())
        stored = matrices[(classifier, mode, level)]["cells"]
        assert [[None if v is None else v for v in row] for row in stored] == cells


def test_report_csv_without_baseline_writes_every_file(tmp_path):
    config = experiment_config()
    config["modes"] = ["omit", "only"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    dest = tmp_path / "rendered"
    assert main(["report", str(out), "--format", "csv", "--out", str(dest)]) == 0
    assert sorted(p.name for p in dest.iterdir()) == [
        "heatmap-forest-omit-attack.csv",
        "heatmap-forest-only-attack.csv",
        "precision.csv",
    ]
    header, *rows = (dest / "precision.csv").read_text().splitlines()
    assert header == "classifier,scenario,level,precision,baseline_precision,delta"
    assert len(rows) == 4  # two omit and two only scenarios
    assert all(row.endswith(",n/a,n/a") for row in rows)


def test_report_svg_files(finished_run, tmp_path):
    dest = tmp_path / "svg"
    assert main(["report", str(finished_run), "--format", "svg", "--out", str(dest)]) == 0
    files = sorted(dest.glob("*.svg"))
    assert len(files) == 3
    body = files[0].read_text()
    assert body.startswith("<svg")


def test_compare_stdout(finished_run, capsys):
    assert main(["compare", str(finished_run), str(finished_run)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("classifier,level,unit,unit_label,omit_recall,trainer,only_recall")
    assert len(out.strip().split("\n")) == 3  # header + 2 units


def test_compare_missing_artifact_exit_3(finished_run, tmp_path, capsys):
    assert main(["compare", str(finished_run), str(tmp_path / "void")]) == 3
    assert "error" in capsys.readouterr().err


CELL = Path("cells") / "forest" / "omit-attack-1" / "0.json"


def _edit_json(edit):
    def corrupt(path: Path) -> None:
        data = read_json(path)
        edit(data)
        path.write_text(json.dumps(data))

    return corrupt


def _truncate(path: Path) -> None:
    path.write_text(path.read_text()[:40])


@pytest.mark.parametrize(
    "victim, corrupt, command",
    [
        pytest.param(CELL, lambda p: p.write_bytes(b"\xff\xfe{}"), "resume", id="cell-not-utf8"),
        pytest.param(
            CELL, _edit_json(lambda d: d.pop("values")), "resume", id="cell-without-values"
        ),
        pytest.param(
            CELL,
            _edit_json(lambda d: d.update(values={"benign": 1.0})),
            "resume",
            id="cell-bad-group",
        ),
        pytest.param(
            CELL, _edit_json(lambda d: d.update(extra=1)), "resume", id="cell-unknown-key"
        ),
        pytest.param(CELL, lambda p: p.write_text("null"), "resume", id="cell-null"),
        pytest.param("config.json", _truncate, "resume", id="config-truncated-resume"),
        pytest.param("config.json", _truncate, "run", id="config-truncated-run"),
        pytest.param("config.json", lambda p: p.write_text("{}"), "resume", id="config-empty"),
        pytest.param("run.json", _truncate, "report", id="run-json-truncated-report"),
        pytest.param("run.json", _truncate, "compare", id="run-json-truncated-compare"),
        pytest.param(
            "run.json",
            _edit_json(lambda d: d["aggregates"][0].pop("n_folds")),
            "report",
            id="run-json-aggregate-without-n-folds",
        ),
        pytest.param(
            "run.json",
            _edit_json(lambda d: d["matrices"][0]["cells"][0].__setitem__(0, "abc")),
            "report",
            id="run-json-cell-string",
        ),
        pytest.param(
            "run.json",
            _edit_json(lambda d: d["rows"][0]["values"].update({"0": True})),
            "report",
            id="run-json-row-value-bool",
        ),
        pytest.param(
            "run.json",
            _edit_json(lambda d: d["aggregates"][0].update(precision=[0.5])),
            "compare",
            id="run-json-aggregate-precision-list",
        ),
        pytest.param(
            CELL,
            _edit_json(lambda d: d["values"].update({"1": "0.5"})),
            "resume",
            id="cell-value-string",
        ),
        pytest.param(
            "config.json", _edit_json(lambda d: d.update(k=2.0)), "resume", id="config-k-float"
        ),
        pytest.param(
            "inputs.json",
            _edit_json(lambda d: d["sha256"].update(dataset="0" * 64)),
            "resume",
            id="inputs-json-extra-role",
        ),
        pytest.param(
            "config.json",
            _edit_json(lambda d: d["dataset"]["synthetic"].update(benign_count=90.0)),
            "resume",
            id="config-synthetic-count-float",
        ),
    ],
)
def test_corrupt_output_file_exit_3(finished_run, tmp_path, capsys, victim, corrupt, command):
    path = finished_run / victim
    corrupt(path)
    capsys.readouterr()
    if command == "run":
        cfg = tmp_path / "exp.json"
        argv = ["run", "--config", str(cfg), "--out", str(finished_run)]
    elif command == "compare":
        argv = ["compare", str(finished_run), str(finished_run)]
    else:
        argv = [command, str(finished_run)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err


def test_inputs_never_mutated(synth_files, tmp_path):
    data, tax = synth_files
    before = data.read_bytes(), tax.read_bytes()
    main(["validate", str(data), "--taxonomy", str(tax)])
    main(["stats", str(data), "--taxonomy", str(tax)])
    assert (data.read_bytes(), tax.read_bytes()) == before


def test_run_idempotent(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(experiment_config()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    first = read_json(out / "run.json")
    first.pop("timing")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    second = read_json(out / "run.json")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
