"""Matrix assembly and the text/CSV/SVG renders."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from iidsbench.errors import ReportError
from iidsbench.metrics import AggregatedRow
from iidsbench.report import (
    MetricsMatrix,
    build_matrix,
    compare_to_csv,
    matrix_to_csv,
    precision_report,
    precision_report_csv,
    render_svg_heatmap,
    render_text_heatmap,
)
from iidsbench.splitting import ScenarioSpec

from conftest import flat_taxonomy, matrix_from_csv


def agg(scenario: ScenarioSpec, means: dict, defined=None) -> AggregatedRow:
    return AggregatedRow(
        classifier="forest",
        scenario=scenario,
        values=means,
        defined_folds=defined or {g: (0 if v is None else 2) for g, v in means.items()},
        precision=0.9,
        precision_folds=2,
        n_folds=2,
    )


def two_unit_matrix() -> MetricsMatrix:
    tax = flat_taxonomy([1, 2])
    baseline = agg(ScenarioSpec("baseline", "attack"), {0: 1.0, 1: 0.937, 2: 0.5})
    units = {
        1: agg(ScenarioSpec("omit", "attack", 1), {0: 0.99, 1: 0.063, 2: 0.5}),
        2: agg(ScenarioSpec("omit", "attack", 2), {0: 1.0, 1: None, 2: 0.0}),
    }
    return build_matrix("forest", "omit", "attack", baseline, units, tax)


def test_build_matrix_layout():
    m = two_unit_matrix()
    assert m.row_labels == ("none", "1.1", "2.1")
    assert m.row_units == (None, 1, 2)
    assert m.col_labels == ("benign", "1.1", "2.1")
    assert m.col_groups == (0, 1, 2)
    assert m.cell(None, 1) == 0.937
    assert m.cell(1, 1) == 0.063
    assert m.cell(2, 1) is None


def test_build_matrix_missing_unit_row():
    tax = flat_taxonomy([1, 2])
    baseline = agg(ScenarioSpec("baseline", "attack"), {0: 1.0, 1: 1.0, 2: 1.0})
    with pytest.raises(ReportError, match="unit 2"):
        build_matrix(
            "forest",
            "omit",
            "attack",
            baseline,
            {1: agg(ScenarioSpec("omit", "attack", 1), {0: 1.0, 1: 1.0, 2: 1.0})},
            tax,
        )


def test_text_render_formats_percentages():
    m = two_unit_matrix()
    text = render_text_heatmap(m)
    assert "93.7" in text
    assert "6.3" in text
    assert "n/a" in text
    assert "100.0" in text
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    assert lines[0].split() == ["benign", "1.1", "2.1"]
    assert lines[1].split() == ["none", "100.0", "93.7", "50.0"]
    assert lines[3].split() == ["2.1", "100.0", "n/a", "0.0"]


def test_text_render_cell_values():
    tax = flat_taxonomy([1])
    baseline = agg(ScenarioSpec("baseline", "attack"), {0: 1.0, 1: 0.5})
    units = {1: agg(ScenarioSpec("omit", "attack", 1), {0: None, 1: 0.0})}
    m = build_matrix("c", "omit", "attack", baseline, units, tax)
    text = render_text_heatmap(m)
    for token in ("100.0", "50.0", "n/a", "0.0"):
        assert token in text


def test_empty_matrix_rejected():
    m = MetricsMatrix(
        classifier="c",
        mode="omit",
        level="attack",
        row_units=(),
        row_labels=(),
        col_groups=(),
        col_labels=(),
        cells=(),
        defined_folds=(),
    )
    with pytest.raises(ReportError, match="empty matrix"):
        render_text_heatmap(m)
    with pytest.raises(ReportError, match="empty matrix"):
        render_svg_heatmap(m)


def test_svg_one_rect_per_cell():
    m = two_unit_matrix()
    svg = render_svg_heatmap(m)
    # one background rect + one hatch-pattern rect + 9 cells
    assert svg.count("<rect") == 2 + 9
    assert 'fill="url(#undef)"' in svg
    assert "1.1" in svg and "benign" in svg and "none" in svg


def test_svg_ramp_endpoints():
    tax = flat_taxonomy([1])
    baseline = agg(ScenarioSpec("baseline", "attack"), {0: 0.0, 1: 1.0})
    m = build_matrix("c", "baseline", "attack", baseline, {}, tax)
    svg = render_svg_heatmap(m)
    assert 'fill="#fde725"' in svg  # recall 0 -> low endpoint
    assert 'fill="#440154"' in svg  # recall 1 -> high endpoint


def test_svg_byte_deterministic():
    m = two_unit_matrix()
    assert render_svg_heatmap(m) == render_svg_heatmap(m)
    assert render_text_heatmap(m) == render_text_heatmap(m)
    assert matrix_to_csv(m) == matrix_to_csv(m)


def test_csv_round_trip_full_precision():
    m = two_unit_matrix()
    text = matrix_to_csv(m)
    row_labels, col_labels, cells = matrix_from_csv(text)
    assert tuple(row_labels) == m.row_labels
    assert tuple(col_labels) == m.col_labels
    for parsed, original in zip(cells, m.cells):
        assert tuple(parsed) == original  # exact, not approximate


def test_matrix_dict_round_trip():
    m = two_unit_matrix()
    again = MetricsMatrix(**json.loads(json.dumps(asdict(m))))
    assert again.cells == m.cells
    assert again.row_labels == m.row_labels
    assert again.defined_folds == m.defined_folds


# -- precision report --------------------------------------------------------


class FakeArtifact:
    def __init__(self, rows):
        self.aggregates = rows


def prec_row(scenario, value):
    return AggregatedRow(
        classifier="c",
        scenario=scenario,
        values={0: 1.0},
        defined_folds={0: 2},
        precision=value,
        precision_folds=0 if value is None else 2,
        n_folds=2,
    )


def test_precision_report_deltas():
    base = ScenarioSpec("baseline", "attack")
    omitted = ScenarioSpec("omit", "attack", 1)
    artifact = FakeArtifact([prec_row(base, 0.95), prec_row(omitted, 0.93)])
    table = precision_report(artifact)
    by_scenario = {r["scenario"]: r for r in table}
    assert by_scenario["baseline-attack"]["delta"] == 0.0
    assert by_scenario["omit-attack-1"]["delta"] == pytest.approx(-0.02, abs=1e-12)
    assert by_scenario["omit-attack-1"]["baseline_precision"] == 0.95


def test_precision_report_baseline_only():
    artifact = FakeArtifact([prec_row(ScenarioSpec("baseline", "attack"), 0.9)])
    table = precision_report(artifact)
    assert len(table) == 1
    assert table[0]["delta"] == 0.0


def test_precision_report_undefined_entries():
    base = ScenarioSpec("baseline", "attack")
    omitted = ScenarioSpec("omit", "attack", 1)
    artifact = FakeArtifact([prec_row(base, None), prec_row(omitted, None)])
    table = precision_report(artifact)
    assert all(r["precision"] is None and r["delta"] is None for r in table)
    text = precision_report_csv(table)
    assert "n/a" in text


def test_precision_report_without_baseline_reads_na():
    artifact = FakeArtifact([prec_row(ScenarioSpec("omit", "attack", 1), 0.9)])
    table = precision_report(artifact)
    assert [(r["precision"], r["baseline_precision"], r["delta"]) for r in table] == [
        (0.9, None, None)
    ]
    assert precision_report_csv(table).splitlines()[1] == "c,omit-attack-1,attack,0.9,n/a,n/a"


# -- exact CSV text ----------------------------------------------------------

# 0.1 + 0.2 and 1 + 2**-52 need all 17 significant digits of repr
SEVENTEEN = 0.1 + 0.2
ONE_ULP_UP = 1.0000000000000002


def test_matrix_csv_exact_text():
    m = MetricsMatrix(
        classifier="forest",
        mode="omit",
        level="attack",
        row_units=(None, 1),
        row_labels=("none", 'a,"b'),
        col_groups=(0, 1),
        col_labels=("benign", 'x "y", z'),
        cells=((1.0, SEVENTEEN), (None, 1 / 3)),
        defined_folds=((2, 2), (0, 2)),
    )
    assert matrix_to_csv(m) == (
        ',benign,"x ""y"", z"\n'
        "none,1.0,0.30000000000000004\n"
        '"a,""b",n/a,0.3333333333333333\n'
    )


def test_precision_csv_exact_text():
    table = [
        {
            "classifier": 'c,"1"',
            "scenario": "omit-attack-1",
            "level": "attack",
            "precision": SEVENTEEN,
            "baseline_precision": None,
            "delta": None,
        },
        {
            "classifier": "c",
            "scenario": "baseline-attack",
            "level": "attack",
            "precision": ONE_ULP_UP,
            "baseline_precision": ONE_ULP_UP,
            "delta": -2.220446049250313e-16,
        },
    ]
    assert precision_report_csv(table) == (
        "classifier,scenario,level,precision,baseline_precision,delta\n"
        '"c,""1""",omit-attack-1,attack,0.30000000000000004,n/a,n/a\n'
        "c,baseline-attack,attack,1.0000000000000002,1.0000000000000002,-2.220446049250313e-16\n"
    )


def test_compare_csv_exact_text():
    def entry(unit, label, omit, trainers):
        return {
            "classifier": "c",
            "level": "attack",
            "unit": unit,
            "unit_label": label,
            "omit_recall": omit,
            "only_recall_by_trainer": trainers,
        }

    table = [
        entry(1, 'a,"b', None, {"2.1": SEVENTEEN, 'q"r': None}),
        entry(2, "2.1", 2 / 3, {}),  # no trainer, no line
        entry(3, "3.1", ONE_ULP_UP, {"1.1": 0.0}),
    ]
    assert compare_to_csv(table) == (
        "classifier,level,unit,unit_label,omit_recall,trainer,only_recall\n"
        'c,attack,1,"a,""b",n/a,2.1,0.30000000000000004\n'
        'c,attack,1,"a,""b",n/a,"q""r",n/a\n'
        "c,attack,3,3.1,1.0000000000000002,1.1,0.0\n"
    )
