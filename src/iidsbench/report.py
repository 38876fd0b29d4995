"""Rendering: recall heatmaps (text, CSV, SVG), the per-scenario
precision report and the omit/only comparison table.

Matrices put the baseline row first (labeled "none") and the benign column
first, with unit rows/columns ascending by id. Undefined cells stay
undefined all the way to the output ("n/a", hatched in SVG). Rendering is
pure: equal inputs yield identical bytes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .dataset import BENIGN, AttackTaxonomy
from .errors import ReportError
from .metrics import AggregatedRow, check_metrics
from .splitting import MODE_BASELINE

BASELINE_ROW_LABEL = "none"
BENIGN_COL_LABEL = "benign"
UNDEFINED_TEXT = "n/a"
RAMP_LOW = "#fde725"  # recall 0 reads light
RAMP_HIGH = "#440154"


@dataclass(frozen=True, eq=False)
class MetricsMatrix:
    classifier: str
    mode: str
    level: str
    row_units: tuple[int | None, ...]  # None = the baseline row
    row_labels: tuple[str, ...]
    col_groups: tuple[int, ...]  # 0 = benign
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float | None, ...], ...]
    defined_folds: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # run.json and build_matrix give lists; the matrix holds tuples
        for name in ("row_units", "row_labels", "col_groups", "col_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("cells", "defined_folds"):
            object.__setattr__(self, name, tuple(map(tuple, getattr(self, name))))
        for row in self.cells:
            check_metrics(row, "matrix cells")

    def cell(self, row_unit: int | None, col_group: int) -> float | None:
        return self.cells[self.row_units.index(row_unit)][self.col_groups.index(col_group)]


def build_matrix(
    classifier: str,
    mode: str,
    level: str,
    baseline: AggregatedRow | None,
    unit_rows: dict[int, AggregatedRow],
    tax: AttackTaxonomy,
) -> MetricsMatrix:
    """Assemble one mode's matrix from aggregated rows: the baseline row
    first, then one row per target unit ascending.
    """
    units = tax.unit_ids(level)
    col_groups = [BENIGN, *units]
    col_labels = [BENIGN_COL_LABEL, *(tax.unit_label(level, u) for u in units)]
    row_units: list[int | None] = []
    row_labels: list[str] = []
    cells: list[tuple[float | None, ...]] = []
    defined: list[tuple[int, ...]] = []

    def push(unit: int | None, label: str, row: AggregatedRow) -> None:
        row_units.append(unit)
        row_labels.append(label)
        cells.append(tuple(row.values[g] for g in col_groups))
        defined.append(tuple(row.defined_folds[g] for g in col_groups))

    if baseline is not None:
        push(None, BASELINE_ROW_LABEL, baseline)
    for unit in units:
        if mode != MODE_BASELINE:
            if unit not in unit_rows:
                raise ReportError(f"missing aggregated row for {mode} unit {unit}")
            push(unit, tax.unit_label(level, unit), unit_rows[unit])
    return MetricsMatrix(
        classifier=classifier,
        mode=mode,
        level=level,
        row_units=row_units,
        row_labels=row_labels,
        col_groups=col_groups,
        col_labels=col_labels,
        cells=cells,
        defined_folds=defined,
    )


def _percent(value: float | None) -> str:
    if value is None:
        return UNDEFINED_TEXT
    return f"{value * 100:.1f}"


def render_text_heatmap(m: MetricsMatrix) -> str:
    if not m.row_labels or not m.col_labels:
        raise ReportError("empty matrix")
    texts = [[_percent(v) for v in row] for row in m.cells]
    col_widths = [
        max(len(m.col_labels[j]), max(len(row[j]) for row in texts)) for j in range(len(m.col_labels))
    ]
    label_width = max(len(label) for label in m.row_labels)
    lines = [
        " " * label_width
        + "".join(f"  {m.col_labels[j]:>{col_widths[j]}}" for j in range(len(m.col_labels)))
    ]
    for label, row in zip(m.row_labels, texts):
        lines.append(
            f"{label:<{label_width}}"
            + "".join(f"  {row[j]:>{col_widths[j]}}" for j in range(len(row)))
        )
    return "\n".join(lines) + "\n"


def _parse_hex(color: str) -> tuple[int, int, int]:
    return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)


def _ramp_color(value: float) -> str:
    low, high = _parse_hex(RAMP_LOW), _parse_hex(RAMP_HIGH)
    mixed = tuple(round(lo + (hi - lo) * value) for lo, hi in zip(low, high))
    return "#{:02x}{:02x}{:02x}".format(*mixed)


def _luminance(color: str) -> float:
    r, g, b = _parse_hex(color)
    return (0.299 * r + 0.587 * g + 0.114 * b) / 255.0


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg_heatmap(m: MetricsMatrix) -> str:
    """Hand-emitted SVG: one rect per cell, linear color ramp on recall,
    hatched rects for undefined cells, labels on both axes.
    """
    if not m.row_labels or not m.col_labels:
        raise ReportError("empty matrix")
    cell_w, cell_h = 46, 26
    left = 16 + 8 * max(len(label) for label in m.row_labels)
    top = 34
    width = left + cell_w * len(m.col_labels) + 12
    height = top + cell_h * len(m.row_labels) + 12

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "<defs>",
        '<pattern id="undef" width="6" height="6" patternUnits="userSpaceOnUse">',
        '<rect width="6" height="6" fill="#f2f2f2"/>',
        '<path d="M0 6 L6 0" stroke="#b0b0b0" stroke-width="1"/>',
        "</pattern>",
        "</defs>",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    font = 'font-family="monospace"'
    for j, label in enumerate(m.col_labels):
        x = left + j * cell_w + cell_w // 2
        parts.append(
            f'<text x="{x}" y="{top - 10}" text-anchor="middle" font-size="11" {font}>'
            f"{_esc(label)}</text>"
        )
    for i, label in enumerate(m.row_labels):
        y = top + i * cell_h + cell_h // 2 + 4
        parts.append(
            f'<text x="{left - 6}" y="{y}" text-anchor="end" font-size="11" {font}>'
            f"{_esc(label)}</text>"
        )
    for i, row in enumerate(m.cells):
        for j, value in enumerate(row):
            x = left + j * cell_w
            y = top + i * cell_h
            if value is None:
                fill = "url(#undef)"
                text = UNDEFINED_TEXT
                text_fill = "#444444"
            else:
                fill = _ramp_color(value)
                text = _percent(value)
                text_fill = "#111111" if _luminance(fill) > 0.55 else "#f5f5f5"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 4}" '
                f'text-anchor="middle" font-size="10" fill="{text_fill}" {font}>'
                f"{_esc(text)}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_table(header: list[str], rows) -> str:
    """The CSV text of a header and rows, LF line endings. An undefined cell
    (None) reads "n/a"; csv writes a float as its repr, which round-trips."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([UNDEFINED_TEXT if v is None else v for v in row] for row in rows)
    return buffer.getvalue()


def matrix_to_csv(m: MetricsMatrix) -> str:
    """Full-precision CSV: first row column labels, first column row labels,
    undefined cells as "n/a"."""
    rows = ([label, *row] for label, row in zip(m.row_labels, m.cells))
    return _csv_table(["", *m.col_labels], rows)


def precision_report(artifact) -> list[dict]:
    """Rows of (classifier, scenario, mean precision, baseline precision,
    delta), one per aggregated scenario. Without a baseline scenario of the
    classifier at the level, the baseline precision and delta are undefined.
    """
    baselines = {
        (row.classifier, row.scenario.level): row.precision
        for row in artifact.aggregates
        if row.scenario.mode == MODE_BASELINE
    }
    table = []
    for row in artifact.aggregates:
        base = baselines.get((row.classifier, row.scenario.level))
        value = row.precision
        delta = None if value is None or base is None else value - base
        table.append(
            {
                "classifier": row.classifier,
                "scenario": row.scenario.key(),
                "level": row.scenario.level,
                "precision": value,
                "baseline_precision": base,
                "delta": delta,
            }
        )
    return table


def precision_report_csv(table: list[dict]) -> str:
    header = ["classifier", "scenario", "level", "precision", "baseline_precision", "delta"]
    return _csv_table(header, ([row[key] for key in header] for row in table))


def compare_to_csv(table: list[dict]) -> str:
    header = ["classifier", "level", "unit", "unit_label", "omit_recall", "trainer", "only_recall"]
    return _csv_table(
        header,
        (
            [*(row[key] for key in header[:5]), trainer, value]
            for row in table
            for trainer, value in row["only_recall_by_trainer"].items()
        ),
    )
