"""Labeled ICS traffic datasets and the two-level attack taxonomy.

A dataset is a float64 feature matrix with one row per record and an int64
vector of attack_type ids, one per row. Row order is capture order and is
load-bearing: windowed classifiers consume rows relative to it. Attack type
0 means benign. Results are reported per unit: a record's unit is its attack
type at attack level and that type's category at category level, benign is
unit 0 at both, and AttackTaxonomy.units alone maps types to units.

A Dataset holds at least one row, and every label is benign or a type of
its taxonomy: construction raises otherwise, so no later stage meets an
empty dataset or a label it cannot score. The forest reads its features
through Dataset.feature_ranks, each column's value ranks, computed on first
use and kept with the Dataset.

The module covers four jobs: parsing/writing the CSV exchange format,
checking label composition, summarizing it, and generating synthetic
datasets with planted attack signatures for controlled experiments.

numpy's C text reader reads every valid CSV. A file it refuses, whose
table fails a check, or that holds an empty line, which numpy skips, is
walked once more with csv.reader, only to name the line at fault; the walk
builds nothing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    DatasetError,
    TaxonomyError,
    check_int,
    check_ints,
    check_real,
    check_text,
    reject_unknown_keys,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
FEATURE_KINDS = (NUMERIC, CATEGORICAL)

DEFAULT_LABEL_COLUMN = "attack_type"
BENIGN = 0

SCHEMA_INFER_NUMERIC = "infer-numeric"
SCHEMA_GAS_PIPELINE = "embedded-gas-pipeline"

MISSING_FLAG_NAME = "missing_any"
UNKNOWN_CATEGORY_TEXT = "__unknown__"

LEVEL_ATTACK = "attack"
LEVEL_CATEGORY = "category"
LEVELS = (LEVEL_ATTACK, LEVEL_CATEGORY)

# The largest attack-type or category id. Units are counted in tables
# indexed by id, so an id sizes memory.
MAX_UNIT_ID = 65_535


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class FeatureSchema:
    """Column layout of a dataset: ordered feature names and per-feature
    kind; the label column is always DEFAULT_LABEL_COLUMN. Categorical
    columns carry their code book: the category texts in first-occurrence
    order, so text i encodes as code i. Codes at or past the book length are
    the reserved "unknown" code.
    """

    feature_names: tuple[str, ...]
    feature_kinds: tuple[str, ...]
    categorical_codes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.feature_names:
            raise DatasetError("schema has no features")
        if len(self.feature_names) != len(self.feature_kinds):
            raise DatasetError("schema feature names and kinds differ in length")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DatasetError("schema feature names are not unique")
        if any(not n for n in self.feature_names):
            raise DatasetError("schema contains an empty feature name")
        for kind in self.feature_kinds:
            if kind not in FEATURE_KINDS:
                raise DatasetError(f"unknown feature kind {kind!r}")
        if DEFAULT_LABEL_COLUMN in self.feature_names:
            raise DatasetError(f"label column {DEFAULT_LABEL_COLUMN!r} collides with a feature")
        for name in self.categorical_codes:
            if name not in self.feature_names:
                raise DatasetError(f"code book for unknown feature {name!r}")
            if self.feature_kinds[self.feature_names.index(name)] != CATEGORICAL:
                raise DatasetError(f"code book for non-categorical feature {name!r}")

    @property
    def num_features(self) -> int:
        return len(self.feature_names)


# ---------------------------------------------------------------------------
# Taxonomy


@dataclass(frozen=True)
class AttackType:
    name: str
    category: int


@dataclass(frozen=True)
class AttackCategory:
    abbreviation: str
    name: str


@dataclass(frozen=True)
class AttackTaxonomy:
    """Two-level map: attack-type id -> AttackType carrying a category id."""

    types: dict[int, AttackType]
    categories: dict[int, AttackCategory]

    def __post_init__(self) -> None:
        if not self.types:
            raise TaxonomyError("taxonomy has no attack types")
        for tid, at in self.types.items():
            if not 0 < tid <= MAX_UNIT_ID:
                raise TaxonomyError(f"attack type id must be in 1..{MAX_UNIT_ID}, got {tid}")
            if at.category not in self.categories:
                raise TaxonomyError(
                    f"attack type {tid} references missing category {at.category}"
                )
        for cid in self.categories:
            if not 0 < cid <= MAX_UNIT_ID:
                raise TaxonomyError(f"category id must be in 1..{MAX_UNIT_ID}, got {cid}")

    def category_of(self, attack_type: int) -> int:
        if attack_type == BENIGN:
            return BENIGN
        try:
            return self.types[attack_type].category
        except KeyError:
            raise TaxonomyError(f"unknown attack type id {attack_type}") from None

    def unit_ids(self, level: str) -> list[int]:
        if level == LEVEL_ATTACK:
            return sorted(self.types)
        if level == LEVEL_CATEGORY:
            return sorted(self.categories)
        raise TaxonomyError(f"unknown aggregation level {level!r}")

    def unit_label(self, level: str, unit: int) -> str:
        """Short display label: category abbreviation, or "cat.pos" for an
        attack type (position = 1-based rank of its id within the category).
        """
        if level == LEVEL_CATEGORY:
            return self.categories[unit].abbreviation
        cat = self.category_of(unit)
        members = sorted(t for t, a in self.types.items() if a.category == cat)
        return f"{cat}.{members.index(unit) + 1}"

    def units(self, attack_types, level: str) -> np.ndarray:
        """The int64 unit at `level` of each attack-type id: the id itself,
        or its category id; benign (0) is unit 0. Raises TaxonomyError naming
        the first id that is neither benign nor a type of the taxonomy."""
        if level not in LEVELS:
            raise TaxonomyError(f"unknown aggregation level {level!r}")
        table = np.full(max(self.types) + 1, -1, dtype=np.int64)
        table[BENIGN] = BENIGN
        for tid, at in self.types.items():
            table[tid] = tid if level == LEVEL_ATTACK else at.category
        types = np.asarray(attack_types, dtype=np.int64)
        if types.size == 0 or (types.min() >= 0 and types.max() < len(table)):
            units = table[types]
            if units.min(initial=0) >= 0:
                return units
        unknown = np.flatnonzero(~np.isin(types, [BENIGN, *self.types]))
        raise TaxonomyError(f"unknown attack type id {types[unknown[0]]}")


# Gas-pipeline categories: (abbreviation, descriptive name, number of attack
# types). Attack-type ids 1..35 are assigned contiguously in this category
# order; see docs/gas_pipeline.md for the mapping rationale.
_GAS_PIPELINE_CATEGORIES = (
    (1, "NMRI", "Naive Malicious Response Injection", 4),
    (2, "CMRI", "Complex Malicious Response Injection", 7),
    (3, "MSCI", "Malicious State Command Injection", 5),
    (4, "MPCI", "Malicious Parameter Command Injection", 12),
    (5, "MFCI", "Malicious Function Code Injection", 3),
    (6, "DoS", "Denial of Service", 1),
    (7, "Recon", "Reconnaissance", 3),
)

TAXONOMY_BUILTIN = "builtin"


def builtin_taxonomy() -> AttackTaxonomy:
    """The bundled gas-pipeline taxonomy: 35 attack types in 7 categories."""
    categories = {}
    types = {}
    next_id = 1
    for cid, abbr, name, count in _GAS_PIPELINE_CATEGORIES:
        categories[cid] = AttackCategory(abbr, name)
        for pos in range(1, count + 1):
            types[next_id] = AttackType(f"{abbr}-{pos}", cid)
            next_id += 1
    return AttackTaxonomy(types, categories)


_TAXONOMY_HEADER = ("kind", "id", "name", "category", "abbreviation")


def load_taxonomy(source: str | Path) -> AttackTaxonomy:
    """Load a taxonomy: the literal string "builtin", or a CSV path whose
    rows carry a kind column distinguishing category and attack rows.
    """
    if source == TAXONOMY_BUILTIN:
        return builtin_taxonomy()
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise TaxonomyError(f"cannot read taxonomy file {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise TaxonomyError(f"{path}: empty taxonomy file")
    header = tuple(h.strip() for h in rows[0])
    if header != _TAXONOMY_HEADER:
        raise TaxonomyError(
            f"{path}: expected header {','.join(_TAXONOMY_HEADER)}, got {','.join(header)}"
        )
    categories: dict[int, AttackCategory] = {}
    types: dict[int, AttackType] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(_TAXONOMY_HEADER):
            raise TaxonomyError(f"{path}: line {lineno}: expected {len(_TAXONOMY_HEADER)} fields")
        kind, id_text, name, category_text, abbr = (cell.strip() for cell in row)
        try:
            ident = int(id_text)
        except ValueError:
            raise TaxonomyError(f"{path}: line {lineno}: bad id {id_text!r}") from None
        if kind == "category":
            if ident in categories:
                raise TaxonomyError(f"{path}: line {lineno}: duplicate category id {ident}")
            if not abbr:
                raise TaxonomyError(f"{path}: line {lineno}: category {ident} lacks abbreviation")
            categories[ident] = AttackCategory(abbr, name)
        elif kind == "attack":
            if ident in types:
                raise TaxonomyError(f"{path}: line {lineno}: duplicate attack id {ident}")
            try:
                category = int(category_text)
            except ValueError:
                raise TaxonomyError(
                    f"{path}: line {lineno}: bad category ref {category_text!r}"
                ) from None
            types[ident] = AttackType(name, category)
        else:
            raise TaxonomyError(f"{path}: line {lineno}: unknown row kind {kind!r}")
    return AttackTaxonomy(types, categories)  # referential checks live in __post_init__


def taxonomy_to_csv(tax: AttackTaxonomy) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_TAXONOMY_HEADER)
    for cid in sorted(tax.categories):
        cat = tax.categories[cid]
        writer.writerow(("category", cid, cat.name, "", cat.abbreviation))
    for tid in sorted(tax.types):
        at = tax.types[tid]
        writer.writerow(("attack", tid, at.name, at.category, ""))
    return out.getvalue()


# ---------------------------------------------------------------------------
# Dataset


@dataclass(frozen=True, eq=False)
class Dataset:
    """Records in capture order: row i of `features` (n x F, float64) is
    labeled by `attack_types[i]` (int64). Construction requires at least one
    row and every label benign or a type of `taxonomy`; it raises
    DatasetError or TaxonomyError otherwise. Unpickling does not check again.
    """

    schema: FeatureSchema
    features: np.ndarray
    attack_types: np.ndarray
    taxonomy: AttackTaxonomy

    def __post_init__(self) -> None:
        if self.features.dtype != np.float64 or self.attack_types.dtype != np.int64:
            raise DatasetError("features must be float64 and attack_types int64")
        width = self.schema.num_features
        if self.features.ndim != 2 or self.features.shape[1] != width:
            raise DatasetError(
                f"feature matrix of shape {self.features.shape} does not hold {width} features"
            )
        if self.attack_types.shape != (len(self.features),):
            raise DatasetError(
                f"{self.attack_types.shape} attack_types do not label {len(self.features)} rows"
            )
        if not len(self.attack_types):
            raise DatasetError("dataset has no rows")
        self.taxonomy.units(self.attack_types, LEVEL_ATTACK)

    def __len__(self) -> int:
        return len(self.attack_types)

    def feature_matrix(self) -> np.ndarray:
        return self.features

    def labels(self) -> np.ndarray:
        return self.attack_types

    def binary_labels(self) -> np.ndarray:
        return self.attack_types != BENIGN

    def units(self, level: str) -> np.ndarray:
        """Each record's unit at `level` (see AttackTaxonomy.units)."""
        return self.taxonomy.units(self.attack_types, level)

    def feature_ranks(self) -> np.ndarray:
        """rank_columns of the feature matrix, computed on the first call."""
        ranks = self.__dict__.get("_ranks")
        if ranks is None:
            ranks = self.__dict__["_ranks"] = rank_columns(self.features)
        return ranks


def rank_columns(features: np.ndarray) -> np.ndarray:
    """The dense ranks of each column of the (n, F) matrix `features` among
    that column's values and 0.0, the window padding value, as an (F, n + 1)
    feature-major table: [f, i] ranks row i's value, and [f, n] ranks 0.0.
    Equal values share a rank, 0.0 and -0.0 included, so ranks order and tie
    exactly as the values do. The table is uint16 when every rank fits, that
    is when no column holds more than 65,536 distinct values with 0.0
    counted in, and uint32 otherwise.
    Raises DatasetError for a non-finite value, which has no place in that
    order that a threshold could keep.
    """
    n, width = features.shape
    ranks = np.empty((width, n + 1), dtype=np.uint16)
    column = np.zeros(n + 1)
    for f in range(width):
        column[:n] = features[:, f]
        order = np.argsort(column)
        ordered = column[order]
        if not (np.isfinite(ordered[0]) and np.isfinite(ordered[-1])):
            raise DatasetError(f"feature column {f} holds a non-finite value")
        dense = np.empty(n + 1, dtype=np.int64)
        dense[0] = 0
        np.cumsum(ordered[1:] != ordered[:-1], out=dense[1:])
        if dense[-1] > np.iinfo(ranks.dtype).max:
            ranks = ranks.astype(np.uint32)
        ranks[f, order] = dense
    return ranks


def validate_dataset(d: Dataset) -> list[str]:
    """The composition findings, one line each; empty when the dataset holds
    both benign and malicious records. Labels need no check: a Dataset's are
    valid by construction.
    """
    malicious = d.binary_labels()
    findings = []
    if malicious.all():
        findings.append("[composition] dataset has no benign records")
    if not malicious.any():
        findings.append("[composition] dataset has no malicious records")
    return findings


@dataclass(frozen=True)
class StatsSummary:
    total: int
    benign_count: int
    malicious_count: int
    malicious_fraction: float
    per_type: dict[int, int]
    per_category: dict[int, int]

    @property
    def attack_type_count(self) -> int:
        return len(self.per_type)

    @property
    def category_count(self) -> int:
        return len(self.per_category)


def dataset_stats(d: Dataset) -> StatsSummary:
    """Label composition: totals plus per-type and per-category record counts
    for the types actually present.
    """
    labels = d.labels()
    malicious = int(np.count_nonzero(labels != BENIGN))
    return StatsSummary(
        total=len(labels),
        benign_count=len(labels) - malicious,
        malicious_count=malicious,
        malicious_fraction=malicious / len(labels),
        per_type=_unit_counts(d.units(LEVEL_ATTACK)),
        per_category=_unit_counts(d.units(LEVEL_CATEGORY)),
    )


def _unit_counts(units: np.ndarray) -> dict[int, int]:
    """Record count per malicious unit present, in ascending unit order."""
    counts = np.bincount(units)
    present = np.flatnonzero(counts[1:]) + 1  # skip benign, unit 0
    return dict(zip(present.tolist(), counts[present].tolist()))


# ---------------------------------------------------------------------------
# CSV exchange format

# Converted gas-pipeline export: feature columns in capture order plus the
# attack_type label column. Kind assignments follow docs/gas_pipeline.md;
# a sidecar schema file overrides them when an export deviates.
_GAS_PIPELINE_COLUMNS = (
    ("command_address", CATEGORICAL),
    ("response_address", CATEGORICAL),
    ("command_memory", NUMERIC),
    ("response_memory", NUMERIC),
    ("command_memory_count", NUMERIC),
    ("response_memory_count", NUMERIC),
    ("comm_read_function", CATEGORICAL),
    ("comm_write_fun", CATEGORICAL),
    ("resp_read_fun", CATEGORICAL),
    ("resp_write_fun", CATEGORICAL),
    ("sub_function", CATEGORICAL),
    ("command_length", NUMERIC),
    ("resp_length", NUMERIC),
    ("gain", NUMERIC),
    ("reset", NUMERIC),
    ("deadband", NUMERIC),
    ("cycle_time", NUMERIC),
    ("rate", NUMERIC),
    ("setpoint", NUMERIC),
    ("control_mode", CATEGORICAL),
    ("control_scheme", CATEGORICAL),
    ("pump", CATEGORICAL),
    ("solenoid", CATEGORICAL),
    ("crc_rate", NUMERIC),
    ("measurement", NUMERIC),
    ("time", NUMERIC),
)


def _schema_request(schema_source: str | Path, header: list[str]) -> tuple[list[str], list[str]]:
    """Resolve (names, kinds) for the requested schema against a CSV header.
    A fault of a sidecar schema file raises DatasetError without naming the
    file, which parse_dataset adds."""
    if schema_source == SCHEMA_INFER_NUMERIC:
        names = [h for h in header if h != DEFAULT_LABEL_COLUMN]
        return names, [NUMERIC] * len(names)
    if schema_source == SCHEMA_GAS_PIPELINE:
        return [n for n, _ in _GAS_PIPELINE_COLUMNS], [k for _, k in _GAS_PIPELINE_COLUMNS]
    path = Path(schema_source)
    try:
        spec = json.loads(path.read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise DatasetError(f"cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"not valid JSON: {exc}") from exc
    try:
        features = spec["features"]
        names = [f["name"] for f in features]
        kinds = [f["kind"] for f in features]
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"missing feature entries: {exc}") from exc
    return names, kinds


def _open_dataset(path: Path):
    try:
        return open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc


def parse_dataset(
    path: str | Path,
    schema_source: str | Path = SCHEMA_INFER_NUMERIC,
    taxonomy: AttackTaxonomy | None = None,
) -> Dataset:
    """Parse a dataset CSV: header row naming columns, one record per row,
    attack_type label column holding integer ids (0 = benign).

    schema_source picks the column interpretation: "infer-numeric" (every
    non-label column is numeric), "embedded-gas-pipeline", or the path of a
    sidecar schema JSON. Missing numeric cells are imputed with the column
    median computed over this file, and a missing_any flag feature is
    appended when any cell was missing. Categorical text encodes to integer
    codes in first-occurrence order; the code book lands in the schema.

    The records are read by numpy's C text reader (_read_table). If it
    refuses the file, or the table fails a check, or the file holds an
    empty line, which numpy skips, a walk with csv.reader (_first_error)
    finds the line at fault and the DatasetError naming it is raised. A
    refused file whose walk finds no fault raises a DatasetError chained to
    the reader's exception. Every DatasetError raised here starts with
    "<path>: ", and one about a sidecar schema goes on with "schema file
    <schema path>: ".
    """
    if taxonomy is None:
        taxonomy = builtin_taxonomy()
    path = Path(path)
    with _open_dataset(path) as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    sidecar = schema_source not in (SCHEMA_INFER_NUMERIC, SCHEMA_GAS_PIPELINE)
    where = f"{path}: schema file {schema_source}" if sidecar else str(path)
    try:
        names, kinds = _schema_request(schema_source, header)
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from exc.__cause__
    if DEFAULT_LABEL_COLUMN not in header:
        raise DatasetError(f"{path}: missing label column {DEFAULT_LABEL_COLUMN!r}")
    positions = []
    for name in names:
        if name not in header:
            raise DatasetError(f"{path}: schema column {name!r} absent from header")
        positions.append(header.index(name))
    try:
        FeatureSchema(tuple(names), tuple(kinds))  # a schema fault comes before any record's
    except DatasetError as exc:
        raise DatasetError(f"{where}: {exc}") from None
    layout = _Layout(len(header), names, kinds, positions, header.index(DEFAULT_LABEL_COLUMN))
    try:
        dataset, empty_line = _read_table(path, layout, taxonomy)
    except Exception as exc:
        error = _first_error(path, layout, taxonomy)
        if error is None:
            raise DatasetError(f"{path}: numpy's reader refused the file: {exc}") from exc
        raise error from None
    if empty_line:  # outside a quoted cell, the walk refuses it
        error = _first_error(path, layout, taxonomy)
        if error is not None:
            raise error
    return dataset


@dataclass(frozen=True)
class _Layout:
    """Where the schema's features and the label sit among a header's
    columns."""

    width: int  # columns in the header
    names: list[str]
    kinds: list[str]
    positions: list[int]  # header column of each feature
    label: int  # header column of the label

    def books(self) -> dict[str, dict]:
        return {n: {} for n, k in zip(self.names, self.kinds) if k == CATEGORICAL}


# A quiet NaN that marks a blank numeric cell in _read_table's table. Neither
# float() nor numpy's reader gives this payload to any text, so a blank
# stays apart from a literal nan, which fails the load.
_BLANK_BITS = 0x7FF8_0000_B1A2_0000
_BLANK = float(np.array(_BLANK_BITS, dtype=np.int64).view(np.float64))


class _CodeBook(dict):
    """Raw cell text -> code, as a loadtxt converter. A text missing from
    the dict is stripped and coded through `codes`, in first-occurrence
    order of the stripped texts, so Python runs once per distinct raw text.
    """

    def __init__(self, codes: dict[str, int]):
        super().__init__()
        self.codes = codes

    def __missing__(self, text: str) -> int:
        code = self[text] = self.codes.setdefault(text.strip(), len(self.codes))
        return code


class _Numeric(dict):
    """Cell text -> float, as a loadtxt converter: the empty text is the
    blank marker, any other goes through float(), which strips it."""

    __missing__ = float


class _PaddedNumeric(_Numeric):
    """As _Numeric, and a text of only whitespace is the blank marker too."""

    def __missing__(self, text: str) -> float:
        return float(text) if text.strip() else _BLANK


def _record_lines(fh, empty: list):
    """The lines after the header. numpy skips an empty line, so an empty
    or whitespace-only line is also put in `empty`."""
    next(csv.reader(fh))
    for line in fh:
        if not line.strip():
            empty.append(line)
        yield line


def _load_table(
    path: Path, layout: _Layout, numeric: type[_Numeric] | None
) -> tuple[np.ndarray, dict, bool]:
    """The float64 table of every record and header column, the code books
    it was coded by, and whether the file holds an empty line. numpy parses
    a numeric cell itself, or, given a converter class, reads it through
    that."""
    books = layout.books()
    converters: dict = {col: len for col in range(layout.width)}  # outside the schema
    for name, col in zip(layout.names, layout.positions):
        if name in books:
            converters[col] = _CodeBook(books[name]).__getitem__
        elif numeric is not None:
            converters[col] = numeric({"": _BLANK}).__getitem__
        else:
            del converters[col]
    converters[layout.label] = int
    empty: list[str] = []
    with _open_dataset(path) as fh:
        table = np.loadtxt(
            _record_lines(fh, empty),
            dtype=np.float64,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=2,
            converters=converters,
            encoding=None,  # converters take str, under numpy 1.x as well
        )
    return table, books, bool(empty)


def _read_table(path: Path, layout: _Layout, taxonomy: AttackTaxonomy) -> tuple[Dataset, bool]:
    """The Dataset of the CSV at path, read by numpy's C text reader, and
    whether the file holds an empty line. Raises on any exception or
    warning, or when a check fails. numpy parses the numeric cells of a
    first pass; a file with a blank numeric cell takes a second pass that
    reads them through _Numeric, and one with a cell of only whitespace a
    third, through _PaddedNumeric. _dataset gets the features with a free
    column after them, for the missing flag: the table's next column, as a
    view, where the features are consecutive and a column follows them, and
    otherwise one copy of the feature columns and the label column."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for numeric in (None, _Numeric, _PaddedNumeric):
            try:
                table, books, empty_line = _load_table(path, layout, numeric)
                break
            except Exception:
                if numeric is _PaddedNumeric:
                    raise
        if table.shape[1] != layout.width:
            raise ValueError(f"rows of {table.shape[1]} fields under a header of {layout.width}")
        labels = table[:, layout.label]
        if not ((labels >= 0) & (labels <= MAX_UNIT_ID)).all():
            raise ValueError(f"a label outside 0..{MAX_UNIT_ID}")
        first, count = layout.positions[0], len(layout.positions)
        if first + count < layout.width and layout.positions == list(range(first, first + count)):
            matrix = table[:, first : first + count + 1]
        else:
            matrix = table[:, layout.positions + [layout.label]]
        features = matrix[:, :count]
        blank = features.view(np.int64) == _BLANK_BITS if numeric else None
        finite = np.isfinite(features)
        if not (finite.all() if blank is None else (finite | blank).all()):
            raise ValueError("a non-finite numeric cell")
        dataset = _dataset(layout, books, matrix, blank, labels.astype(np.int64), taxonomy)
    return dataset, empty_line


def _first_error(path: Path, layout: _Layout, taxonomy: AttackTaxonomy) -> DatasetError | None:
    """The DatasetError naming the line at fault in the CSV at path, as a
    walk with csv.reader finds it: the first bad row, or else the first
    non-finite numeric cell. None when it finds no fault."""
    width = layout.width
    numeric = [
        (name, col) for name, kind, col in zip(layout.names, layout.kinds, layout.positions)
        if kind == NUMERIC
    ]
    where = nonfinite = None
    with _open_dataset(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != width:
                return DatasetError(f"{where}: expected {width} fields, found {len(row)}")
            for name, col in numeric:
                text = row[col].strip()
                try:
                    value = float(text) if text else 0.0  # a blank cell
                except ValueError:
                    return DatasetError(
                        f"{where}: column {name!r}: unparseable numeric value {text!r}"
                    )
                # float() also reads nan, inf and text past the float range
                if nonfinite is None and not math.isfinite(value):
                    nonfinite = DatasetError(
                        f"{where}: column {name!r}: non-finite numeric value {value}"
                    )
            text = row[layout.label].strip()
            try:
                label = int(text)
            except ValueError:
                return DatasetError(f"{where}: unparseable attack_type {text!r}")
            if label < 0:
                return DatasetError(f"{where}: negative attack_type {label}")
            if label != BENIGN and label not in taxonomy.types:
                return DatasetError(f"{where}: unknown attack_type id {label}")
    if where is None:
        return DatasetError(f"{path}: no data rows")
    return nonfinite


def _dataset(
    layout: _Layout,
    books: dict,
    matrix: np.ndarray,
    blank: np.ndarray | None,
    labels: np.ndarray,
    taxonomy: AttackTaxonomy,
) -> Dataset:
    """Build the Dataset of a parsed matrix, whose first F columns hold the
    F features and whose next column may be overwritten. Where `blank`
    marks a blank cell, a feature takes the median of its other cells (0 if
    it has none), and a missing flag feature, written into that next column,
    is appended when any cell was blank."""
    names, kinds = layout.names, layout.kinds
    count = len(names)
    if blank is not None and blank.any():
        for fpos in np.flatnonzero(blank.any(axis=0)).tolist():
            column, gaps = matrix[:, fpos], blank[:, fpos]
            observed = column[~gaps]
            column[gaps] = float(np.median(observed)) if observed.size else 0.0
        matrix[:, count] = blank.any(axis=1)
        flag_name = MISSING_FLAG_NAME
        while flag_name in names:
            flag_name += "_"
        names = names + [flag_name]
        kinds = kinds + [NUMERIC]
        count += 1

    schema = FeatureSchema(
        feature_names=tuple(names),
        feature_kinds=tuple(kinds),
        categorical_codes={n: tuple(book) for n, book in books.items()},
    )
    return Dataset(schema, matrix[:, :count], labels, taxonomy)


def _format_numeric(value: float) -> str:
    return "%.9g" % value


def dataset_to_csv(d: Dataset) -> str:
    """Render the CSV exchange text: numeric cells at 9 significant digits,
    categorical cells as their code-book text, LF line endings.
    """
    schema = d.schema
    out = [",".join([*schema.feature_names, DEFAULT_LABEL_COLUMN])]
    books = [
        schema.categorical_codes.get(name, ()) if kind == CATEGORICAL else None
        for name, kind in zip(schema.feature_names, schema.feature_kinds)
    ]
    for row, label in zip(d.features.tolist(), d.attack_types.tolist()):
        cells = []
        for value, book in zip(row, books):
            if book is None:
                cells.append(_format_numeric(value))
            else:
                code = int(value)
                cells.append(book[code] if 0 <= code < len(book) else UNKNOWN_CATEGORY_TEXT)
        cells.append(str(label))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def write_dataset(d: Dataset, path: str | Path) -> None:
    from .fileio import atomic_write_text

    atomic_write_text(path, dataset_to_csv(d))


# ---------------------------------------------------------------------------
# Synthetic datasets


@dataclass(frozen=True)
class AttackSpec:
    """One planted attack population: `count` draws from the benign noise
    distribution with `offset` added on the signature feature positions.
    Specs sharing an overlap_group must use identical signature features,
    making their populations mutually detectable by construction.
    """

    attack_type: int
    count: int
    signature_features: tuple[int, ...]
    offset: float
    overlap_group: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        # offset becomes a float, so that "offset": 6 and 6.0 make equal configs
        check_int(self.attack_type, "attack_type", 1, error=DatasetError)
        where = f"attack {self.attack_type}"
        check_int(self.count, f"{where} count", 1, error=DatasetError)
        features = check_ints(
            self.signature_features, f"{where} signature_features", 0, error=DatasetError
        )
        if not features or len(set(features)) != len(features):
            raise DatasetError(f"{where} signature_features must be non-empty and distinct")
        object.__setattr__(self, "signature_features", features)
        offset = check_real(self.offset, f"{where} offset", error=DatasetError)
        object.__setattr__(self, "offset", float(offset))
        if self.overlap_group is not None:
            check_int(self.overlap_group, f"{where} overlap_group", 0, error=DatasetError)
        if self.name is not None:
            check_text(self.name, f"{where} name", error=DatasetError)


@dataclass(frozen=True)
class SyntheticConfig:
    benign_count: int
    attacks: tuple[AttackSpec, ...]
    base_dim: int
    noise_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.benign_count, "benign_count", 1, error=DatasetError)
        check_int(self.base_dim, "base_dim", 1, error=DatasetError)
        noise = check_real(self.noise_scale, "noise_scale", positive=True, error=DatasetError)
        object.__setattr__(self, "noise_scale", float(noise))
        check_int(self.seed, "synthetic seed", 0, error=DatasetError)
        types = [spec.attack_type for spec in self.attacks]
        if not types or len(set(types)) != len(types):
            raise DatasetError(f"attacks must be non-empty, without duplicate attack_type: {types}")
        group_signatures: dict[int, list[int]] = {}
        for spec in self.attacks:
            signature, group = sorted(spec.signature_features), spec.overlap_group
            if signature[-1] >= self.base_dim:
                raise DatasetError(f"attack {spec.attack_type}: signature feature past base_dim")
            if group is not None and group_signatures.setdefault(group, signature) != signature:
                raise DatasetError(
                    f"attack {spec.attack_type}: overlap_group {group} "
                    "members must share identical signature features"
                )
        synthetic_taxonomy(self)  # refuses ids past MAX_UNIT_ID before anything is written


def synthetic_taxonomy(cfg: SyntheticConfig) -> AttackTaxonomy:
    # Each synthetic attack type doubles as its own category, so attack- and
    # category-level runs coincide on synthetic data.
    types = {}
    categories = {}
    for spec in sorted(cfg.attacks, key=lambda s: s.attack_type):
        name = spec.name or f"synthetic-{spec.attack_type}"
        types[spec.attack_type] = AttackType(name, spec.attack_type)
        categories[spec.attack_type] = AttackCategory(f"A{spec.attack_type}", name)
    return AttackTaxonomy(types, categories)


def generate_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Generate a labeled dataset: benign rows are Gaussian noise around 0;
    each attack row is a fresh benign draw plus its signature offset. The
    assembled records are shuffled into a seed-determined interleaved order.
    Pure function of cfg: equal configs produce identical datasets.
    """
    rng = np.random.default_rng(cfg.seed)
    blocks = [rng.normal(0.0, cfg.noise_scale, (cfg.benign_count, cfg.base_dim))]
    labels = [np.zeros(cfg.benign_count, dtype=np.int64)]
    for spec in cfg.attacks:
        block = rng.normal(0.0, cfg.noise_scale, (spec.count, cfg.base_dim))
        block[:, list(spec.signature_features)] += spec.offset
        blocks.append(block)
        labels.append(np.full(spec.count, spec.attack_type, dtype=np.int64))
    matrix = np.vstack(blocks)
    label_vec = np.concatenate(labels)
    order = rng.permutation(len(label_vec))
    matrix = matrix[order]
    label_vec = label_vec[order]

    schema = FeatureSchema(
        feature_names=tuple(f"f{j}" for j in range(cfg.base_dim)),
        feature_kinds=(NUMERIC,) * cfg.base_dim,
    )
    return Dataset(schema, matrix, label_vec, synthetic_taxonomy(cfg))


def synthetic_config_from_dict(data: dict) -> SyntheticConfig:
    """Decode the JSON form that `dataclasses.asdict` gives. An unknown key
    raises ConfigError.
    """
    reject_unknown_keys(data, [f.name for f in fields(SyntheticConfig)], "synthetic config")
    try:
        for entry in data["attacks"]:
            reject_unknown_keys(entry, [f.name for f in fields(AttackSpec)], "synthetic attack")
        attacks = tuple(AttackSpec(**entry) for entry in data["attacks"])
        return SyntheticConfig(**{**data, "attacks": attacks})
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"malformed synthetic config: {exc}") from exc
