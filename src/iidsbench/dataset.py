"""Labeled ICS traffic datasets and the two-level attack taxonomy.

A dataset is a float64 feature matrix with one row per record and an int64
vector of attack_type ids, one per row. Row order is capture order and is
load-bearing: windowed classifiers consume rows relative to it. Attack type
0 means benign. Results are reported per unit: a record's unit is its attack
type at attack level and that type's category at category level, benign is
unit 0 at both, and AttackTaxonomy.units alone maps types to units.

The module covers four jobs: parsing/writing the CSV exchange format,
validating invariants, summarizing label composition, and generating
synthetic datasets with planted attack signatures for controlled
experiments.
"""

from __future__ import annotations

import csv
import io
import json
from array import array
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
from .validation import Violation

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
            if tid <= 0:
                raise TaxonomyError(f"attack type id must be positive, got {tid}")
            if at.category not in self.categories:
                raise TaxonomyError(
                    f"attack type {tid} references missing category {at.category}"
                )
        for cid in self.categories:
            if cid <= 0:
                raise TaxonomyError(f"category id must be positive, got {cid}")

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
        text = path.read_text(encoding="utf-8")
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
    labeled by `attack_types[i]` (int64).
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


def validate_dataset(d: Dataset) -> list[Violation]:
    """Check every label and composition invariant; report all findings,
    label findings in record order.
    """
    findings: list[Violation] = []
    labels = d.attack_types
    known = np.isin(labels, list(d.taxonomy.types))
    for position in np.flatnonzero((labels != BENIGN) & ~known).tolist():
        label = int(labels[position])
        if label < 0:
            message = f"negative attack_type {label}"
        else:
            message = f"attack_type {label} absent from taxonomy"
        findings.append(Violation("label", message, position))
    if not (labels == BENIGN).any():
        findings.append(Violation("composition", "dataset has no benign records"))
    if not known.any():
        findings.append(Violation("composition", "dataset has no malicious records"))
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
        malicious_fraction=malicious / len(labels) if len(labels) else 0.0,
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
    """Resolve (names, kinds) for the requested schema against a CSV header."""
    if schema_source == SCHEMA_INFER_NUMERIC:
        names = [h for h in header if h != DEFAULT_LABEL_COLUMN]
        return names, [NUMERIC] * len(names)
    if schema_source == SCHEMA_GAS_PIPELINE:
        return [n for n, _ in _GAS_PIPELINE_COLUMNS], [k for _, k in _GAS_PIPELINE_COLUMNS]
    path = Path(schema_source)
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read schema file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"schema file {path} is not valid JSON: {exc}") from exc
    try:
        features = spec["features"]
        names = [f["name"] for f in features]
        kinds = [f["kind"] for f in features]
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"schema file {path} missing feature entries: {exc}") from exc
    return names, kinds


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
    """
    if taxonomy is None:
        taxonomy = builtin_taxonomy()
    path = Path(path)
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        names, kinds = _schema_request(schema_source, header)
        if DEFAULT_LABEL_COLUMN not in header:
            raise DatasetError(f"{path}: missing label column {DEFAULT_LABEL_COLUMN!r}")
        positions = []
        for name in names:
            if name not in header:
                raise DatasetError(f"{path}: schema column {name!r} absent from header")
            positions.append(header.index(name))
        label_pos = header.index(DEFAULT_LABEL_COLUMN)

        books: dict[str, dict[str, int]] = {
            n: {} for n, k in zip(names, kinds) if k == CATEGORICAL
        }
        columns = [(name, col, books.get(name)) for name, col in zip(names, positions)]
        values = array("d")  # cells in row-major order
        labels = array("q")
        missing: list[int] = []  # positions in values of blank numeric cells
        for row in reader:
            line = reader.line_num
            if len(row) != len(header):
                raise DatasetError(
                    f"{path}: line {line}: expected {len(header)} fields, found {len(row)}"
                )
            for name, col, book in columns:
                text = row[col].strip()
                if book is not None:
                    values.append(book.setdefault(text, len(book)))
                elif not text:
                    missing.append(len(values))
                    values.append(np.nan)
                else:
                    try:
                        values.append(float(text))
                    except ValueError:
                        raise DatasetError(
                            f"{path}: line {line}: column {name!r}: "
                            f"unparseable numeric value {text!r}"
                        ) from None
            label_text = row[label_pos].strip()
            try:
                label = int(label_text)
            except ValueError:
                raise DatasetError(
                    f"{path}: line {line}: unparseable attack_type {label_text!r}"
                ) from None
            if label < 0:
                raise DatasetError(f"{path}: line {line}: negative attack_type {label}")
            if label != BENIGN and label not in taxonomy.types:
                raise DatasetError(f"{path}: line {line}: unknown attack_type id {label}")
            labels.append(label)

    if not labels:
        raise DatasetError(f"{path}: no data rows")

    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(labels), len(names))
    if missing:
        flagged, blank_columns = np.divmod(np.asarray(missing), len(names))
        for fpos in np.unique(blank_columns).tolist():
            column = matrix[:, fpos]
            observed = column[~np.isnan(column)]
            median = float(np.median(observed)) if observed.size else 0.0
            column[np.isnan(column)] = median
        flag = np.zeros(len(labels))
        flag[flagged] = 1.0
        matrix = np.column_stack((matrix, flag))
        flag_name = MISSING_FLAG_NAME
        while flag_name in names:
            flag_name += "_"
        names = names + [flag_name]
        kinds = kinds + [NUMERIC]

    schema = FeatureSchema(
        feature_names=tuple(names),
        feature_kinds=tuple(kinds),
        categorical_codes={n: tuple(book) for n, book in books.items()},
    )
    return Dataset(schema, matrix, np.frombuffer(labels, dtype=np.int64), taxonomy)


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


def _synthetic_taxonomy(cfg: SyntheticConfig) -> AttackTaxonomy:
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
    return Dataset(schema, matrix, label_vec, _synthetic_taxonomy(cfg))


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
