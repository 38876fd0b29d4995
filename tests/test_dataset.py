"""Dataset ingestion, taxonomy, stats, synthetic generation."""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from iidsbench import dataset as dataset_module
from iidsbench.dataset import (
    MAX_UNIT_ID,
    AttackCategory,
    AttackSpec,
    AttackTaxonomy,
    AttackType,
    Dataset,
    FeatureSchema,
    SyntheticConfig,
    builtin_taxonomy,
    dataset_stats,
    dataset_to_csv,
    generate_synthetic,
    load_taxonomy,
    parse_dataset,
    synthetic_config_from_dict,
    taxonomy_to_csv,
    validate_dataset,
    write_dataset,
)
from iidsbench.errors import DatasetError, SplitError, TaxonomyError
from iidsbench.fileio import read_json
from iidsbench.metrics import per_group_recall
from iidsbench.splitting import ScenarioSpec, materialize_split, partition_folds

from conftest import check_split, flat_taxonomy, tiny_dataset


# -- builtin taxonomy -------------------------------------------------------

CATEGORY_COUNTS = {1: 4, 2: 7, 3: 5, 4: 12, 5: 3, 6: 1, 7: 3}


def test_builtin_taxonomy_shape():
    tax = builtin_taxonomy()
    assert len(tax.types) == 35
    assert len(tax.categories) == 7
    counts = {cid: 0 for cid in tax.categories}
    for at in tax.types.values():
        counts[at.category] += 1
    assert counts == CATEGORY_COUNTS
    assert sum(CATEGORY_COUNTS.values()) == 35


def test_builtin_category_abbreviations():
    tax = builtin_taxonomy()
    abbrs = [tax.categories[c].abbreviation for c in sorted(tax.categories)]
    assert abbrs == ["NMRI", "CMRI", "MSCI", "MPCI", "MFCI", "DoS", "Recon"]
    assert len(
        [t for t in tax.types.values() if t.category == 4]
    ) == 12  # MPCI
    assert len([t for t in tax.types.values() if t.category == 6]) == 1  # DoS


def test_builtin_sequential_ids():
    # ids run 1..35 grouped by category in Table order; attack 3 therefore
    # sits in category 1, not 3 (see the decisions ledger for the rationale)
    tax = builtin_taxonomy()
    assert sorted(tax.types) == list(range(1, 36))
    assert tax.category_of(1) == 1
    assert tax.category_of(3) == 1
    assert tax.category_of(4) == 1
    assert tax.category_of(5) == 2
    assert tax.category_of(17) == 4
    assert tax.category_of(32) == 6
    assert tax.category_of(35) == 7


def test_unit_labels():
    tax = builtin_taxonomy()
    assert tax.unit_label("category", 4) == "MPCI"
    assert tax.unit_label("attack", 1) == "1.1"
    assert tax.unit_label("attack", 17) == "4.1"
    assert tax.unit_label("attack", 28) == "4.12"
    assert tax.unit_label("attack", 35) == "7.3"


def test_taxonomy_referential_integrity():
    from iidsbench.dataset import AttackCategory, AttackType

    with pytest.raises(TaxonomyError):
        AttackTaxonomy(
            types={1: AttackType("a", 9)},
            categories={1: AttackCategory("X", "x")},
        )


@pytest.mark.parametrize("where", ["type", "category"])
def test_taxonomy_refuses_ids_past_bound(where):
    # an id sizes the tables units are counted in; 10**12 would need terabytes
    big = 10**12
    tid, cid = (big, 1) if where == "type" else (1, big)
    with pytest.raises(TaxonomyError, match=f"{MAX_UNIT_ID}, got {big}$"):
        AttackTaxonomy(
            types={tid: AttackType("a", cid)}, categories={cid: AttackCategory("X", "x")}
        )
    edge = AttackTaxonomy(
        types={MAX_UNIT_ID: AttackType("a", MAX_UNIT_ID)},
        categories={MAX_UNIT_ID: AttackCategory("X", "x")},
    )
    assert edge.unit_ids("attack") == [MAX_UNIT_ID]


def test_load_taxonomy_round_trip(tmp_path):
    from iidsbench.dataset import AttackCategory, AttackType

    quoted = AttackTaxonomy(
        types={1: AttackType("scan, slow", 1), 2: AttackType('say "hi"', 1)},
        categories={1: AttackCategory("C1", 'odd, "quoted" category')},
    )
    for tax in (builtin_taxonomy(), quoted):
        path = tmp_path / "tax.csv"
        path.write_text(taxonomy_to_csv(tax))
        again = load_taxonomy(path)
        assert again.types == tax.types
        assert again.categories == tax.categories


def test_load_taxonomy_dangling_category(tmp_path):
    path = tmp_path / "tax.csv"
    path.write_text(
        "kind,id,name,category,abbreviation\n"
        "category,1,cat one,,C1\n"
        "attack,1,atk one,9,\n"
    )
    with pytest.raises(TaxonomyError, match="9"):
        load_taxonomy(path)


def test_load_taxonomy_duplicate_attack(tmp_path):
    path = tmp_path / "tax.csv"
    path.write_text(
        "kind,id,name,category,abbreviation\n"
        "category,1,cat one,,C1\n"
        "attack,1,atk one,1,\n"
        "attack,1,atk dup,1,\n"
    )
    with pytest.raises(TaxonomyError, match="duplicate"):
        load_taxonomy(path)


def test_readme_taxonomy_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```csv\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "tax.csv"
    path.write_text(example)
    tax = load_taxonomy(path)
    builtin = builtin_taxonomy()
    assert tax.types == {t: builtin.types[t] for t in (1, 2, 32)}
    assert tax.categories == {c: builtin.categories[c] for c in (1, 6)}


# -- columnar Dataset -------------------------------------------------------


def test_dataset_rejects_mismatched_shapes():
    schema = FeatureSchema(feature_names=("f0", "f1"), feature_kinds=("numeric", "numeric"))
    tax = flat_taxonomy([1])
    labels = np.array([0, 1, 0], dtype=np.int64)
    Dataset(schema, np.zeros((3, 2)), labels, tax)
    with pytest.raises(DatasetError, match="2 features"):
        Dataset(schema, np.zeros((3, 3)), labels, tax)
    with pytest.raises(DatasetError, match="2 features"):
        Dataset(schema, np.zeros(6), labels, tax)
    with pytest.raises(DatasetError, match="label 4 rows"):
        Dataset(schema, np.zeros((4, 2)), labels, tax)
    with pytest.raises(DatasetError, match="label 3 rows"):
        Dataset(schema, np.zeros((3, 2)), labels.reshape(3, 1), tax)
    with pytest.raises(DatasetError, match="float64"):
        Dataset(schema, np.zeros((3, 2), dtype=np.float32), labels, tax)
    with pytest.raises(DatasetError, match="int64"):
        Dataset(schema, np.zeros((3, 2)), labels.astype(np.int32), tax)


def test_dataset_rejects_zero_rows():
    schema = FeatureSchema(feature_names=("f0", "f1"), feature_kinds=("numeric", "numeric"))
    empty = np.zeros(0, dtype=np.int64)
    with pytest.raises(DatasetError, match="^dataset has no rows$"):
        Dataset(schema, np.zeros((0, 2)), empty, flat_taxonomy([1]))


# -- parsing ----------------------------------------------------------------


def test_parse_four_row_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "f0,f1,attack_type\n"
        "1.0,2.0,0\n"
        "1.5,2.5,0\n"
        "9.0,2.0,3\n"
        "9.5,2.5,3\n"
    )
    d = parse_dataset(path)
    assert len(d) == 4
    assert d.attack_types.tolist() == [0, 0, 3, 3]
    assert d.binary_labels().sum() == 2
    # sequential Table-order ids put attack 3 in category 1 (NMRI)
    assert d.taxonomy.category_of(3) == 1
    assert d.features[2].tolist() == [9.0, 2.0]


def test_parse_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n")
    with pytest.raises(DatasetError, match="no data rows"):
        parse_dataset(path)


def test_schema_fault_comes_before_a_record_fault(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f0,attack_type\n1,2,0\n1,0\n")
    with pytest.raises(DatasetError) as err:
        parse_dataset(path)
    assert str(err.value) == f"{path}: schema feature names are not unique"


@pytest.mark.parametrize(
    "schema_text, fault",
    [
        ('{"features": [{"name": "f0", "kind": "numerc"}]}', "unknown feature kind 'numerc'"),
        (
            '{"features": [{"name": "f0", "kind": "numeric"}, {"name": "f0", "kind": "numeric"}]}',
            "schema feature names are not unique",
        ),
        ('{"features": []}', "schema has no features"),
        ('{"features": [{"name": "f0"}]}', "missing feature entries: 'kind'"),
        ('{"features": [', "not valid JSON: "),
        (None, "cannot be read: "),
    ],
)
def test_sidecar_schema_fault_names_both_files(tmp_path, schema_text, fault):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n1,0\n")
    schema = tmp_path / "schema.json"
    if schema_text is not None:
        schema.write_text(schema_text)
    with pytest.raises(DatasetError) as err:
        parse_dataset(path, schema)
    assert str(err.value).startswith(f"{path}: schema file {schema}: {fault}")


def test_parse_wrong_arity_names_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,f1,attack_type\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(DatasetError, match="line 3"):
        parse_dataset(path)


def test_parse_bad_float_names_line_and_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n1.0,0\nnope,1\n")
    with pytest.raises(DatasetError) as err:
        parse_dataset(path)
    assert "line 3" in str(err.value)
    assert "f0" in str(err.value)


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "+Infinity", "1e999"])
def test_parse_rejects_non_finite_numeric_text(tmp_path, text):
    path = tmp_path / "d.csv"
    # the blank on line 2 is imputed, not rejected
    path.write_text(f"f0,f1,attack_type\n,1,0\n2.0,1,1\n3.0,{text},0\n4,1,1\n")
    with pytest.raises(DatasetError, match="line 4: column 'f1': non-finite numeric value"):
        parse_dataset(path)


def test_parse_unknown_attack_id(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n1.0,0\n2.0,99\n")
    with pytest.raises(DatasetError, match="99"):
        parse_dataset(path)


def test_parse_negative_attack_id(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n1.0,0\n2.0,-1\n")
    with pytest.raises(DatasetError, match="-1"):
        parse_dataset(path)


def test_parse_missing_numeric_imputes_median_and_flags(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f0,attack_type\n1.0,0\n,0\n3.0,1\n5.0,1\n")
    d = parse_dataset(path)
    assert d.schema.feature_names == ("f0", "missing_any")
    # median of present values {1, 3, 5}
    assert d.features[1].tolist() == [3.0, 1.0]
    assert d.features[0].tolist() == [1.0, 0.0]


def test_parse_categorical_first_occurrence_codes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("mode,attack_type\nauto,0\nmanual,0\nauto,1\n")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"features": [{"name": "mode", "kind": "categorical"}]}))
    d = parse_dataset(path, schema_source=schema_path)
    assert d.schema.categorical_codes["mode"] == ("auto", "manual")
    assert d.features[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_round_trip_write_parse(tmp_path):
    cfg = SyntheticConfig(
        benign_count=40,
        attacks=(AttackSpec(1, 10, (0,), 4.0), AttackSpec(2, 10, (1,), 4.0)),
        base_dim=3,
        seed=3,
    )
    d = generate_synthetic(cfg)
    path = tmp_path / "d.csv"
    write_dataset(d, path)
    tax_path = tmp_path / "tax.csv"
    tax_path.write_text(taxonomy_to_csv(d.taxonomy))
    again = parse_dataset(path, taxonomy=load_taxonomy(tax_path))
    assert np.array_equal(again.attack_types, d.attack_types)
    # 9 significant digits survive the trip exactly
    for x, y in zip(d.features.ravel().tolist(), again.features.ravel().tolist()):
        assert y == float(f"{x:.9g}")
    # emitted text is a fixed point of the round trip
    assert dataset_to_csv(again) == path.read_text()


def test_round_trip_categorical_and_blank_cells(tmp_path):
    # a blank numeric cell takes the median (2.5) and the missing_any flag,
    # which the written file then holds as a plain numeric column
    path = tmp_path / "d.csv"
    path.write_text("mode,f0,attack_type\nauto,1.5,0\nmanual,,1\nauto,3.5,0\noff,2.5,1\n")
    features = [{"name": "mode", "kind": "categorical"}, {"name": "f0", "kind": "numeric"}]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"features": features}))
    d = parse_dataset(path, schema_source=schema_path)
    written = tmp_path / "written.csv"
    write_dataset(d, written)
    assert written.read_text().splitlines()[2] == "manual,2.5,1,1"
    kinds = [{"name": n, "kind": k} for n, k in zip(d.schema.feature_names, d.schema.feature_kinds)]
    schema_path.write_text(json.dumps({"features": kinds}))
    again = parse_dataset(written, schema_source=schema_path)
    assert again.features.tobytes() == d.features.tobytes()
    assert again.schema == d.schema
    assert again.schema.categorical_codes == {"mode": ("auto", "manual", "off")}


def parsed(d: Dataset) -> tuple:
    return d.schema, d.features.tolist(), d.attack_types.tolist()


@pytest.mark.parametrize("kind", ["dataset", "taxonomy", "schema", "config"])
def test_leading_bom_is_skipped(tmp_path, kind):
    # spreadsheet exports often begin with a UTF-8 byte-order mark; the label
    # column comes first, where the mark would hide it
    data = tmp_path / "data.csv"
    data.write_text("attack_type,f0,mode\n0,1.5,1\n1,2.5,7\n0,0.5,1\n")
    features = [{"name": "f0", "kind": "numeric"}, {"name": "mode", "kind": "categorical"}]
    schema = json.dumps({"features": features})
    text, load = {
        "dataset": (data.read_text(), lambda path: parsed(parse_dataset(path))),
        "taxonomy": (taxonomy_to_csv(flat_taxonomy([1, 3])), load_taxonomy),
        "schema": (schema, lambda path: parsed(parse_dataset(data, path))),
        "config": (json.dumps({"k": 3, "modes": ["omit"]}), read_json),
    }[kind]
    plain = tmp_path / "plain"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert load(marked) == load(plain)


NUMERIC_PAIR = ("numeric", "numeric")
MISSING_FLAGGED = (("f0", "f1", "missing_any"), ("numeric",) * 3, {})
WELL_FORMED_FEATURES = [("mode", "categorical"), ("f0", "numeric"), ("f1", "numeric")]
WELL_FORMED_CODES = {"mode": ("auto", "man, ual", 'x"y')}

# Awkward files and what parse_dataset makes of them: a sidecar schema's
# features (None: infer-numeric), then either the error after "<path>: " or
# the (names, kinds, code books), the feature rows and the labels.
PARSE_CORPUS = {
    "empty-line": ("f0,attack_type\n1.0,0\n\n2.0,1\n", None, "line 3: expected 2 fields, found 0"),
    "whitespace-numeric-cell": (
        "f0,f1,attack_type\n1.0, ,0\n2.0,4.0,1\n3.0,6.0,0\n",
        None,
        (MISSING_FLAGGED, [[1, 5, 1], [2, 4, 0], [3, 6, 0]], [0, 1, 0]),
    ),
    "underscore-and-arabic-digit": (
        "f0,attack_type\n1_0,0\n\u0663,1\n",
        None,
        ((("f0",), ("numeric",), {}), [[10], [3]], [0, 1]),
    ),
    "quoted-newline-and-numbers": (
        'mode,f0,attack_type\n"a\nb","1.5",0\n"c","2",1\n"a\nb",3,0\n',
        [("mode", "categorical"), ("f0", "numeric")],
        ((("mode", "f0"), ("categorical", "numeric"), {"mode": ("a\nb", "c")}),
         [[0, 1.5], [1, 2], [0, 3]], [0, 1, 0]),
    ),
    "crlf": (
        "f0,attack_type\r\n1.5,0\r\n-2.5,1\r\n",
        None,
        ((("f0",), ("numeric",), {}), [[1.5], [-2.5]], [0, 1]),
    ),
    "leading-space-category": (
        "mode,attack_type\n a,0\na,1\nb ,0\n",
        [("mode", "categorical")],
        ((("mode",), ("categorical",), {"mode": ("a", "b")}), [[0], [0], [1]], [0, 1, 0]),
    ),
    "blank-only-in-last-row": (
        "f0,f1,attack_type\n1,2,0\n3,4,1\n5,,0\n",
        None,
        (MISSING_FLAGGED, [[1, 2, 0], [3, 4, 0], [5, 3, 1]], [0, 1, 0]),
    ),
    "header-only": ("f0,attack_type\n", None, "no data rows"),
    "fourth-field-on-every-row": (
        "f0,f1,attack_type\n1,2,0,9\n3,4,1,9\n", None, "line 2: expected 3 fields, found 4"
    ),
    "label-1.0": ("f0,attack_type\n1,0\n2,1.0\n", None, "line 3: unparseable attack_type '1.0'"),
    "label-signed-and-spaced": (
        "f0,attack_type\n1,0\n2, +3 \n", None, ((("f0",), ("numeric",), {}), [[1], [2]], [0, 3])
    ),
    "label-past-int64": (
        "f0,attack_type\n1,0\n2,99999999999999999999\n",
        None,
        "line 3: unknown attack_type id 99999999999999999999",
    ),
    "nan-then-unparseable": (
        "f0,attack_type\nnan,0\nx,1\n", None, "line 3: column 'f0': unparseable numeric value 'x'"
    ),
    # categoricals, quoted cells and CRLF, with and without blank cells
    "well-formed-no-blanks": (
        'mode,f0,"f1",attack_type\r\nauto,1.5,"2",0\r\n"man, ual",-3e-1,4,1\r\n'
        ' auto,"5",6,0\r\n"x""y",7,8,3\r\n',
        WELL_FORMED_FEATURES,
        ((("mode", "f0", "f1"), ("categorical",) + NUMERIC_PAIR, WELL_FORMED_CODES),
         [[0, 1.5, 2], [1, -0.3, 4], [0, 5, 6], [2, 7, 8]], [0, 1, 0, 3]),
    ),
    "well-formed-blanks": (
        'mode,f0,"f1",attack_type\r\nauto,1.5,"2",0\r\n"man, ual",,3e-1,1\r\n'
        ' auto,"-4","",0\r\n"x""y",7,8,3\r\n',
        WELL_FORMED_FEATURES,
        ((("mode", "f0", "f1", "missing_any"), ("categorical",) + ("numeric",) * 3,
          WELL_FORMED_CODES),
         [[0, 1.5, 2, 0], [1, 1.5, 0.3, 1], [0, -4, 2, 1], [2, 7, 8, 0]], [0, 1, 0, 3]),
    ),
    "sidecar-reorders-and-omits": (
        "a,b,c,attack_type\n1,2,3,0\n4,5,6,1\n",
        [("c", "numeric"), ("a", "numeric")],
        ((("c", "a"), NUMERIC_PAIR, {}), [[3, 1], [6, 4]], [0, 1]),
    ),
    # no column after the features, so they are copied with the label's,
    # which takes the missing flag
    "blanks-label-first": (
        "attack_type,f0,f1\n0,1,\n1,,4\n0,3,6\n",
        None,
        (MISSING_FLAGGED, [[1, 5, 1], [2, 4, 1], [3, 6, 0]], [0, 1, 0]),
    ),
    "sidecar-reorders-with-blanks": (
        "a,b,c,attack_type\n1,,3,0\n4,5,,1\n",
        [("c", "numeric"), ("a", "numeric")],
        ((("c", "a", "missing_any"), ("numeric",) * 3, {}), [[3, 1, 0], [3, 4, 1]], [0, 1]),
    ),
    # the flag goes over an unused column, not over the label
    "sidecar-blanks-before-unused-column": (
        "a,b,c,attack_type\n1,,3,0\n,5,6,1\n",
        [("a", "numeric"), ("b", "numeric")],
        ((("a", "b", "missing_any"), ("numeric",) * 3, {}), [[1, 5, 1], [1, 5, 1]], [0, 1]),
    ),
}


def write_case(tmp_path, text: str, features) -> tuple[Path, str | Path]:
    """The CSV at a path, byte for byte, and the schema source to read it by."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    if features is None:
        return path, "infer-numeric"
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"features": [{"name": n, "kind": k} for n, k in features]}))
    return path, schema


@pytest.mark.parametrize("case", PARSE_CORPUS)
def test_parse_corpus_pinned(tmp_path, case):
    text, features, expected = PARSE_CORPUS[case]
    path, schema = write_case(tmp_path, text, features)
    if isinstance(expected, str):
        with pytest.raises(DatasetError) as err:
            parse_dataset(path, schema)
        assert str(err.value) == f"{path}: {expected}"
        return
    (names, kinds, books), rows, labels = expected
    d = parse_dataset(path, schema)
    assert d.schema == FeatureSchema(names, kinds, books)
    assert d.features.tobytes() == np.array(rows, dtype=np.float64).tobytes()
    assert d.features.shape == (len(rows), len(names))
    assert d.attack_types.tobytes() == np.array(labels, dtype=np.int64).tobytes()


def spy_walk(monkeypatch) -> list:
    """The arguments of every _first_error call from here on."""
    calls = []
    walk = dataset_module._first_error

    def spy(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(dataset_module, "_first_error", spy)
    return calls


@pytest.mark.parametrize("case", PARSE_CORPUS)
def test_valid_csv_skips_the_loop(tmp_path, monkeypatch, case):
    # numpy's reader alone reads a valid file; the csv loop walks a refused
    # one once, to name its line
    text, features, expected = PARSE_CORPUS[case]
    path, schema = write_case(tmp_path, text, features)
    calls = spy_walk(monkeypatch)
    with contextlib.suppress(DatasetError):
        parse_dataset(path, schema)
    assert len(calls) == isinstance(expected, str)


# Files that numpy's reader refuses, or whose table fails a check, so the
# csv loop names the line at fault.
LOOP_DECIDES = {
    "unparseable-cell": "f0,attack_type\n1,0\nx,1\n",
    "empty-line": "f0,attack_type\n1,0\n\n2,1\n",
    "no-records": "f0,attack_type\n",
    "rows-wider-than-header": "f0,f1,attack_type\n1,2,0,9\n3,4,1,9\n",
    "non-finite-cell": "f0,attack_type\n1,0\ninf,1\n",
    "negative-label": "f0,attack_type\n1,0\n2,-1\n",
    "label-past-id-range": "f0,attack_type\n1,0\n2,99999999999999999999\n",
    "label-outside-taxonomy": "f0,attack_type\n1,0\n2,99\n",
}


@pytest.mark.parametrize("case", LOOP_DECIDES)
def test_refused_csv_reaches_the_loop(tmp_path, monkeypatch, case):
    path, schema = write_case(tmp_path, LOOP_DECIDES[case], None)
    calls = spy_walk(monkeypatch)
    with pytest.raises(DatasetError, match="line|no data rows"):
        parse_dataset(path, schema)
    assert len(calls) == 1


def test_quoted_cell_may_hold_an_empty_line(tmp_path, monkeypatch):
    # numpy would skip an empty line between records, so the csv loop checks
    # that this one sits in a quoted cell
    text = 'mode,f0,attack_type\n"a\n\nb",1,0\r\n"c\n \n",2,1\n'
    path, schema = write_case(tmp_path, text, [("mode", "categorical"), ("f0", "numeric")])
    calls = spy_walk(monkeypatch)
    d = parse_dataset(path, schema)
    assert len(calls) == 1
    assert d.schema.categorical_codes == {"mode": ("a\n\nb", "c")}
    assert d.features.tolist() == [[0, 1], [1, 2]]
    assert d.attack_types.tolist() == [0, 1]


def test_reader_failure_on_a_valid_file_is_chained(tmp_path, monkeypatch):
    path, schema = write_case(tmp_path, "f0,attack_type\n1,0\n2,1\n", None)
    failure = RuntimeError("reader broke")

    def broken(*args):
        raise failure

    monkeypatch.setattr(dataset_module, "_load_table", broken)
    with pytest.raises(DatasetError, match="reader broke") as err:
        parse_dataset(path, schema)
    assert err.value.__cause__ is failure


# -- validation -------------------------------------------------------------


def test_validate_clean_dataset():
    d = tiny_dataset([0, 0, 0, 0, 1, 1, 2, 2, 0, 1])
    assert validate_dataset(d) == []


def test_validate_all_benign():
    d = tiny_dataset([0, 0, 0], taxonomy=flat_taxonomy([1]))
    assert validate_dataset(d) == ["[composition] dataset has no malicious records"]


# -- stats ------------------------------------------------------------------


def test_stats_counts():
    d = tiny_dataset([0] * 8 + [1] * 2)
    s = dataset_stats(d)
    assert s.total == 10
    assert s.benign_count == 8
    assert s.malicious_count == 2
    assert s.malicious_fraction == 0.2
    assert s.per_type == {1: 2}


def test_stats_match_synthetic_config():
    cfg = SyntheticConfig(
        benign_count=50,
        attacks=(AttackSpec(1, 7, (0,), 3.0), AttackSpec(4, 11, (1,), 3.0)),
        base_dim=2,
        seed=9,
    )
    s = dataset_stats(generate_synthetic(cfg))
    assert s.total == 68
    assert s.benign_count == 50
    assert s.per_type == {1: 7, 4: 11}


# -- record units -----------------------------------------------------------


def sparse_category_dataset(rng) -> Dataset:
    """Types 1-3 in categories 5 and 100, whose ids exceed every type id,
    plus category 200, which has no types."""
    taxonomy = AttackTaxonomy(
        types={1: AttackType("a", 5), 2: AttackType("b", 100), 3: AttackType("c", 100)},
        categories={c: AttackCategory(f"C{c}", f"category-{c}") for c in (5, 100, 200)},
    )
    labels = rng.choice([0, 1, 2, 3], 60).tolist()
    labels[:4] = [0, 1, 2, 3]
    return tiny_dataset(labels, taxonomy=taxonomy)


def test_units_at_each_level(rng):
    d = sparse_category_dataset(rng)
    labels = d.labels().tolist()
    assert d.units("attack").tolist() == labels
    assert d.units("category").tolist() == [d.taxonomy.category_of(t) for t in labels]
    with pytest.raises(TaxonomyError, match="level"):
        d.units("family")


@pytest.mark.parametrize("label", [-1, 3, 9])
@pytest.mark.parametrize("level", ["attack", "category"])
def test_label_outside_taxonomy_is_named(label, level):
    # below every id, in a gap between ids, and above the largest
    labels = np.array([0, 1, 2, 4, label], dtype=np.int64)
    taxonomy = flat_taxonomy([1, 2, 4])
    message = f"^unknown attack type id {label}$"
    with pytest.raises(TaxonomyError, match=message):
        tiny_dataset(labels.tolist(), taxonomy=taxonomy)
    with pytest.raises(TaxonomyError, match=message):
        taxonomy.units(labels, level)
    with pytest.raises(TaxonomyError, match=message):
        per_group_recall([False] * len(labels), labels, taxonomy, level)


def test_sparse_category_recall_matches_oracle(rng):
    d = sparse_category_dataset(rng)
    pred = rng.integers(0, 2, len(d)).astype(bool).tolist()
    row = per_group_recall(pred, d.labels(), d.taxonomy, "category")
    groups = [d.taxonomy.category_of(t) for t in d.labels().tolist()]
    assert row["values"].keys() == {0, 5, 100, 200}
    assert row["values"][200] is None
    for group in (0, 5, 100):
        members = [i for i, g in enumerate(groups) if g == group]
        correct = [pred[i] != (group == 0) for i in members]
        assert row["values"][group] == sum(correct) / len(members)


def test_sparse_category_splits_and_stats_agree(rng):
    d = sparse_category_dataset(rng)
    labels = d.labels().tolist()
    groups = [d.taxonomy.category_of(t) for t in labels]
    plan = partition_folds(d, 3, seed=2)
    for mode in ("omit", "only"):
        for target in (5, 100):
            split = materialize_split(d, plan, 1, ScenarioSpec(mode, "category", target))
            assert check_split(d, split, plan) == []
            train = set(split.train_indices.tolist())
            members = {i for i, g in enumerate(groups) if g == target}
            malicious = {i for i, t in enumerate(labels) if t != 0}
            assert not (members & train if mode == "omit" else (malicious - members) & train)
        with pytest.raises(SplitError, match="empty target unit"):
            materialize_split(d, plan, 1, ScenarioSpec(mode, "category", 200))
    stats = dataset_stats(d)
    assert stats.per_type == {t: labels.count(t) for t in (1, 2, 3)}
    assert stats.per_category == {5: groups.count(5), 100: groups.count(100)}


# -- synthetic generation ---------------------------------------------------


def test_synthetic_deterministic():
    cfg = SyntheticConfig(
        benign_count=100, attacks=(AttackSpec(1, 20, (0,), 5.0),), base_dim=3, seed=7
    )
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert len(a) == 120
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.attack_types, b.attack_types)


def test_synthetic_overlap_group_shares_shift():
    cfg = SyntheticConfig(
        benign_count=400,
        attacks=(
            AttackSpec(1, 100, (2,), 5.0, overlap_group=1),
            AttackSpec(2, 100, (2,), 5.0, overlap_group=1),
        ),
        base_dim=4,
        noise_scale=1.0,
        seed=5,
    )
    d = generate_synthetic(cfg)
    x = d.feature_matrix()
    y = d.labels()
    tol = 3.0 * cfg.noise_scale / math.sqrt(100)
    for t in (1, 2):
        assert abs(x[y == t, 2].mean() - 5.0) < tol
    assert abs(x[y == 0, 2].mean()) < 3.0 * cfg.noise_scale / math.sqrt(400)


def test_synthetic_zero_offset_indistinguishable():
    cfg = SyntheticConfig(
        benign_count=500,
        attacks=(AttackSpec(1, 500, (0,), 0.0),),
        base_dim=2,
        seed=13,
    )
    d = generate_synthetic(cfg)
    x = d.feature_matrix()
    y = d.labels()
    diff = abs(x[y == 1, 0].mean() - x[y == 0, 0].mean())
    stderr = math.sqrt(1.0 / 500 + 1.0 / 500)
    assert diff < 3.0 * stderr


def test_synthetic_config_validation_names_field():
    with pytest.raises(DatasetError, match="benign_count"):
        generate_synthetic(SyntheticConfig(0, (AttackSpec(1, 5, (0,), 1.0),), 2))
    with pytest.raises(DatasetError, match="signature"):
        generate_synthetic(SyntheticConfig(5, (AttackSpec(1, 5, (9,), 1.0),), 2))
    with pytest.raises(DatasetError, match="overlap_group"):
        generate_synthetic(
            SyntheticConfig(
                5,
                (
                    AttackSpec(1, 5, (0,), 1.0, overlap_group=1),
                    AttackSpec(2, 5, (1,), 1.0, overlap_group=1),
                ),
                2,
            )
        )
    with pytest.raises(DatasetError, match="duplicate attack_type"):
        generate_synthetic(
            SyntheticConfig(5, (AttackSpec(1, 5, (0,), 1.0), AttackSpec(1, 5, (0,), 1.0)), 2)
        )


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", 5.0),
        ("signature_features", (-1,)),
        ("signature_features", (0, 0)),
        ("signature_features", 0),
        ("offset", float("nan")),
        ("offset", "6"),
        ("overlap_group", 1.0),
        ("name", ""),
    ],
)
def test_attack_spec_field_checked(field, value):
    fields = {"attack_type": 1, "count": 5, "signature_features": (0,), "offset": 1.0}
    with pytest.raises(DatasetError, match=field):
        AttackSpec(**{**fields, field: value})


def test_synthetic_numbers_normalized():
    cfg = SyntheticConfig(5, (AttackSpec(1, 5, [0], 2),), 2, noise_scale=1)
    assert cfg.attacks[0].signature_features == (0,)
    assert type(cfg.attacks[0].offset) is float and type(cfg.noise_scale) is float
    with pytest.raises(DatasetError, match="noise_scale"):
        SyntheticConfig(5, cfg.attacks, 2, noise_scale=0)


def test_synthetic_config_json_round_trip():
    cfg = SyntheticConfig(
        benign_count=10,
        attacks=(AttackSpec(1, 5, (0, 1), 2.5, overlap_group=3, name="probe"),),
        base_dim=4,
        noise_scale=0.5,
        seed=42,
    )
    assert synthetic_config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg
    with pytest.raises(DatasetError):
        synthetic_config_from_dict({"benign_count": 10})
