"""Dataset ingestion, taxonomy, stats, synthetic generation."""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from iidsbench.dataset import (
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
from iidsbench.metrics import per_group_recall
from iidsbench.splitting import ScenarioSpec, check_split, materialize_split, partition_folds

from conftest import flat_taxonomy, tiny_dataset


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
    with pytest.raises(DatasetError, match="empty"):
        parse_dataset(path)


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


# -- validation -------------------------------------------------------------


def test_validate_clean_dataset():
    d = tiny_dataset([0, 0, 0, 0, 1, 1, 2, 2, 0, 1])
    assert validate_dataset(d) == []


def test_validate_unknown_attack_type():
    d = tiny_dataset([0, 0, 1, 99], taxonomy=flat_taxonomy([1]))
    findings = validate_dataset(d)
    assert len(findings) == 1
    assert findings[0].record_index == 3
    assert "99" in findings[0].message


def test_validate_all_benign():
    d = tiny_dataset([0, 0, 0], taxonomy=flat_taxonomy([1]))
    findings = validate_dataset(d)
    assert len(findings) == 1
    assert "no malicious" in findings[0].message


def test_validate_reports_all_violations():
    d = tiny_dataset([0, 99, -2, 98], taxonomy=flat_taxonomy([1]))
    findings = [f for f in validate_dataset(d) if f.record_index is not None]
    assert [f.record_index for f in findings] == [1, 2, 3]
    assert "negative attack_type -2" in findings[1].message


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
    d = tiny_dataset([0, 1, 2, 4, label], taxonomy=flat_taxonomy([1, 2, 4]))
    message = f"unknown attack type id {label}$"
    with pytest.raises(TaxonomyError, match=message):
        d.units(level)
    with pytest.raises(TaxonomyError, match=message):
        dataset_stats(d)
    with pytest.raises(TaxonomyError, match=message):
        per_group_recall([False] * len(d), d.labels(), d.taxonomy, level)


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
