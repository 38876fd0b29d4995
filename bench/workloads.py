"""The three benchmark workloads and the inputs each one generates from a seed.

Every input is written as CSV (plus a taxonomy CSV where the workload needs
one) and described by an `Expected` record: the matrix, labels and code books
the harness must load from it. Numeric values are whole multiples of
10**-DECIMALS written with DECIMALS decimals, so a correct parser reproduces
them exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DECIMALS = 6
SCALE = 10**DECIMALS

# The embedded gas-pipeline schema as docs/gas_pipeline.md documents it.
GAS_COLUMNS = (
    ("command_address", "categorical"),
    ("response_address", "categorical"),
    ("command_memory", "numeric"),
    ("response_memory", "numeric"),
    ("command_memory_count", "numeric"),
    ("response_memory_count", "numeric"),
    ("comm_read_function", "categorical"),
    ("comm_write_fun", "categorical"),
    ("resp_read_fun", "categorical"),
    ("resp_write_fun", "categorical"),
    ("sub_function", "categorical"),
    ("command_length", "numeric"),
    ("resp_length", "numeric"),
    ("gain", "numeric"),
    ("reset", "numeric"),
    ("deadband", "numeric"),
    ("cycle_time", "numeric"),
    ("rate", "numeric"),
    ("setpoint", "numeric"),
    ("control_mode", "categorical"),
    ("control_scheme", "categorical"),
    ("pump", "categorical"),
    ("solenoid", "categorical"),
    ("crc_rate", "numeric"),
    ("measurement", "numeric"),
    ("time", "numeric"),
)
# Attack types per builtin category; type ids 1..35 run through them in order.
BUILTIN_CATEGORY_SIZES = (4, 7, 5, 12, 3, 1, 3)
BUILTIN_TYPE_CATEGORY = {
    t: c + 1
    for c, (start, size) in enumerate(
        zip(np.cumsum((0,) + BUILTIN_CATEGORY_SIZES[:-1]) + 1, BUILTIN_CATEGORY_SIZES)
    )
    for t in range(int(start), int(start) + size)
}

# mlp_svm_onehot groups the 35 builtin types into three coarse categories
# (response injection, command injection, DoS and reconnaissance), which keeps
# its omit and only scenarios to six.
COARSE_TYPE_CATEGORY = {
    t: (1 if c <= 2 else 2 if c <= 5 else 3) for t, c in BUILTIN_TYPE_CATEGORY.items()
}

# forest_omit's planted design: types 1 and 2 each shift a block of five
# features of their own; types 3 and 4 form an overlap group shifting the
# same block. Wide rows keep parsing at about a second while the forest's
# split search, which grows with rows more than with columns, stays the
# larger cost.
PLANTED_DIM = 180
PLANTED_SIGNATURES = {1: range(0, 5), 2: range(5, 10), 3: range(10, 15), 4: range(10, 15)}
PLANTED_OVERLAP = (3, 4)
PLANTED_OFFSET = 4.0
PLANTED_SHARE = 0.04  # of all rows, per attack type
CAPTURE_MALICIOUS_SHARE = 0.22  # as in the gas-pipeline capture


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    experiment: dict  # experiment config without dataset and output_dir
    planted: bool = False  # planted signatures (forest_omit) vs gas-shaped capture
    type_category: dict | None = None  # taxonomy written as CSV; None = builtin
    blank_share: float = 0.0  # share of numeric cells left blank


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="forest_omit",
            rows=8_000,
            planted=True,
            type_category={t: t for t in PLANTED_SIGNATURES},
            experiment={
                "k": 2,
                "seed": 0,
                "levels": ["attack"],
                "modes": ["baseline", "omit"],
                "classifiers": [
                    {"name": "forest", "kind": "random_forest", "hyperparameters": {"n_trees": 3}}
                ],
                "workers": 1,
            },
        ),
        Workload(
            name="mlp_svm_onehot",
            rows=45_000,
            type_category=COARSE_TYPE_CATEGORY,
            experiment={
                "k": 2,
                "seed": 0,
                "levels": ["category"],
                "modes": ["omit", "only"],
                "classifiers": [
                    {
                        "name": "mlp",
                        "kind": "mlp",
                        "hyperparameters": {
                            "epochs": 1,
                            "batch_size": 256,
                            "learning_rate": 0.05,
                            "window": 5,
                        },
                    },
                    {
                        "name": "svm",
                        "kind": "linear_svm",
                        "hyperparameters": {"epochs": 1, "lambda": 1e-3},
                    },
                ],
                "workers": 1,
            },
        ),
        Workload(
            name="gas_ingest",
            rows=60_000,
            blank_share=0.01,
            experiment={
                "k": 2,
                "seed": 0,
                "levels": ["category"],
                "modes": ["baseline", "omit", "only"],
                "classifiers": [
                    {
                        "name": "stump",
                        "kind": "random_forest",
                        "hyperparameters": {"n_trees": 1, "max_depth": 1},
                    }
                ],
                "workers": 1,
            },
        ),
    )
}


@dataclass
class Expected:
    """What the harness must load from the generated CSV."""

    matrix: np.ndarray  # float64, blanks imputed, missing flag column appended
    labels: np.ndarray  # int64 attack_type
    feature_names: tuple[str, ...]
    code_books: dict[str, tuple[str, ...]]
    type_category: dict[int, int]  # attack type -> category
    config: dict  # full experiment config (output_dir left to the caller)
    units: dict[str, list[int]]  # level -> unit ids

    def groups(self, level: str) -> np.ndarray:
        """Group id per row at `level`: 0 for benign, else the type or category."""
        if level == "attack":
            return self.labels
        lookup = np.zeros(max(self.type_category) + 1, dtype=np.int64)
        for t, c in self.type_category.items():
            lookup[t] = c
        return lookup[self.labels]


def _planted(rng: np.random.Generator, rows: int):
    per_type = int(rows * PLANTED_SHARE)
    labels = np.zeros(rows, dtype=np.int64)
    labels[: per_type * len(PLANTED_SIGNATURES)] = np.repeat(
        np.array(sorted(PLANTED_SIGNATURES)), per_type
    )
    labels = rng.permutation(labels)
    values = rng.normal(0.0, 1.0, (rows, PLANTED_DIM))
    for t, features in PLANTED_SIGNATURES.items():
        values[np.ix_(labels == t, list(features))] += PLANTED_OFFSET
    fixed = np.round(values * SCALE).astype(np.int64)
    names = [f"f{j}" for j in range(PLANTED_DIM)]
    return names, ["numeric"] * PLANTED_DIM, [fixed[:, j] for j in range(PLANTED_DIM)], labels


def _capture_labels(rng: np.random.Generator, rows: int) -> np.ndarray:
    """Benign stretches broken by attack episodes of 20-120 rows. Episode
    types cycle through shuffled rounds of all 35 ids, so every type occurs.
    """
    attack_mean = 70
    share = CAPTURE_MALICIOUS_SHARE
    benign_mean = attack_mean * (1 - share) / share
    lengths = []
    while sum(lengths) < rows:
        lengths.append(int(rng.integers(1, 2 * benign_mean)))
        lengths.append(int(rng.integers(20, 2 * attack_mean - 19)))
    episodes = len(lengths) // 2
    ids = np.array(sorted(BUILTIN_TYPE_CATEGORY))
    rounds = -(-episodes // len(ids))
    types = np.concatenate([rng.permutation(ids) for _ in range(rounds)])[:episodes]
    labels = np.concatenate(
        [
            np.concatenate([np.zeros(b, dtype=np.int64), np.full(a, t, dtype=np.int64)])
            for b, a, t in zip(lengths[::2], lengths[1::2], types)
        ]
    )
    return labels[:rows]


def _gas_capture(rng: np.random.Generator, rows: int):
    """Gas-shaped capture: small categorical vocabularies, scaled numeric
    readings, and per-type shifts (a numeric column per type, an extra
    categorical value per category).
    """
    labels = _capture_labels(rng, rows)
    category = np.array([0] + [BUILTIN_TYPE_CATEGORY[t] for t in range(1, 36)])[labels]
    categorical = [i for i, (_, kind) in enumerate(GAS_COLUMNS) if kind == "categorical"]
    numeric = [i for i, (_, kind) in enumerate(GAS_COLUMNS) if kind == "numeric"][:-1]
    columns: list = [None] * len(GAS_COLUMNS)
    for pos, i in enumerate(categorical):
        vocab = np.array([f"{GAS_COLUMNS[i][0][:3]}{v}" for v in range(2 + pos % 3)])
        col = vocab[rng.integers(0, len(vocab), rows)].astype(object)
        hit = category == pos + 1  # category c shows its own value in column c
        col[hit] = f"atk{pos + 1}"
        columns[i] = col
    for pos, i in enumerate(numeric):
        scale = 10.0 ** (pos % 4)
        col = rng.normal(5.0 * scale, scale, rows)
        hit = (labels > 0) & (labels % len(numeric) == pos)
        col[hit] += 3.0 * scale
        columns[i] = np.round(col * SCALE).astype(np.int64)
    columns[len(GAS_COLUMNS) - 1] = np.arange(rows, dtype=np.int64) * (SCALE // 4)  # time
    names = [n for n, _ in GAS_COLUMNS]
    kinds = [k for _, k in GAS_COLUMNS]
    return names, kinds, columns, labels


def generate(workload: Workload, seed: int, workdir: Path) -> Expected:
    """Write the workload's inputs under `workdir` and describe them."""
    rng = np.random.default_rng([seed, *workload.name.encode()])
    if workload.planted:
        names, kinds, columns, labels = _planted(rng, workload.rows)
    else:
        names, kinds, columns, labels = _gas_capture(rng, workload.rows)
    type_category = workload.type_category or BUILTIN_TYPE_CATEGORY

    rows = workload.rows
    texts = []
    matrix = np.empty((rows, len(names)), dtype=np.float64)
    missing = np.zeros(rows, dtype=bool)
    code_books: dict[str, tuple[str, ...]] = {}
    for j, (name, kind, col) in enumerate(zip(names, kinds, columns)):
        if kind == "categorical":
            book = tuple(dict.fromkeys(col.tolist()))
            code_books[name] = book
            codes = {text: float(code) for code, text in enumerate(book)}
            matrix[:, j] = [codes[text] for text in col.tolist()]
            texts.append(col.tolist())
            continue
        values = col / SCALE
        text = [f"{v:.{DECIMALS}f}" for v in values.tolist()]
        if workload.blank_share and name != "time":
            blank = rng.random(rows) < workload.blank_share
            for i in np.flatnonzero(blank).tolist():
                text[i] = ""
            values[blank] = np.median(values[~blank])
            missing |= blank
        matrix[:, j] = values
        texts.append(text)
    feature_names = tuple(names)
    if missing.any():
        matrix = np.column_stack([matrix, missing.astype(np.float64)])
        feature_names += ("missing_any",)

    header = ",".join(names + ["attack_type"])
    body = "\n".join(",".join(row) for row in zip(*texts, map(str, labels.tolist())))
    csv_path = workdir / f"{workload.name}.csv"
    csv_path.write_text(header + "\n" + body + "\n", encoding="utf-8")

    dataset = {
        "path": str(csv_path),
        "schema": "infer-numeric" if workload.planted else "embedded-gas-pipeline",
        "taxonomy": "builtin",
    }
    if workload.type_category is not None:
        taxonomy_path = workdir / "taxonomy.csv"
        lines = ["kind,id,name,category,abbreviation"]
        lines += [f"category,{c},group-{c},,G{c}" for c in sorted(set(type_category.values()))]
        lines += [f"attack,{t},type-{t},{c}," for t, c in sorted(type_category.items())]
        taxonomy_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dataset["taxonomy"] = str(taxonomy_path)
    config = {"dataset": dataset, **json.loads(json.dumps(workload.experiment))}

    return Expected(
        matrix=matrix,
        labels=labels,
        feature_names=feature_names,
        code_books=code_books,
        type_category=dict(type_category),
        config=config,
        units={
            "attack": sorted(type_category),
            "category": sorted(set(type_category.values())),
        },
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write a workload's inputs for a seed.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    expected = generate(WORKLOADS[args.workload], args.seed, args.out)
    (args.out / "experiment.json").write_text(json.dumps(expected.config, indent=2) + "\n", encoding="utf-8")
    print(f"{len(expected.labels)} rows, {int((expected.labels > 0).sum())} malicious -> {args.out}")
