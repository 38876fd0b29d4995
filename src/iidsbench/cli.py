"""Command-line front end.

Exit codes: 0 success, 1 validation findings (or an unparseable dataset under
`validate`), 2 usage error, 3 runtime error. Diagnostics go to stderr, data
to stdout or the requested files. Input files are never mutated; every
output file is written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import runner
from .dataset import (
    SCHEMA_INFER_NUMERIC,
    TAXONOMY_BUILTIN,
    dataset_stats,
    generate_synthetic,
    load_taxonomy,
    parse_dataset,
    synthetic_config_from_dict,
    taxonomy_to_csv,
    validate_dataset,
    write_dataset,
)
from .errors import ConfigError, DatasetError, HarnessError, TaxonomyError
from .fileio import atomic_write_text, read_json
from .report import (
    compare_to_csv,
    matrix_to_csv,
    precision_report,
    precision_report_csv,
    render_svg_heatmap,
    render_text_heatmap,
)
from .splitting import STRATEGIES

OUTPUT_DIR_ENV = "IIDSBENCH_OUTPUT_DIR"

_REPORT_RENDERERS = {
    "text": (render_text_heatmap, "txt"),
    "csv": (matrix_to_csv, "csv"),
    "svg": (render_svg_heatmap, "svg"),
}


def _load_input_dataset(args: argparse.Namespace):
    taxonomy = load_taxonomy(args.taxonomy)
    return parse_dataset(args.dataset, schema_source=args.schema, taxonomy=taxonomy)


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        dataset = _load_input_dataset(args)
    except (DatasetError, TaxonomyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    findings = validate_dataset(dataset)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"ok: {len(dataset)} records, no findings")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _load_input_dataset(args)
    stats = dataset_stats(dataset)
    tax = dataset.taxonomy
    print(f"total records: {stats.total}")
    print(f"benign records: {stats.benign_count}")
    print(f"malicious records: {stats.malicious_count}")
    print(f"malicious fraction: {stats.malicious_fraction:.4f}")
    print(f"attack types: {stats.attack_type_count}")
    print(f"attack categories: {stats.category_count}")
    for type_id in sorted(stats.per_type):
        label = tax.unit_label("attack", type_id)
        name = tax.types[type_id].name
        print(f"  attack {type_id} ({label} {name}): {stats.per_type[type_id]}")
    return 0


def _read_config(path: str):
    try:
        return read_json(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = synthetic_config_from_dict(_read_config(args.config))
    dataset = generate_synthetic(cfg)
    write_dataset(dataset, args.out)
    taxonomy_out = args.taxonomy_out
    if taxonomy_out is None:
        out = Path(args.out)
        taxonomy_out = out.with_name(out.stem + ".taxonomy.csv")
    atomic_write_text(taxonomy_out, taxonomy_to_csv(dataset.taxonomy))
    print(f"wrote {len(dataset)} records to {args.out}")
    print(f"wrote taxonomy to {taxonomy_out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = runner.config_from_dict(_read_config(args.config))
    flags = {"seed": args.seed, "k": args.k, "workers": args.workers, "strategy": args.strategy}
    overrides = {name: value for name, value in flags.items() if value is not None}
    output_dir = args.out or cfg.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if output_dir is None:
        raise ConfigError(
            f"no output directory: pass --out, set output_dir in the config, "
            f"or set {OUTPUT_DIR_ENV}"
        )
    overrides["output_dir"] = str(output_dir)
    cfg = replace(cfg, **overrides)
    artifact = runner.run(cfg)
    _print_run_summary(artifact, cfg.output_dir)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    artifact = runner.resume(args.dir)
    _print_run_summary(artifact, args.dir)
    return 0


def _print_run_summary(artifact: runner.RunArtifact, output_dir) -> None:
    timing = artifact.timing
    print(
        f"computed {timing.get('computed_cells', 0)} cell(s), "
        f"reused {timing.get('reused_cells', 0)}, "
        f"{len(artifact.matrices)} matrix(es)"
    )
    print(f"artifact: {Path(output_dir) / runner.RUN_FILE}")


def _matrix_filename(m, ext: str) -> str:
    safe = m.classifier.replace(os.sep, "_")
    return f"heatmap-{safe}-{m.mode}-{m.level}.{ext}"


def _cmd_report(args: argparse.Namespace) -> int:
    artifact = runner.load_artifact(args.dir)
    if args.out is None:
        if args.format != "text":
            print("error: --out is required for csv and svg output", file=sys.stderr)
            return 2
        for m in artifact.matrices:
            print(f"# {m.classifier} / {m.mode} / {m.level}")
            print(render_text_heatmap(m))
        return 0
    # Everything is rendered before the first write, so a failure writes nothing.
    render, ext = _REPORT_RENDERERS[args.format]
    files = {_matrix_filename(m, ext): render(m) for m in artifact.matrices}
    if args.format == "csv":
        files["precision.csv"] = precision_report_csv(precision_report(artifact))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = out_dir / name
        atomic_write_text(path, text)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    table = runner.compare_experiments(
        runner.load_artifact(args.dir_a), runner.load_artifact(args.dir_b)
    )
    body = compare_to_csv(table)
    if args.out is None:
        sys.stdout.write(body)
    else:
        atomic_write_text(args.out, body)
        print(f"wrote {args.out}")
    return 0


def _add_dataset_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("dataset", help="dataset CSV path")
    sub.add_argument(
        "--taxonomy",
        default=TAXONOMY_BUILTIN,
        help="taxonomy CSV path, or 'builtin' for the bundled gas-pipeline taxonomy",
    )
    sub.add_argument(
        "--schema",
        default=SCHEMA_INFER_NUMERIC,
        help="'infer-numeric', 'embedded-gas-pipeline', or path of a schema JSON",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iidsbench",
        description="Benchmark how intrusion detectors generalize to unseen attacks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a dataset file and print findings")
    _add_dataset_args(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("stats", help="print label composition of a dataset")
    _add_dataset_args(p)
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True, help="synthetic config JSON")
    p.add_argument("--out", required=True, help="output dataset CSV path")
    p.add_argument(
        "--taxonomy-out",
        default=None,
        help="taxonomy CSV path (default: <out stem>.taxonomy.csv)",
    )
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("run", help="execute an experiment from a config file")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    p.add_argument("--k", type=int, default=None, help="override the fold count")
    p.add_argument("--workers", type=int, default=None, help="override the worker count")
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="override the fold strategy",
    )
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("resume", help="recompute missing cells in an output directory")
    p.add_argument("dir", help="experiment output directory")
    p.set_defaults(handler=_cmd_resume)

    p = sub.add_parser("report", help="render heatmaps from a finished run")
    p.add_argument("dir", help="experiment output directory")
    p.add_argument("--format", choices=["text", "csv", "svg"], default="text")
    p.add_argument("--out", default=None, help="output directory for rendered files")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("compare", help="juxtapose omit recalls with only recalls")
    p.add_argument("dir_a", help="artifact providing omit-mode matrices")
    p.add_argument("dir_b", help="artifact providing only-mode matrices")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
