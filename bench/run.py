"""Run one benchmark workload against the iidsbench sources of this checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes the generated inputs. With --trace 0 the benchmark repeats
rounds of a setup, a run and two resumes, each step in a fresh process, for S
seconds (at least MIN_ROUNDS rounds) and reports the median of each end-to-end
metric. With --trace 1 it makes one serial traced run and resume and reports
the per-layer metrics. Either way it then checks the outputs, and prints one
JSON object as the last line of standard output. Inputs, output directories
and the trace go to bench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
# A resume takes about as long as a load, a second or two; sampling it twice a
# round halves the share of the machine's short-term jitter in its median.
RESUMES_PER_ROUND = 2
E2E_UNITS = {"setup_s": "s", "run_s": "s", "resume_s": "s", "peak_rss_mb": "MB"}
STEP_TIMEOUT_S = 90


class StepFailed(Exception):
    pass


def step(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=STEP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise StepFailed(f"step {args[0]} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_config(expected, workdir: Path, name: str, **overrides) -> tuple[Path, Path]:
    out = workdir / name
    config = {**expected.config, "output_dir": str(out), **overrides}
    path = workdir / f"{name}.config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path, out


def read_run(out: Path) -> dict:
    return json.loads((out / "run.json").read_text(encoding="utf-8"))


def measure(expected, workdir: Path, seconds: float):
    """Rounds of a setup, a run and RESUMES_PER_ROUND resumes, each step in a
    fresh process, until the next round would end after `seconds`."""
    samples: dict[str, list[float]] = {name: [] for name in E2E_UNITS}
    outputs = []  # (output dir, run.json after the run, run.json after the resumes)
    attempted = 0  # cells and resumes
    longest = 0.0
    start = time.perf_counter()
    while len(outputs) < MIN_ROUNDS or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        config, out = write_config(expected, workdir, f"round{len(outputs)}")
        setup_s = step("setup", config)["setup_s"]
        run = step("run", config)
        before = read_run(out)
        resumes = [step("resume", out)["resume_s"] for _ in range(RESUMES_PER_ROUND)]
        outputs.append((out, before, read_run(out)))
        samples["setup_s"].append(setup_s)
        samples["run_s"].append(run["run_s"])
        samples["resume_s"].extend(resumes)
        samples["peak_rss_mb"].append(run["peak_rss_mb"])
        attempted += run["computed_cells"] + RESUMES_PER_ROUND
        longest = max(longest, time.perf_counter() - began)
        print(
            f"round {len(outputs) - 1}: setup {setup_s:.3f} s, run {run['run_s']:.3f} s, "
            f"resume {' '.join(f'{r:.3f}' for r in resumes)} s, peak {run['peak_rss_mb']:.1f} MB",
            file=sys.stderr,
        )
    metrics = {name: (statistics.median(values), E2E_UNITS[name]) for name, values in samples.items()}
    return metrics, attempted, outputs


def trace(expected, workdir: Path):
    """One untraced serial run for reference, then a traced serial run and a
    traced resume, then a two-worker run whose run.json must equal the serial
    ones'. The measured runs are serial, so this is where the pool is checked."""
    serial, serial_out = write_config(expected, workdir, "serial", workers=1)
    untraced = step("run", serial)
    traced, traced_out = write_config(expected, workdir, "traced", workers=1)
    run_spans, resume_spans = workdir / "run.spans.json", workdir / "resume.spans.json"
    traced_run = step("run", traced, "--trace", run_spans)
    before = read_run(traced_out)
    step("resume", traced_out, "--trace", resume_spans)
    outputs = [(serial_out, read_run(serial_out), None), (traced_out, before, read_run(traced_out))]
    parallel, parallel_out = write_config(expected, workdir, "parallel", workers=2)
    pooled = step("run", parallel)
    outputs.append((parallel_out, read_run(parallel_out), None))
    cells = untraced["computed_cells"] + traced_run["computed_cells"] + pooled["computed_cells"]
    attempted = cells + 1  # and the traced resume

    spans = {
        name: json.loads(path.read_text(encoding="utf-8"))
        for name, path in (("run", run_spans), ("resume", resume_spans))
    }
    metrics = tracing.summarize(spans["run"], spans["resume"], untraced["run_s"], untraced["cell_seconds"])
    (workdir / "trace.json").write_text(
        json.dumps({"spans": spans, "metrics": {k: v for k, (v, _) in metrics.items()}}, indent=1),
        encoding="utf-8",
    )
    return metrics, attempted, outputs


def check_outputs(expected, outputs, seed: int, planted: bool) -> None:
    from iidsbench import runner, splitting

    cfg = runner.config_from_dict(expected.config)
    dataset = runner.load_experiment_dataset(cfg)
    checks.check_dataset(dataset, expected)
    plan = splitting.partition_folds(dataset, cfg.k, cfg.strategy, cfg.seed)
    masks = checks.check_splits(dataset, plan, expected.config, expected)
    planned = checks.expected_cells(expected.config, expected)
    first = checks.without_timing(outputs[0][1])
    for out, run, resumed in outputs:
        checks.check_run(out, run, expected.config, expected, masks)
        if resumed is not None:
            checks.check_resume(run, resumed, planned)
        if planted:
            checks.check_planted(run)
        checks.require(checks.without_timing(run) == first, f"{out.name}: run.json differs from {outputs[0][0].name}")
    rng = np.random.default_rng(seed)
    checks.check_sampled_cell(dataset, plan, expected.config, expected, outputs[0][0], masks, rng)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iidsbench" / "__init__.py").is_file():
        print(f"no iidsbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = BENCH / "out" / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    expected = generate(workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, attempted, outputs = trace(expected, workdir)
        else:
            metrics, attempted, outputs = measure(expected, workdir, args.seconds)
        check_outputs(expected, outputs, args.seed, workload.planted)
        correct = True
    except (StepFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
