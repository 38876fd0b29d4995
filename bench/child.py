"""One benchmark step, run in a fresh process as a user's command would be.

    python3 bench/child.py setup  CONFIG.json
    python3 bench/child.py run    CONFIG.json [--trace SPANS.json]
    python3 bench/child.py resume OUTPUT_DIR  [--trace SPANS.json]

Prints one JSON line with the step's wall time and what the parent checks.
With --trace the step runs under the tracer and its spans go to SPANS.json.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its waited-for children,
    which include a parallel run's workers once the pool has shut down. A
    child's ru_maxrss starts from this process's RSS when it was forked,
    which is below this process's own peak, so the maximum stays exact.
    """
    return max(tracing.peak_rss_mb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def main(argv: list[str]) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("setup", "run", "resume"))
    parser.add_argument("target")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from iidsbench import runner, splitting

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    if args.step == "resume":
        start = time.perf_counter()
        artifact = runner.resume(args.target)
        out = {"resume_s": time.perf_counter() - start}
    else:
        cfg = runner.config_from_dict(json.loads(Path(args.target).read_text(encoding="utf-8")))
        if args.step == "setup":
            start = time.perf_counter()
            dataset = runner.load_experiment_dataset(cfg)
            splitting.partition_folds(dataset, cfg.k, cfg.strategy, cfg.seed)
            return {"setup_s": time.perf_counter() - start}
        start = time.perf_counter()
        artifact = runner.run(cfg)
        out = {"run_s": time.perf_counter() - start, "peak_rss_mb": _peak_rss_mb()}
    out.update(
        computed_cells=artifact.timing["computed_cells"],
        cell_seconds=list(artifact.timing["cell_seconds"].values()),
    )
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
