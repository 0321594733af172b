"""One measured command in a fresh, single-threaded interpreter.

run.py starts this as ``python3 -I child.py --root DIR --workload NAME
--seed N --trace 0|1``.  It imports mecsched from ``DIR/src``, builds the
workload's config (set-up), runs the command and renders its CSV (the
measured part) between two timings of the reference kernel, checks the
output and prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np

    import mecsched
    from mecsched import analysis, cli, config

    import checks
    import reference
    import tracing
    import workloads

    if not Path(mecsched.__file__).resolve().is_relative_to(src):
        print(f"mecsched was imported from {mecsched.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    runs: list = []
    tracing.passthrough(cli, "run_simulation", runs.append)
    tracer = None
    if args.trace:
        counters = tracing.ModelCounters()
        tracer = tracing.Tracer(counters.observers())
        tracer.install()

    cfg = config.ExperimentConfig(**workloads.config_fields(workload, args.seed)).validate()
    config.build_system(cfg)
    command = getattr(cli, f"cmd_{workload.command}")
    columns = getattr(cli, f"{workload.command.upper()}_COLUMNS")

    setup_end = time.monotonic()
    reference_before = reference.time_reference()
    wall0 = time.perf_counter()
    csv_text, error = "", None
    try:
        if workload.command == "analyze":
            rows, _ = command(cfg, samples=workload.samples)
        else:
            rows = command(cfg)
        csv_text = cli.rows_to_csv(rows, columns)
    except Exception as exc:  # a failed operation is counted, not fatal
        traceback.print_exc()
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    reference_s = (reference_before + reference.time_reference()) / 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    n_ops = workloads.operations(workload)
    if error is not None:
        per_op = [[error]] * n_ops
    else:
        if workload.command == "analyze":
            k_dist = analysis.uniform_k_dist(cfg.k_min, cfg.k_max)
            catalog = config.build_system(cfg)[0]
            per_op = [
                checks.check_analyze_rows(
                    csv_text,
                    analysis.expected_mec_bits(cfg.tau_bits, k_dist),
                    analysis.expected_local_bits(cfg.tau_bits, catalog.popularity, cfg.cache_m, k_dist),
                )
            ]
        else:
            per_op = checks.check_simulation_rows(csv_text, runs)
        if args.seed == workloads.DEFAULT_SEED:
            stored = json.loads((HERE / "digests.json").read_text())
            digest_problems = checks.check_digest(csv_text, stored.get(args.workload, "none stored"))
            per_op = [problems + digest_problems for problems in per_op]

    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "reference_s": reference_s,
        "units": workloads.work_units(workload) if error is None else 0,
        "attempted": n_ops,
        "failed": min(n_ops, sum(1 for problems in per_op if problems)),
        "problems": sorted({p for problems in per_op for p in problems}),
        "csv_sha256": checks.csv_digest(csv_text),
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
    }
    if tracer is not None:
        stats = tracing.self_times(tracer.spans())
        table = tracing.layer_metrics(stats, counters, runs, tracer.absent)
        result["layers"] = {name: list(value_unit) for name, value_unit in table.items()}
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
