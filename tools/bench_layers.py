"""Layer bench: the cost of a run's two stages, and the Tier-1 wall time.

Usage (from the repository root)::

    python3 tools/bench_layers.py [--repo DIR] [--out FILE]

Measures the ``mecsched`` package under ``DIR/src`` (default: the checkout
holding this script) and appends one entry to ``FILE`` (default
``BENCH_layers.json`` next to this script's ``tools/`` directory), so one
results file can collect entries measured on several checkouts.

At each point, for every seed, it times

- the draw: ``draw_tasks``, reported in us per drawn task.  It includes
  each task's two bit counts (``task_bits``);
- the run: ``run_simulation`` given that table, with no queue series kept
  (as the command line runs it), reported in us per slot.  This is the
  slot loop plus everything computed before and after it.

The entry's environment records which slot loop (and, where the kernel
holds it, which task draw) the runs used: ``"slot_loop": "c"`` when the
compiled kernel loaded (``mecsched._kernel.lib``, or ``engine._kernel``
in checkouts that predate that handle), ``"python"`` otherwise (always
so for checkouts that predate the kernel).

Each time is the minimum of ``REPEATS`` calls; a point's figure is the
sum of its seeds' minima over their summed tasks or slots, with the
per-seed range beside it.  The Tier-1 suite then runs once in a child
process (``python -m pytest -q --continue-on-collection-errors`` in
``DIR``) and its wall time is recorded with pytest's summary line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HORIZON = 100_000
SEEDS = (0, 1, 2, 3, 4)
REPEATS = 5
# (name, ExperimentConfig overrides); every other value is the default.
POINTS = (
    ("lyapunov_lambda0.4", {"policy": "lyapunov", "arrival_prob": 0.4}),
    ("lyapunov_lambda0.8", {"policy": "lyapunov", "arrival_prob": 0.8}),
    ("mec_only_lambda0.4", {"policy": "mec_only", "arrival_prob": 0.4}),
    ("local_only_lambda0.4", {"policy": "local_only", "arrival_prob": 0.4}),
)


def min_time(fn) -> tuple[float, object]:
    """Smallest wall time of ``REPEATS`` calls, and the last call's result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_point(overrides: dict) -> dict:
    from mecsched.config import ExperimentConfig, build_system
    from mecsched.engine import draw_tasks, run_simulation

    config = ExperimentConfig(horizon_slots=HORIZON, **overrides).validate()
    catalog, cache, params, workload_cfg, policy = build_system(config)
    draw_us, run_us = [], []
    draw_s = run_s = 0.0
    n_tasks = 0
    for seed in SEEDS:
        t_draw, table = min_time(lambda: draw_tasks(catalog, cache, workload_cfg, HORIZON, seed))
        t_run, _ = min_time(lambda: run_simulation(table, params, policy, warmup_frac=config.warmup_frac))
        tasks = table.arrival_slot.size
        draw_s, run_s, n_tasks = draw_s + t_draw, run_s + t_run, n_tasks + tasks
        draw_us.append(1e6 * t_draw / tasks)
        run_us.append(1e6 * t_run / HORIZON)
    return {
        "draw_us_per_task": 1e6 * draw_s / n_tasks,
        "draw_us_per_task_range": [min(draw_us), max(draw_us)],
        "run_us_per_slot": 1e6 * run_s / (HORIZON * len(SEEDS)),
        "run_us_per_slot_range": [min(run_us), max(run_us)],
        "tasks": n_tasks,
    }


def tier1(repo: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=repo, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode, "summary": lines[-1] if lines else ""}


def environment(repo: Path) -> dict:
    import numpy

    from mecsched import engine

    kernel = sys.modules.get("mecsched._kernel")
    lib = getattr(kernel, "lib", getattr(engine, "_kernel", None))
    git = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(
        ["git", "-C", str(repo), "status", "--porcelain", "--", "src"], capture_output=True, text=True
    )
    source = hashlib.sha256()
    for path in sorted(p for p in (repo / "src").rglob("*") if p.suffix in (".py", ".c")):
        source.update(path.relative_to(repo).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git.stdout.strip() or "unknown",
        "src_modified": bool(dirty.stdout.strip()),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "slot_loop": "python" if lib is None else "c",
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> None:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=here, help="checkout whose src/ is measured")
    parser.add_argument("--out", type=Path, default=here / "BENCH_layers.json")
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))

    entry = {
        "environment": environment(repo),
        "horizon_slots": HORIZON,
        "seeds": list(SEEDS),
        "repeats": REPEATS,
        "points": {name: measure_point(overrides) for name, overrides in POINTS},
        "tier1": tier1(repo),
    }
    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=2) + "\n")
    print(json.dumps(entry, indent=2))


if __name__ == "__main__":
    main()
