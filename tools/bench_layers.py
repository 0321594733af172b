"""Layer bench: the cost of a run's stages and of the estimate, and the Tier-1 wall time.

Usage (from the repository root)::

    python3 tools/bench_layers.py [--repo DIR] [--out FILE] [--against OTHER]

Measures the ``mecsched`` package under ``DIR/src`` (default: the checkout
holding this script) and appends one entry to ``FILE`` (default
``BENCH_layers.json`` next to this script's ``tools/`` directory), so one
results file can collect entries measured on several checkouts.

With ``--against OTHER`` (another checkout, say the parent commit's), the
entry holds the cold commands and Tier-1 alone, paired.  Each of the
``COMMAND_RUNS`` pairs runs one child on ``DIR`` and one on ``OTHER``,
alternating which goes first, so a host whose speed drifts slows both
sides of a pair alike.  Each command records both sides' figures, the
per-pair ratios (``DIR`` over ``OTHER``) and how many pairs ``DIR`` won.
The Tier-1 suite then runs once in each checkout, ``DIR`` first in every
other paired entry of ``FILE``, and the entry records both sides' wall
times and summary lines and which went first.

At each point, for every seed, it times

- the draw: ``workload.draw_tasks``, reported in us per drawn task.  It
  includes each task's two bit counts.  The compiled draw runs on threads
  the kernel starts, one per CPU the process may run on, and the point
  records how many each seed's draw ran on (``parts``).  Each repeat then
  also times the draw on one thread, as on a one-CPU process
  (``one_part_draw_us_per_task``), so the two alternate: their ratio shows
  whether the other CPUs delivered while the point ran;
- the run: ``run_simulation`` given that table, with no queue series kept
  (as the command line runs it), reported in us per slot.  This is the
  slot loop plus everything computed before and after it.

After the timed calls, one more run on the last seed's table is traced
with ``tracemalloc``: its peak over that table's tasks is the point's
``run_bytes_per_task``, what a run allocates beside its table.

One more point, ``analyze_estimate``, times ``estimate_slot_means`` (the
``analyze`` command's Monte Carlo estimate) at the default configuration
with ``ESTIMATE_SAMPLES`` samples, once per seed, and reports it in us
per sample.  It records its ``parts`` and its one-thread time
(``one_part_us_per_sample``) as the draw does, and, from one more call
traced with ``tracemalloc`` after the timed ones, the estimate's peak over
its samples (``estimate_bytes_per_sample``): with the kernel, its count
arrays, 2 bytes per sample at the default configuration, plus its fixed
allocations spread over the samples.

The entry's ``commands`` time whole commands cold, each in
``COMMAND_RUNS`` fresh ``python -I`` children: the benchmark workloads
named in ``COMMANDS``, with the config fields, seeds and Monte Carlo
samples that ``perfbench/workloads.py`` (loaded read-only) gives its
default seed.  A child builds the config, then times ``import
numpy.random`` and, after it, the command and its CSV rendering, as
``perfbench/child.py`` does in one window.  The import is reported apart,
since no change to the package can shrink it.  Each command records the
medians and ranges of both times, its CSV's SHA-256, the slot loop its
children ran and the host's speed around its children.

The entry's ``cpu_ticks`` holds, per CPU the process may run on, the user
plus system ticks that ``/proc/stat`` (read only) counted across the
measured points and commands, Tier-1 apart: a second CPU that stayed near
zero did no work while the draws and estimates asked for threads.  With
``--against``, ``cpu_ticks`` counts across ``DIR``'s command children and
``against`` holds ``OTHER``'s, so a pair shows each side's.  Where there
is no ``/proc/stat``, it is ``{}``.

The entry's environment records which slot loop and task draw the runs
used: ``"slot_loop": "c"`` when the compiled kernel loaded
(``mecsched._kernel.lib``), ``"python"`` otherwise.  Beside it,
``"word_source"`` is where the kernel's draws took their PCG64 words from
(``mecsched._kernel.word_source``): ``"avx512"`` or ``"scalar"``, and
``"python"`` with no kernel.  Each command records the same two fields
for its children.

Each time is the minimum of ``REPEATS`` calls (alternating with its
one-thread twin, where it has one); a point's figure is the
sum of its seeds' minima over their summed tasks or slots, with the
per-seed range beside it.  A shared host can run the same code twice as
slow for minutes, or change speed within a point, so each point also
records the host's speed: ``reference_s`` holds the times of the
benchmark's fixed reference kernel (``time_reference()`` from this
checkout's ``perfbench/reference.py``, loaded read-only) just before
each seed and just after the last one, and ``host_speed`` is
``[min, max]`` of the kernel's idle-host time ``REFERENCE_S`` over each
of them.  A time multiplied by the two bounds brackets what the idle
host would have measured, as far as the host's speed stayed within the
range it showed between seeds.  The Tier-1 suite then runs once
in a child process (``python -m pytest -q --continue-on-collection-errors``
in ``DIR``) and its wall time is recorded with pytest's summary line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import os
import platform
import runpy
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

# Per-CPU tick counters (Linux), read only.
PROC_STAT = Path("/proc/stat")
HORIZON = 100_000
SEEDS = (0, 1, 2, 3, 4)
REPEATS = 5
# The analyze_mc workload's sample count.
ESTIMATE_SAMPLES = 50_000
# (name, ExperimentConfig overrides); every other value is the default.
# The last two bracket the draw's cache test and its lookup tables: with
# no cache every content lands above the capacity, and 100000 contents
# give guide and cdf tables far larger than L1.
POINTS = (
    ("lyapunov_lambda0.4", {"policy": "lyapunov", "arrival_prob": 0.4}),
    ("lyapunov_lambda0.8", {"policy": "lyapunov", "arrival_prob": 0.8}),
    ("mec_only_lambda0.4", {"policy": "mec_only", "arrival_prob": 0.4}),
    ("local_only_lambda0.4", {"policy": "local_only", "arrival_prob": 0.4}),
    ("cache0", {"policy": "lyapunov", "arrival_prob": 0.4, "cache_m": 0}),
    ("catalog100k", {"policy": "lyapunov", "arrival_prob": 0.4, "n_contents": 100_000, "cache_m": 1000}),
)

# Benchmark workloads timed as whole commands, each in COMMAND_RUNS fresh
# children (or pairs of children, with --against).
COMMANDS = ("simulate_mixed", "sweep_overload", "analyze_mc")
COMMAND_RUNS = 12
# One cold command: argv is (src, command, config fields as JSON, samples);
# analyze takes the samples and returns its rows with its summary lines.
_COMMAND_CHILD = """
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from mecsched import _kernel, cli, config
cfg = config.ExperimentConfig(**json.loads(sys.argv[3])).validate()
config.build_system(cfg)
command = getattr(cli, "cmd_" + sys.argv[2])
columns = getattr(cli, sys.argv[2].upper() + "_COLUMNS")
start = time.perf_counter()
import numpy.random
imported = time.perf_counter()
if sys.argv[2] == "analyze":
    rows, _ = command(cfg, samples=int(sys.argv[4]))
else:
    rows = command(cfg)
csv_text = cli.rows_to_csv(rows, columns)
done = time.perf_counter()
lib = _kernel.lib
print(json.dumps({
    "import_numpy_random_s": imported - start,
    "command_s": done - imported,
    "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
    "slot_loop": "python" if lib is None else "c",
    "word_source": "python" if lib is None else _kernel.word_source(lib),
}))
"""


def min_times(*fns) -> tuple[list, object]:
    """Smallest wall time of each of ``fns`` over ``REPEATS`` rounds, which
    call them in turn, and the first one's last result."""
    best = [float("inf")] * len(fns)
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            result = fn()
            best[i] = min(best[i], time.perf_counter() - start)
            if i == 0:
                kept = result
    return best, kept


def one_part(fn):
    """``fn`` as a one-CPU process runs it: the compiled draw and estimate
    on one thread."""

    def run():
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
            return fn()

    return run


def measure_point(overrides: dict, reference: dict) -> dict:
    from mecsched import workload
    from mecsched.config import ExperimentConfig, build_system
    from mecsched.engine import run_simulation
    from mecsched.workload import draw_tasks

    config = ExperimentConfig(horizon_slots=HORIZON, **overrides).validate()
    catalog, capacity, params, workload_cfg, policy = build_system(config)
    draw_us, one_part_us, run_us, reference_s, parts = [], [], [], [], []
    draw_s = one_part_s = run_s = 0.0
    n_tasks = 0
    for seed in SEEDS:
        reference_s.append(reference["time_reference"]())
        draw = lambda: draw_tasks(catalog, capacity, workload_cfg, HORIZON, seed)
        (t_draw, t_one_part), table = min_times(draw, one_part(draw))
        (t_run,), _ = min_times(lambda: run_simulation(table, params, policy, warmup_frac=config.warmup_frac))
        tasks = table.arrival_slot.size
        parts.append(workload._parts(tasks))
        draw_s, one_part_s, run_s = draw_s + t_draw, one_part_s + t_one_part, run_s + t_run
        n_tasks += tasks
        draw_us.append(1e6 * t_draw / tasks)
        one_part_us.append(1e6 * t_one_part / tasks)
        run_us.append(1e6 * t_run / HORIZON)
    tracemalloc.start()
    try:
        run_simulation(table, params, policy, warmup_frac=config.warmup_frac)
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "draw_us_per_task": 1e6 * draw_s / n_tasks,
        "draw_us_per_task_range": [min(draw_us), max(draw_us)],
        "parts": parts,
        "one_part_draw_us_per_task": 1e6 * one_part_s / n_tasks,
        "one_part_draw_us_per_task_range": [min(one_part_us), max(one_part_us)],
        "run_us_per_slot": 1e6 * run_s / (HORIZON * len(SEEDS)),
        "run_us_per_slot_range": [min(run_us), max(run_us)],
        "run_bytes_per_task": run_peak / tasks,
        "tasks": n_tasks,
        **host_speed(reference, reference_s),
    }


def measure_estimate(reference: dict) -> dict:
    from mecsched import workload
    from mecsched.analysis import estimate_slot_means, uniform_k_dist
    from mecsched.config import ExperimentConfig, build_system

    config = ExperimentConfig().validate()
    catalog, capacity, params, _, _ = build_system(config)
    k_dist = uniform_k_dist(config.k_min, config.k_max)
    parts = workload._parts(ESTIMATE_SAMPLES)
    estimate_us, one_part_us, reference_s = [], [], []
    for seed in SEEDS:
        reference_s.append(reference["time_reference"]())
        estimate = lambda: estimate_slot_means(catalog, capacity, params, k_dist, samples=ESTIMATE_SAMPLES, seed=seed)
        (t_estimate, t_one_part), _ = min_times(estimate, one_part(estimate))
        estimate_us.append(1e6 * t_estimate / ESTIMATE_SAMPLES)
        one_part_us.append(1e6 * t_one_part / ESTIMATE_SAMPLES)
    return {
        "estimate_us_per_sample": sum(estimate_us) / len(estimate_us),
        "estimate_us_per_sample_range": [min(estimate_us), max(estimate_us)],
        "parts": parts,
        "one_part_us_per_sample": sum(one_part_us) / len(one_part_us),
        "one_part_us_per_sample_range": [min(one_part_us), max(one_part_us)],
        "samples": ESTIMATE_SAMPLES,
        **host_speed(reference, reference_s),
    }


def measure_estimate_memory() -> dict:
    """The ``tracemalloc`` peak of one ``analyze_estimate`` call, per sample."""
    from mecsched.analysis import estimate_slot_means, uniform_k_dist
    from mecsched.config import ExperimentConfig, build_system

    config = ExperimentConfig().validate()
    catalog, capacity, params, _, _ = build_system(config)
    k_dist = uniform_k_dist(config.k_min, config.k_max)
    tracemalloc.start()
    try:
        estimate_slot_means(catalog, capacity, params, k_dist, samples=ESTIMATE_SAMPLES, seed=SEEDS[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"estimate_bytes_per_sample": peak / ESTIMATE_SAMPLES}


def measure_commands(
    repo: Path, workloads: dict, reference: dict, against: Path | None = None, ticks: dict | None = None
) -> dict:
    """Cold wall times of the ``COMMANDS`` workloads, from ``workloads``
    (the namespace of ``perfbench/workloads.py``), on ``repo``; with
    ``against``, in pairs of children on ``repo`` and on ``against``.
    ``ticks``, when given, maps each checkout to the ``cpu_ticks`` its
    children took, and gains them."""
    env = {**os.environ, **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    out = {}
    for name in COMMANDS:
        workload = workloads["WORKLOADS"][name]
        fields = json.dumps(workloads["config_fields"](workload, workloads["DEFAULT_SEED"]))

        def run(root: Path) -> dict:
            argv = [
                sys.executable, "-I", "-c", _COMMAND_CHILD, str(root / "src"), workload.command, fields,
                str(workload.samples),
            ]
            before = cpu_ticks()
            child = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            if ticks is not None:
                side = ticks.setdefault(root, {})
                for cpu, count in ticks_since(before).items():
                    side[cpu] = side.get(cpu, 0) + count
            return json.loads(child.stdout.splitlines()[-1])

        reference_s = [reference["time_reference"]()]
        if against is None:
            out[name] = summarize([run(repo) for _ in range(COMMAND_RUNS)])
        else:
            runs, other_runs = [], []
            for pair in range(COMMAND_RUNS):
                # The first child of a pair may find the host in another
                # state than the second, so the sides take turns.
                first, second = (runs, repo), (other_runs, against)
                for side, root in (first, second) if pair % 2 == 0 else (second, first):
                    side.append(run(root))
            ratios = [mine["command_s"] / other["command_s"] for mine, other in zip(runs, other_runs)]
            out[name] = {
                **summarize(runs),
                "against": summarize(other_runs),
                "ratios": ratios,
                "ratio_median": statistics.median(ratios),
                "pairs_won": sum(ratio < 1 for ratio in ratios),
            }
        out[name].update(host_speed(reference, reference_s))
    return out


def summarize(runs: list) -> dict:
    """Medians and ranges of the children's command and import times, and
    the CSV digests, slot loops and word sources they reported."""
    command_ms = [1e3 * run["command_s"] for run in runs]
    import_ms = [1e3 * run["import_numpy_random_s"] for run in runs]
    return {
        "command_ms": statistics.median(command_ms),
        "command_ms_range": [min(command_ms), max(command_ms)],
        "import_numpy_random_ms": statistics.median(import_ms),
        "import_numpy_random_ms_range": [min(import_ms), max(import_ms)],
        "runs": len(runs),
        "csv_sha256": sorted({run["csv_sha256"] for run in runs}),
        "slot_loop": sorted({run["slot_loop"] for run in runs}),
        "word_source": sorted({run["word_source"] for run in runs}),
    }


def cpu_ticks() -> dict:
    """User plus system ticks so far of each CPU this process may run on,
    from ``PROC_STAT``, by its name there (``cpu0``); ``{}`` without it."""
    try:
        lines = PROC_STAT.read_text().splitlines()
    except OSError:
        return {}
    allowed = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    rows = [fields for fields in map(str.split, lines) if fields and fields[0] in allowed]
    # cpuN user nice system idle ...
    return {fields[0]: int(fields[1]) + int(fields[3]) for fields in rows}


def ticks_since(before: dict) -> dict:
    """``cpu_ticks`` counted since ``before``, another reading of it."""
    return {cpu: ticks - before[cpu] for cpu, ticks in cpu_ticks().items() if cpu in before}


def host_speed(reference: dict, reference_s: list) -> dict:
    """The reference kernel's times, one more taken now, and the host speed
    range they give."""
    reference_s = [*reference_s, reference["time_reference"]()]
    speeds = [reference["REFERENCE_S"] / seconds for seconds in reference_s]
    return {"reference_s": reference_s, "host_speed": [min(speeds), max(speeds)]}


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


def tier1_pair(repo: Path, against: Path, repo_first: bool) -> dict:
    """``tier1`` once in each checkout, ``repo`` first when ``repo_first``:
    ``repo``'s figures, with ``against``'s beside them."""
    first, second = (repo, against) if repo_first else (against, repo)
    ran = [tier1(first), tier1(second)]
    mine, theirs = ran if repo_first else ran[::-1]
    return {**mine, "against": theirs, "first": "repo" if repo_first else "against"}


def checkout(repo: Path) -> dict:
    """The commit of ``repo``, whether its ``src`` differs from it, and a
    hash of its ``src`` sources."""
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
    }


def environment(repo: Path) -> dict:
    import numpy

    from mecsched import _kernel

    lib = _kernel.lib
    return {
        **checkout(repo),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "slot_loop": "python" if lib is None else "c",
        "word_source": "python" if lib is None else _kernel.word_source(lib),
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> None:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=here, help="checkout whose src/ is measured")
    parser.add_argument("--out", type=Path, default=here / "BENCH_layers.json")
    parser.add_argument(
        "--against", type=Path, help="another checkout: time the cold commands and Tier-1 only, alternating the two"
    )
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    reference = runpy.run_path(str(here / "perfbench" / "reference.py"))
    workloads = runpy.run_path(str(here / "perfbench" / "workloads.py"))

    entries = json.loads(args.out.read_text()) if args.out.exists() else []
    if args.against is not None:
        against = args.against.resolve()
        paired = sum(1 for entry in entries if "tier1" in entry and "against" in entry)
        ticks = {}
        commands = measure_commands(repo, workloads, reference, against, ticks)
        entry = {
            "environment": environment(repo),
            "against": {**checkout(against), "cpu_ticks": ticks.get(against, {})},
            "commands": commands,
            "cpu_ticks": ticks.get(repo, {}),
            "tier1": tier1_pair(repo, against, repo_first=paired % 2 == 0),
        }
    else:
        before = cpu_ticks()
        entry = {
            "environment": environment(repo),
            "horizon_slots": HORIZON,
            "seeds": list(SEEDS),
            "repeats": REPEATS,
            "points": {
                **{name: measure_point(overrides, reference) for name, overrides in POINTS},
                "analyze_estimate": {**measure_estimate(reference), **measure_estimate_memory()},
            },
            "commands": measure_commands(repo, workloads, reference),
            "cpu_ticks": ticks_since(before),
            "tier1": tier1(repo),
        }
    entries.append(entry)
    args.out.write_text(json.dumps(entries, indent=2) + "\n")
    print(json.dumps(entry, indent=2))


if __name__ == "__main__":
    main()
