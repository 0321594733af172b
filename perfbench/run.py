"""mecsched benchmark: one experiment command per workload, measured end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload simulate_mixed --seed 0 --seconds 30 --trace 0

The load is a closed loop: one caller starts a fresh single-threaded Python
process (child.py) that runs the workload's command once, waits for it to
finish, and starts the next one until ``--seconds`` have passed.  Each child
is one set-up and one command; the reported figures are medians over the
children of the run.

``--trace 0`` prints the end-to-end metrics.  Timings are scaled to the
reference host: each child also times a fixed kernel (reference.py), and
its time over ``reference.REFERENCE_S`` is how much slower the host was
than the reference host while that child ran.  The unscaled medians are
printed too.

- ``setup_s``          from spawning the child until its set-up is done:
                       interpreter start, importing mecsched, building and
                       validating the config and one ``build_system``;
- ``units_per_ref_s``  work per second spent in the command (running it and
                       rendering its CSV): simulated slots on
                       simulate_mixed and sweep_overload (``slots_per_s``),
                       Monte Carlo samples on analyze_mc (``samples_per_s``);
- ``peak_rss_mb``      the child's peak resident memory.

``--trace 1`` alternates untraced and traced children and prints the
per-layer table of the traced child with the median command time, plus the
tracing overhead (median traced over median untraced command time, both
scaled to the reference host).  Per-layer times are not scaled.

Every operation (a simulation run, or an analyze call) is checked; a failed
check counts in ``failed`` and sets ``correct`` to false.  At the default
seed the SHA-256 of each command's CSV must equal the digest stored in
digests.json; a change that alters a random stream on purpose re-records it
from the ``csv_sha256`` line this script prints.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
# Pin BLAS/OpenMP pools to one thread so every child is single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot measure: the program is missing or a child crashed."""


def run_child(name: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, "-I", str(HERE / "child.py"),
        "--root", str(ROOT), "--workload", name, "--seed", str(seed), "--trace", str(trace),
    ]
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} child did not finish within {CHILD_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name} child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_end"] - spawned
    return result


def environment(seed: int, numpy_version: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Closed loop until ``seconds`` have passed; returns (untraced, traced) children."""
    plain, traced = [], []
    start = time.monotonic()
    while True:
        plain.append(run_child(name, seed, 0))
        if trace:
            traced.append(run_child(name, seed, 1))
        if time.monotonic() - start >= seconds:
            return plain, traced


def consistency_problems(children: list[dict], traced: list[dict]) -> tuple[list[str], int]:
    """Outputs must repeat across children, and traced counts across traced
    children.  Returns the problems and the operations they fail."""
    problems, failed = [], 0
    expected = children[0]["csv_sha256"]
    for child in children + traced:
        if child["csv_sha256"] != expected and not child["failed"]:
            problems.append("CSV output differs between repetitions of the same command")
            failed += child["attempted"]
    for name, (value, unit) in (traced[0]["layers"] if traced else {}).items():
        if unit == "count" and any(t["layers"][name][0] != value for t in traced):
            problems.append(f"traced count {name} differs between repetitions")
    return sorted(set(problems)), failed


def host_speed(child: dict) -> float:
    """The host's speed during the child relative to the reference host."""
    return reference.REFERENCE_S / child["reference_s"]


def end_to_end(children: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(c["setup_s"] * host_speed(c) for c in children), "s"),
        "units_per_ref_s": (statistics.median(c["units"] / c["wall_s"] / host_speed(c) for c in children), "1/s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MB"),
    }


def per_layer(children: list[dict], traced: list[dict]) -> dict:
    median_child = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
    table = {metric: tuple(value_unit) for metric, value_unit in median_child["layers"].items()}
    traced_s = statistics.median(t["wall_s"] * host_speed(t) for t in traced)
    overhead = traced_s / statistics.median(c["wall_s"] * host_speed(c) for c in children)
    table["trace.overhead_ratio"] = (overhead, "ratio")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    try:
        if not (ROOT / "src" / "mecsched" / "__init__.py").is_file():
            raise BenchError(f"no mecsched package under {ROOT / 'src'}")
        children, traced = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    problems, failed = consistency_problems(children, traced)
    everyone = children + traced
    attempted = sum(c["attempted"] for c in everyone)
    failed += sum(c["failed"] for c in everyone)
    problems += sorted({p for c in everyone for p in c["problems"]})
    metrics = per_layer(children, traced) if args.trace else end_to_end(children)

    print("environment " + json.dumps(environment(args.seed, children[0]["numpy"]), sort_keys=True))
    print(f"workload {args.workload}: {len(children)} untraced and {len(traced)} traced commands, "
          f"{attempted} operations, {failed} failed")
    print(f"csv_sha256 = {children[0]['csv_sha256']}")
    for problem in problems:
        print(f"check failed: {problem}")
    for absent in (traced[0]["absent"] if traced else []):
        print(f"boundary absent: {absent}")
    print(f"error_rate = {failed / attempted:.6g} ratio")
    if not args.trace:
        unit = workloads.WORKLOADS[args.workload].unit
        print(f"unscaled medians over {len(children)} commands: "
              f"setup_s = {statistics.median(c['setup_s'] for c in children):.6g} s, "
              f"{unit}_per_s = {statistics.median(c['units'] / c['wall_s'] for c in children):.6g} 1/s, "
              f"host speed = {statistics.median(host_speed(c) for c in children):.4g} x reference")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
