"""Experiment commands and CSV output.

Four subcommands drive the library end to end:

- ``simulate``  one run per seed at a single operating point
- ``sweep``     the same, across a list of values on one axis
- ``frontier``  minimum radio rate meeting a delay target on an
  (f_local, cache) grid, found by bisection
- ``analyze``   closed-form expectations, regime and gap bounds

All tabular output is CSV with a fixed column order; summaries go to
stderr so stdout stays machine readable when no --out file is given.
Exit codes: 0 success, 1 configuration error (an input too large to fit in
memory included), 2 runtime or metric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .analysis import (
    estimate_slot_means,
    expected_local_bits,
    expected_mec_bits,
    optimal_average_data,
    optimality_gap_bound,
    uniform_k_dist,
)
from .config import (
    ExperimentConfig,
    apply_overrides,
    build_system,
    load_config,
    parse_int,
    set_key,
    sweep_configs,
)
from .engine import (
    RunMetrics,
    avg_data_per_task,
    avg_queue_length,
    draw_tasks,
    little_delay,
    mean_delay_slots,
    run_simulation,
)
from .errors import ConfigError, ContractViolation, MetricUndefined

__all__ = [
    "SIMULATE_COLUMNS",
    "SWEEP_COLUMNS",
    "FRONTIER_COLUMNS",
    "ANALYZE_COLUMNS",
    "cmd_simulate",
    "cmd_sweep",
    "cmd_frontier",
    "cmd_analyze",
    "LOCAL_BITS_ENTRY_LIMIT",
    "K_VALUES_LIMIT",
    "rows_to_csv",
    "main",
]

SIMULATE_COLUMNS = [
    "seed",
    "policy",
    "v_param",
    "cache_m",
    "f_local_hz",
    "rate_bps",
    "lambda",
    "avg_data_per_task_bits",
    "avg_queue_len",
    "little_delay_s",
    "measured_mean_delay_s",
    "completions",
    "arrivals",
]

SWEEP_COLUMNS = ["sweep_axis", "axis_value"] + SIMULATE_COLUMNS + [
    "mean_avg_data_per_task_bits",
    "std_avg_data_per_task_bits",
]

FRONTIER_COLUMNS = [
    "f_local_hz",
    "cache_m",
    "required_rate_bps",
    "status",
    "achieved_delay_s",
    "probe_runs",
]

ANALYZE_COLUMNS = [
    "lambda",
    "cache_m",
    "samples",
    "local_slot_mean",
    "local_slot_se",
    "mec_slot_mean",
    "mec_slot_se",
    "mec_bits_mean",
    "local_bits_mean",
    "regime",
    "optimal_bits",
    "v_param",
    "gap_bound_bits",
]


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    """Render rows in a fixed column order; trailing newline included."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in columns))
    return "\n".join(lines) + "\n"


@dataclass
class _Memo:
    """What the runs of one command share.

    ``catalogs`` holds the catalogs built so far (see ``build_system``).
    ``tables``, unless None, holds task tables by the arguments
    :func:`draw_tasks` drew them with: one per seed for one set of the
    other inputs.  Catalogs key by identity, which holds because
    ``catalogs`` hands out one catalog per set of its inputs.
    """

    catalogs: dict = field(default_factory=dict)
    tables: Optional[dict] = field(default_factory=dict)


def _simulate(config: ExperimentConfig, seed: int, memo: _Memo) -> RunMetrics:
    """Build the config's system and simulate it once with ``seed``.

    The run takes its catalog from the command's ``memo``, and its task
    table too when the memo keeps tables, building or drawing and storing
    each on first use.  A run whose other draw inputs differ from the held
    tables' empties them first.
    """
    catalog, capacity, params, workload_cfg, policy = build_system(config, memo.catalogs)
    key = (catalog, capacity, workload_cfg, config.horizon_slots, seed)
    tables = {} if memo.tables is None else memo.tables
    tasks = tables.get(key)
    if tasks is None:
        if any(held[:-1] != key[:-1] for held in tables):
            tables.clear()
        tasks = tables[key] = draw_tasks(*key)
    return run_simulation(tasks, params, policy, warmup_frac=config.warmup_frac)


def _run_one(config: ExperimentConfig, seed: int, memo: _Memo) -> dict:
    metrics = _simulate(config, seed, memo)
    row = {
        "seed": seed,
        "policy": config.policy,
        "v_param": config.v_param,
        "cache_m": config.cache_m,
        "f_local_hz": config.f_local_hz,
        "rate_bps": config.rate_bps,
        "lambda": config.arrival_prob,
        "completions": metrics.completions,
        "arrivals": metrics.arrivals,
        "avg_queue_len": avg_queue_length(metrics),
    }
    try:
        row["avg_data_per_task_bits"] = avg_data_per_task(metrics)
    except MetricUndefined:
        row["avg_data_per_task_bits"] = math.nan
    try:
        row["little_delay_s"] = little_delay(metrics, config.arrival_prob, config.slot_seconds)
    except MetricUndefined:
        row["little_delay_s"] = math.nan
    try:
        row["measured_mean_delay_s"] = mean_delay_slots(metrics) * config.slot_seconds
    except MetricUndefined:
        row["measured_mean_delay_s"] = math.nan
    return row


def cmd_simulate(config: ExperimentConfig) -> list[dict]:
    """One row per configured seed at the config's operating point.  The
    runs share one catalog but draw their own task tables."""
    memo = _Memo(tables=None)
    return [_run_one(config, seed, memo) for seed in config.seeds]


def cmd_sweep(config: ExperimentConfig) -> list[dict]:
    """Rows for every (axis value, seed) pair, sorted by value then seed,
    each carrying its value's across-seed mean and standard deviation of
    the per-task data average.  The runs share one catalog, and values that
    leave the task draws unchanged (every axis but ``cache_m``) reuse each
    seed's task table."""
    rows: list[dict] = []
    memo = _Memo()
    for value, point in sweep_configs(config):
        point_rows = [_run_one(point, seed, memo) for seed in config.seeds]
        data = [r["avg_data_per_task_bits"] for r in point_rows]
        finite = [d for d in data if not math.isnan(d)]
        mean = float(np.mean(finite)) if finite else math.nan
        std = float(np.std(finite, ddof=1)) if len(finite) >= 2 else 0.0
        for row in point_rows:
            row["sweep_axis"] = config.sweep_axis
            row["axis_value"] = value
            row["mean_avg_data_per_task_bits"] = mean
            row["std_avg_data_per_task_bits"] = std
            rows.append(row)
    return rows


def _mean_delay_seconds(config: ExperimentConfig, memo: _Memo) -> float:
    """Across-seed mean measured delay; infinite when any seed never
    completes a post-warmup task (the overloaded end of a bracket).
    ``memo`` is the command's :class:`_Memo`."""
    delays = []
    for seed in config.seeds:
        metrics = _simulate(config, seed, memo)
        try:
            delays.append(mean_delay_slots(metrics) * config.slot_seconds)
        except MetricUndefined:
            return math.inf
    return float(np.mean(delays))


def _frontier_point(
    point: ExperimentConfig,
    target_s: float,
    tolerance_s: float,
    rate_lo: float,
    rate_hi: float,
    max_iter: int,
    memo: _Memo,
) -> dict:
    # Bisect to half the tolerance so an independent re-run at the found
    # rate still lands inside the full tolerance.
    inner = tolerance_s / 2.0

    def evaluate(rate: float) -> float:
        # Every probe at this point draws the same tasks.
        return _mean_delay_seconds(dataclasses.replace(point, rate_bps=rate), memo)

    d_lo = evaluate(rate_lo)
    d_hi = evaluate(rate_hi)
    probes = 2
    if d_lo + 1e-9 < d_hi:
        # Seed noise made the faster radio slower; bisection has no bracket.
        status, rate, delay = "non_monotone", math.nan, d_hi
    elif d_hi > target_s + tolerance_s:
        status, rate, delay = "unreachable", math.nan, d_hi
    elif d_lo < target_s - tolerance_s:
        # Even the slowest radio in the bracket beats the target.
        status, rate, delay = "floor", rate_lo, d_lo
    elif d_lo <= target_s + inner:
        status, rate, delay = "ok", rate_lo, d_lo
    elif d_hi > target_s:
        # The whole bracket sits above the target but r_hi is within tolerance.
        status, rate, delay = "ok", rate_hi, d_hi
    else:
        lo, hi = rate_lo, rate_hi
        best = min((abs(d_lo - target_s), rate_lo, d_lo), (abs(d_hi - target_s), rate_hi, d_hi))
        for _ in range(max_iter):
            mid = math.sqrt(lo * hi)
            d_mid = evaluate(mid)
            probes += 1
            if abs(d_mid - target_s) <= inner:
                # A probe this close is the answer, even if a bracket end was closer.
                status, rate, delay = "ok", mid, d_mid
                break
            best = min(best, (abs(d_mid - target_s), mid, d_mid))
            if d_mid > target_s:
                lo = mid
            else:
                hi = mid
        else:
            dist, rate, delay = best
            status = "ok"
            if dist > tolerance_s:
                status, rate = "unreachable", math.nan
    return {
        "f_local_hz": point.f_local_hz,
        "cache_m": point.cache_m,
        "required_rate_bps": rate,
        "status": status,
        "achieved_delay_s": delay,
        "probe_runs": probes,
    }


def cmd_frontier(
    config: ExperimentConfig,
    target_delay_s: float,
    delay_tolerance_s: float,
    f_values: list[float],
    m_values: list[int],
    rate_lo: float,
    rate_hi: float,
    max_iter: int = 32,
) -> list[dict]:
    """Minimum radio rate meeting the delay target at every grid point.

    A point whose delay is lower at the bracket's slow end than at its fast
    end gets status ``non_monotone`` and no rate; the grid carries on.  Rows
    come ``f``-major; the points run cache value by cache value, so the
    points of one cache share each seed's task table.
    """
    if not 0 < target_delay_s < math.inf:
        raise ConfigError(f"target delay must be positive and finite, got {target_delay_s}")
    if not 0 < delay_tolerance_s < math.inf:
        raise ConfigError(f"delay tolerance must be positive and finite, got {delay_tolerance_s}")
    if not f_values or not m_values:
        raise ConfigError("frontier needs non-empty f_local and cache grids")
    if not 0 < rate_lo < rate_hi < math.inf:
        raise ConfigError(f"need 0 < rate_lo < rate_hi < inf, got ({rate_lo}, {rate_hi})")
    if max_iter < 0:
        raise ConfigError(f"bisection rounds must be non-negative, got {max_iter}")
    # The grid's values come from f_values and m_values, not from where the
    # config set those keys.
    sources = {**config.sources, "f_local_hz": None, "cache_m": None}
    points = [
        dataclasses.replace(config, f_local_hz=f_local, cache_m=cache_m, sources=sources).validate()
        for f_local in f_values
        for cache_m in m_values
    ]
    memo = _Memo()
    rows = [None] * len(points)
    for index in sorted(range(len(points)), key=lambda index: index % len(m_values)):
        rows[index] = _frontier_point(
            points[index], target_delay_s, delay_tolerance_s, rate_lo, rate_hi, max_iter, memo
        )
    return rows


# The largest (uncached contents x k span) table expected_local_bits is
# asked to sum.  Its time grows with the product, at 10-13 ns per entry on
# a 2-vCPU x86-64 VM: about 1-1.3 s at this bound.
LOCAL_BITS_ENTRY_LIMIT = 10**8
# The most k values analyze takes.  Its k-span-long tables (the mean's
# terms, the k draw's cdf, guide table and rank edges) cost about 113 bytes
# and 0.5-0.9 us per value on the same VM: 113 MB at this bound, however
# much of the catalog is cached.
K_VALUES_LIMIT = 10**6


def cmd_analyze(config: ExperimentConfig, samples: int = 20000) -> tuple[list[dict], list[str]]:
    """Closed-form expectations, slot-count estimates, regime and bounds.

    Returns CSV rows (one per control weight) and human-readable lines.
    A sweep of any axis but ``v_param``, exact local bits summing more than
    :data:`LOCAL_BITS_ENTRY_LIMIT` entries or a k range of more than
    :data:`K_VALUES_LIMIT` values is refused before any work.
    """
    if config.sweep_axis not in (None, "v_param"):
        raise config.key_error("sweep_axis", f"analyze sweeps only 'v_param', got {config.sweep_axis!r}")
    if samples < 2:
        raise ConfigError(f"--samples: need at least 2 sampled tasks for a standard error, got {samples}")
    if not config.arrival_prob > 0:
        raise ConfigError("analyze: lambda must be positive; a zero arrival rate has no feasibility regime")
    k_values = config.k_max - config.k_min + 1
    if k_values > K_VALUES_LIMIT:
        raise ConfigError(
            f"analyze: the k range holds {k_values:,} values, above the bound K_VALUES_LIMIT = {K_VALUES_LIMIT:,}"
        )
    entries = (config.n_contents - config.cache_m) * k_values
    if entries > LOCAL_BITS_ENTRY_LIMIT:
        raise ConfigError(
            f"analyze: the exact local bits would sum {entries:,} entries (uncached contents x k span), "
            f"above the bound LOCAL_BITS_ENTRY_LIMIT = {LOCAL_BITS_ENTRY_LIMIT:,}"
        )
    catalog, capacity, params, _, _ = build_system(config)
    k_dist = uniform_k_dist(config.k_min, config.k_max)
    mec_mean = expected_mec_bits(config.tau_bits, k_dist)
    local_mean = expected_local_bits(config.tau_bits, catalog.popularity, capacity, k_dist)
    estimate = estimate_slot_means(catalog, capacity, params, k_dist, samples=samples, seed=config.seeds[0])
    report = optimal_average_data(
        estimate.local_mean, estimate.mec_mean, config.arrival_prob, mec_mean, local_mean
    )
    v_values = list(config.sweep_values) if config.sweep_axis else [config.v_param]
    rows = []
    for v in v_values:
        rows.append(
            {
                "lambda": config.arrival_prob,
                "cache_m": config.cache_m,
                "samples": samples,
                "local_slot_mean": estimate.local_mean,
                "local_slot_se": estimate.local_se,
                "mec_slot_mean": estimate.mec_mean,
                "mec_slot_se": estimate.mec_se,
                "mec_bits_mean": mec_mean,
                "local_bits_mean": local_mean,
                "regime": report.regime,
                "optimal_bits": report.optimal_bits,
                "v_param": v,
                "gap_bound_bits": optimality_gap_bound(v),
            }
        )
    lines = [
        f"arrival rate {config.arrival_prob}, cache {config.cache_m} contents",
        f"expected uplink bits per task: offloaded {mec_mean:.6g}, local {local_mean:.6g}",
        (
            f"mean busy slots over {samples} sampled tasks: "
            f"local {estimate.local_mean:.4f} (se {estimate.local_se:.2g}), "
            f"offloaded {estimate.mec_mean:.4f} (se {estimate.mec_se:.2g})"
        ),
        f"regime: {report.regime}",
        (
            "minimum long-run data average: "
            + (f"{report.optimal_bits:.6g} bits/task" if report.optimal_bits is not None else "none (overloaded)")
        ),
    ] + [
        f"gap bound at v={v:g}: {optimality_gap_bound(v):.6g} bits/task" for v in v_values
    ]
    return rows, lines


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    parser.add_argument("--seeds", metavar="LIST", help="comma-separated seeds, overrides config")
    parser.add_argument("--warmup-frac", type=float, metavar="FLOAT", help="fraction of slots excluded from metrics")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecsched",
        description="Simulate and analyse cache-aware device/edge task scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one run per seed at one operating point")
    _add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="runs across sweep_axis x seeds")
    _add_common(p_sweep)

    p_front = sub.add_parser("frontier", help="minimum radio rate meeting a delay target")
    _add_common(p_front)
    p_front.add_argument("--target-delay-s", type=float, required=True, metavar="FLOAT")
    p_front.add_argument("--tolerance-s", type=float, default=0.1, metavar="FLOAT")
    p_front.add_argument(
        "--f-values", default="5e8,1e9,2e9", metavar="LIST", help="comma-separated f_local grid (Hz)"
    )
    p_front.add_argument(
        "--m-values", default="0,50,200", metavar="LIST", help="comma-separated cache grid (contents)"
    )
    p_front.add_argument(
        "--r-bracket", default="1e8,1e10", metavar="LO,HI", help="radio-rate search bracket (bit/s)"
    )
    p_front.add_argument("--max-iter", type=int, default=32, metavar="N")

    p_an = sub.add_parser("analyze", help="expectations, regime, and bounds")
    _add_common(p_an)
    p_an.add_argument("--samples", type=int, default=20000, metavar="N", help="tasks sampled for slot means")

    return parser


def _parse_list(raw: str, what: str, parse: Callable = float) -> list:
    try:
        values = [parse(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        kind = "integers" if parse is parse_int else "numbers"
        raise ConfigError(f"{what}: expected comma-separated {kind}, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{what}: empty list")
    return values


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    config = apply_overrides(config, args.overrides)
    if args.seeds:
        set_key(config, "seeds", args.seeds, "--seeds")
    if args.warmup_frac is not None:
        config.warmup_frac = args.warmup_frac
        config.sources["warmup_frac"] = "--warmup-frac"
    return config.validate()


def _emit(csv_text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; keep exit codes stable
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1

    try:
        config = _load(args)
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"--out {args.out}: no directory {os.path.dirname(args.out)}")
        if args.command == "simulate":
            rows = cmd_simulate(config)
            _emit(rows_to_csv(rows, SIMULATE_COLUMNS), args.out)
            print(f"simulate: {len(rows)} runs at policy={config.policy}", file=sys.stderr)
        elif args.command == "sweep":
            rows = cmd_sweep(config)
            _emit(rows_to_csv(rows, SWEEP_COLUMNS), args.out)
            print(
                f"sweep: {config.sweep_axis} over {len(config.sweep_values or [])} values, "
                f"{len(rows)} runs",
                file=sys.stderr,
            )
        elif args.command == "frontier":
            bracket = _parse_list(args.r_bracket, "--r-bracket")
            if len(bracket) != 2:
                raise ConfigError(f"--r-bracket: expected LO,HI, got {args.r_bracket!r}")
            f_values = _parse_list(args.f_values, "--f-values")
            m_values = _parse_list(args.m_values, "--m-values", parse_int)
            rows = cmd_frontier(
                config,
                target_delay_s=args.target_delay_s,
                delay_tolerance_s=args.tolerance_s,
                f_values=f_values,
                m_values=m_values,
                rate_lo=bracket[0],
                rate_hi=bracket[1],
                max_iter=args.max_iter,
            )
            _emit(rows_to_csv(rows, FRONTIER_COLUMNS), args.out)
            reached = sum(1 for r in rows if r["status"] == "ok")
            print(f"frontier: {reached}/{len(rows)} grid points hit the target", file=sys.stderr)
        elif args.command == "analyze":
            rows, lines = cmd_analyze(config, samples=args.samples)
            _emit(rows_to_csv(rows, ANALYZE_COLUMNS), args.out)
            for line in lines:
                print(line, file=sys.stderr)
    except (ConfigError, MemoryError) as exc:
        # A MemoryError means the input asks for more than the machine holds
        # (say a huge catalog with no cache); numpy's says how much.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (ContractViolation, MetricUndefined, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
