"""Acceptance suite: ten numbered criteria, one pass/fail line each.

The per-criterion lines are collected in ``ACCEPTANCE_REPORT`` and printed
by the terminal-summary hook in ``conftest.py``.  Heavy simulations are
shared through module-scoped fixtures; every simulator run executed here,
including the ones launched indirectly through the command layer, is
recorded in ``ALL_RUNS`` so the drift criterion can audit all of them.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

import mecsched.cli as cli
from mecsched.analysis import (
    REGIME_MIXED,
    estimate_slot_means,
    expected_local_bits,
    expected_mec_bits,
    optimal_average_data,
    optimality_gap_bound,
    uniform_k_dist,
)
from mecsched.catalog import ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import task_bits
from mecsched.engine import (
    avg_data_per_task,
    decile_means,
    mean_delay_slots,
    run_simulation,
)
from mecsched.policy import (
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_IDLE,
    ACTIONS,
    PolicySpec,
    decide,
    feasible_actions,
)
from mecsched.workload import WorkloadConfig, draw_tasks, sample_tasks

ACCEPTANCE_REPORT: dict[int, str] = {}
ALL_RUNS: list = []

HORIZON = 100_000
BASELINE_MBIT = 250.0
CACHE_GRID = list(range(0, 101, 10))
F_GRID = [1.0e9, 1.25e9, 1.5e9, 1.75e9, 1.0e10]
F_SWEEP_V = 3e-7
V_GRID = [1e-9, 1e-8, 1e-7, 1e-6]
FRONTIER_F = [1e9, 2e9, 4e9]
FRONTIER_M = [0, 50, 200]
FRONTIER_TARGET_S = 0.6
FRONTIER_TOL_S = 0.04


def _report(n: int, ok: bool, detail: str) -> bool:
    ACCEPTANCE_REPORT[n] = f"{'PASS' if ok else 'FAIL'} criterion {n:2d}: {detail}"
    return ok


@pytest.fixture(scope="module", autouse=True)
def _track_cli_runs():
    # route the command layer's simulations into ALL_RUNS as well
    original = cli.run_simulation

    def tracking(*args, **kwargs):
        metrics = original(*args, **kwargs)
        ALL_RUNS.append(metrics)
        return metrics

    cli.run_simulation = tracking
    yield
    cli.run_simulation = original


# Task tables by the arguments they were drawn with, catalogs by theirs
# (one catalog per set, so a catalog keys a table by identity): the
# fixtures' runs at one seed and cache size share their tasks whatever the
# weight, policy or speed.
_CATALOGS: dict = {}
_TABLES: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _free_task_tables():
    yield
    _TABLES.clear()
    _CATALOGS.clear()


def _run_point(seed: int, collect_series: bool = False, **cfg):
    config = ExperimentConfig(**cfg).validate()
    catalog, capacity, params, workload_cfg, policy = build_system(config, _CATALOGS)
    key = (catalog, capacity, workload_cfg, config.horizon_slots, seed)
    if key not in _TABLES:
        _TABLES[key] = draw_tasks(*key)
    metrics = run_simulation(
        _TABLES[key], params, policy, warmup_frac=config.warmup_frac, collect_series=collect_series
    )
    ALL_RUNS.append(metrics)
    return metrics


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


@pytest.fixture(scope="module")
def baseline_runs():
    start = time.perf_counter()
    runs = [_run_point(seed, policy="mec_only") for seed in range(5)]
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def sampled_local_bits(catalog):
    # mean fetched bits per locally run task, straight from the sampler;
    # every cache size sees the same 100,000 tasks
    wl = WorkloadConfig(arrival_prob=0.4, k_min=40, k_max=60)
    n_tasks = 100_000
    means = {}
    for m in (0, 50, 200):
        ks, distinct = sample_tasks(np.random.default_rng(123), catalog, wl, n_tasks, m)
        local_bits, _ = task_bits(catalog, ks, distinct)
        means[m] = float(local_bits.sum()) / n_tasks
    return means


@pytest.fixture(scope="module")
def cache_sweep():
    out = {}
    for m in CACHE_GRID:
        values = [
            avg_data_per_task(_run_point(seed, cache_m=m, v_param=1e-6))
            for seed in range(5)
        ]
        out[m] = np.array(values)
    return out


@pytest.fixture(scope="module")
def f_sweep():
    out = {}
    for f in F_GRID:
        values = [
            avg_data_per_task(_run_point(seed, f_local_hz=f, v_param=F_SWEEP_V))
            for seed in range(5)
        ]
        out[f] = np.array(values)
    return out


@pytest.fixture(scope="module")
def v_sweep():
    out = {}
    for v in V_GRID:
        values = [
            avg_data_per_task(_run_point(seed, v_param=v)) for seed in range(10)
        ]
        out[v] = np.array(values)
    return out


@pytest.fixture(scope="module")
def slot_mean_report(catalog):
    config = ExperimentConfig().validate()
    _, capacity, params, _, _ = build_system(config)
    est = estimate_slot_means(
        catalog, capacity, params, uniform_k_dist(40, 60), samples=20_000, seed=0
    )
    report = optimal_average_data(
        est.local_mean,
        est.mec_mean,
        config.arrival_prob,
        expected_mec_bits(5e6, uniform_k_dist(40, 60)),
        expected_local_bits(5e6, catalog.popularity, 50, uniform_k_dist(40, 60)),
    )
    return est, report


@pytest.fixture(scope="module")
def stability_pair():
    stable = _run_point(0, v_param=1e-8, collect_series=True)
    unstable = _run_point(0, v_param=1e-8, arrival_prob=0.8, collect_series=True)
    return stable, unstable


@pytest.fixture(scope="module")
def frontier_data():
    config = ExperimentConfig(
        arrival_prob=0.2, v_param=0.0, horizon_slots=30_000, seeds=[0, 1, 2],
    ).validate()
    rows = cli.cmd_frontier(
        config,
        target_delay_s=FRONTIER_TARGET_S,
        delay_tolerance_s=FRONTIER_TOL_S,
        f_values=FRONTIER_F,
        m_values=FRONTIER_M,
        rate_lo=1.5e8,
        rate_hi=2e10,
        max_iter=24,
    )
    # re-simulate every point from scratch on seeds the search never used
    resim = {}
    for row in rows:
        if row["status"] != "ok":
            resim[(row["f_local_hz"], row["cache_m"])] = float("nan")
            continue
        point = dataclasses.replace(
            config,
            f_local_hz=row["f_local_hz"],
            cache_m=int(row["cache_m"]),
            rate_bps=row["required_rate_bps"],
        )
        catalog_p, cache_p, params_p, wl_p, policy_p = build_system(point)
        delays = []
        for seed in (7, 8, 9):
            tasks = draw_tasks(catalog_p, cache_p, wl_p, point.horizon_slots, seed)
            metrics = run_simulation(tasks, params_p, policy_p, warmup_frac=point.warmup_frac)
            ALL_RUNS.append(metrics)
            delays.append(mean_delay_slots(metrics) * point.slot_seconds)
        resim[(row["f_local_hz"], row["cache_m"])] = float(np.mean(delays))
    return rows, resim


@pytest.fixture(scope="module")
def csv_outputs():
    sim_cfg = ExperimentConfig(horizon_slots=2000, seeds=[0, 1], v_param=1e-8).validate()
    sweep_cfg = ExperimentConfig(
        horizon_slots=1500, seeds=[0, 1], v_param=1e-8,
        sweep_axis="cache_m", sweep_values=[0.0, 100.0],
    ).validate()
    frontier_cfg = ExperimentConfig(
        arrival_prob=0.2, v_param=0.0, horizon_slots=3000, seeds=[0],
    ).validate()

    def frontier_csv():
        rows = cli.cmd_frontier(
            frontier_cfg, target_delay_s=0.8, delay_tolerance_s=0.1,
            f_values=[2e9], m_values=[50], rate_lo=1.5e8, rate_hi=2e10, max_iter=12,
        )
        return cli.rows_to_csv(rows, cli.FRONTIER_COLUMNS)

    pairs = {
        "simulate": (
            cli.rows_to_csv(cli.cmd_simulate(sim_cfg), cli.SIMULATE_COLUMNS),
            cli.rows_to_csv(cli.cmd_simulate(sim_cfg), cli.SIMULATE_COLUMNS),
        ),
        "sweep": (
            cli.rows_to_csv(cli.cmd_sweep(sweep_cfg), cli.SWEEP_COLUMNS),
            cli.rows_to_csv(cli.cmd_sweep(sweep_cfg), cli.SWEEP_COLUMNS),
        ),
        "frontier": (frontier_csv(), frontier_csv()),
    }
    return pairs


def test_criterion_01_offload_baseline_mean(baseline_runs) -> None:
    runs, elapsed = baseline_runs
    per_seed = np.array([avg_data_per_task(m) for m in runs]) / 1e6
    mean = float(per_seed.mean())
    rel = abs(mean - BASELINE_MBIT) / BASELINE_MBIT
    ok = rel <= 0.01 and elapsed < 60.0
    detail = (
        f"offload-everything mean data {mean:.3f} Mbit vs {BASELINE_MBIT:.0f} Mbit "
        f"(rel {rel:.4%}, limit 1%), 5 seeds in {elapsed:.1f}s"
    )
    assert _report(1, ok, detail), detail


def test_criterion_02_local_bits_closed_form_vs_sampling(catalog, sampled_local_bits) -> None:
    dist = uniform_k_dist(40, 60)
    rels = {}
    for m, sampled in sampled_local_bits.items():
        exact = expected_local_bits(5e6, catalog.popularity, m, dist)
        rels[m] = abs(sampled - exact) / exact
    ok = all(r <= 0.005 for r in rels.values())
    detail = (
        "closed-form vs sampled local bits, rel diff "
        + ", ".join(f"M={m}: {r:.4%}" for m, r in sorted(rels.items()))
        + " (limit 0.5%)"
    )
    assert _report(2, ok, detail), detail


def test_criterion_03_cache_sweep_reduces_data(cache_sweep, baseline_runs) -> None:
    runs, _ = baseline_runs
    baseline = float(np.mean([avg_data_per_task(m) for m in runs]))
    means = np.array([cache_sweep[m].mean() for m in CACHE_GRID])
    ses = np.array([cache_sweep[m].std(ddof=1) / np.sqrt(len(cache_sweep[m])) for m in CACHE_GRID])
    step_slack = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
    monotone = bool(np.all(np.diff(means) <= step_slack))
    below = bool(np.all(means <= baseline))
    ok = monotone and below
    detail = (
        f"cache 0..100 mean data {means[0] / 1e6:.2f}->{means[-1] / 1e6:.2f} Mbit, "
        f"non-increasing within 1 se {monotone}, all below offload baseline "
        f"{baseline / 1e6:.2f} Mbit {below}"
    )
    assert _report(3, ok, detail), detail


def test_criterion_04_cpu_sweep_approaches_local_floor(catalog, f_sweep) -> None:
    means = np.array([f_sweep[f].mean() for f in F_GRID])
    ses = np.array([f_sweep[f].std(ddof=1) / np.sqrt(len(f_sweep[f])) for f in F_GRID])
    step_slack = np.sqrt(ses[:-1] ** 2 + ses[1:] ** 2)
    monotone = bool(np.all(np.diff(means) <= step_slack))

    floor = expected_local_bits(5e6, catalog.popularity, 50, uniform_k_dist(40, 60))
    top_rel = abs(means[-1] - floor) / floor

    config = ExperimentConfig(f_local_hz=F_GRID[-1]).validate()
    _, capacity, params, _, _ = build_system(config)
    est = estimate_slot_means(catalog, capacity, params, uniform_k_dist(40, 60), samples=20_000, seed=0)
    covered = 1.0 / est.local_mean >= config.arrival_prob

    ok = monotone and covered and top_rel <= 0.02
    detail = (
        f"cpu sweep mean data {means[0] / 1e6:.2f}->{means[-1] / 1e6:.2f} Mbit non-increasing "
        f"{monotone}; at f=1e10 local rate 1/{est.local_mean:.3f}>=0.4 {covered}, "
        f"data within {top_rel:.3%} of local-only {floor / 1e6:.2f} Mbit (limit 2%)"
    )
    assert _report(4, ok, detail), detail


def test_criterion_05_weight_gap_bound(v_sweep, slot_mean_report) -> None:
    est, report = slot_mean_report
    assert report.regime == REGIME_MIXED
    d_opt = report.optimal_bits
    means = np.array([v_sweep[v].mean() for v in V_GRID])
    ses = np.array([v_sweep[v].std(ddof=1) / np.sqrt(len(v_sweep[v])) for v in V_GRID])
    gaps = means - d_opt
    bounds = np.array([optimality_gap_bound(v) for v in V_GRID])
    within = bool(np.all(gaps <= bounds + 3 * ses))
    monotone = bool(np.all(np.diff(gaps) <= 0))
    ok = within and monotone
    gap_text = ", ".join(
        f"v={v:g}: {g / 1e6:+.2f}<={b / 1e6:.4g} Mbit"
        for v, g, b in zip(V_GRID, gaps, bounds)
    )
    detail = (
        f"optimum {d_opt / 1e6:.2f} Mbit ({report.regime}); gap vs 5/(2v)+3se: "
        f"{gap_text}; within {within}, non-increasing {monotone}"
    )
    assert _report(5, ok, detail), detail


def test_criterion_06_drift_inequality_everywhere(
    baseline_runs, cache_sweep, f_sweep, v_sweep, stability_pair, frontier_data, csv_outputs
) -> None:
    violations = sum(m.drift_violations for m in ALL_RUNS)
    slots = sum(m.horizon_slots for m in ALL_RUNS)
    ok = violations == 0 and len(ALL_RUNS) >= 100
    detail = (
        f"squared-queue drift inequality held on every slot: 0 violations required, "
        f"{violations} observed over {len(ALL_RUNS)} runs / {slots:,} slots"
    )
    assert _report(6, ok, detail), detail


def test_criterion_07_stability_regimes(stability_pair, slot_mean_report) -> None:
    stable, unstable = stability_pair
    est, _ = slot_mean_report
    capacity = 1.0 / est.local_mean + 1.0 / est.mec_mean

    stable_deciles = decile_means(stable.queue_len_series)
    stable_ok = (
        not stable.infeasibility_flag
        and stable_deciles[-1] <= 2.0 * stable.queue_len_series.mean()
    )
    unstable_deciles = decile_means(unstable.queue_len_series)
    unstable_ok = unstable.infeasibility_flag and bool(np.all(np.diff(unstable_deciles) > 0))
    between = 0.4 < capacity < 0.8
    ok = stable_ok and unstable_ok and between
    detail = (
        f"capacity {capacity:.3f} tasks/slot sits between 0.4 (stable: last decile "
        f"{stable_deciles[-1]:.2f} <= 2x mean {stable.queue_len_series.mean():.2f}, "
        f"flag clear {not stable.infeasibility_flag}) and 0.8 (divergent: deciles "
        f"{unstable_deciles[0]:.0f}->{unstable_deciles[-1]:.0f} strictly increasing, "
        f"flag set {unstable.infeasibility_flag})"
    )
    assert _report(7, ok, detail), detail


def test_criterion_08_rate_frontier(frontier_data) -> None:
    rows, resim = frontier_data
    all_ok = all(row["status"] == "ok" for row in rows)
    rate = {(row["f_local_hz"], row["cache_m"]): row["required_rate_bps"] for row in rows}
    mono_f = all(
        rate[(f_hi, m)] <= rate[(f_lo, m)]
        for m in FRONTIER_M
        for f_lo, f_hi in zip(FRONTIER_F, FRONTIER_F[1:])
    )
    mono_m = all(
        rate[(f, m_hi)] <= rate[(f, m_lo)]
        for f in FRONTIER_F
        for m_lo, m_hi in zip(FRONTIER_M, FRONTIER_M[1:])
    )
    errors = {key: abs(delay - FRONTIER_TARGET_S) for key, delay in resim.items()}
    worst = max(errors.values())
    resim_ok = worst <= FRONTIER_TOL_S
    ok = all_ok and mono_f and mono_m and resim_ok
    detail = (
        f"9/9 frontier points solved {all_ok}; required rate non-increasing in cpu "
        f"{mono_f} and cache {mono_m}; fresh-seed re-simulation worst delay error "
        f"{worst * 1e3:.1f} ms (limit {FRONTIER_TOL_S * 1e3:.0f} ms)"
    )
    assert _report(8, ok, detail), detail


def test_criterion_09_csv_determinism(csv_outputs) -> None:
    same = {name: first == second for name, (first, second) in csv_outputs.items()}
    ok = all(same.values())
    detail = "byte-identical CSV on repeat: " + ", ".join(
        f"{name} {match}" for name, match in sorted(same.items())
    )
    assert _report(9, ok, detail), detail


def _mirror_feasible(busy_local: int, busy_mec: int, q_len: int) -> frozenset:
    # independent transcription of the per-case action sets
    if q_len == 0 or (busy_local > 0 and busy_mec > 0):
        return frozenset({ACTION_IDLE})
    if busy_local == 0 and busy_mec == 0:
        if q_len >= 2:
            return frozenset(ACTIONS)
        return frozenset({ACTION_IDLE, ACTION_FIRST_LOCAL, ACTION_FIRST_MEC})
    if busy_local > 0:
        return frozenset({ACTION_IDLE, ACTION_FIRST_MEC})
    return frozenset({ACTION_IDLE, ACTION_FIRST_LOCAL})


def test_criterion_10_action_feasibility(catalog) -> None:
    rng = np.random.default_rng(2024)
    n_states = 1_000_000
    sl = rng.integers(0, 4, size=n_states).tolist()
    sc = rng.integers(0, 4, size=n_states).tolist()
    qs = rng.integers(0, 6, size=n_states).tolist()
    # Both functions depend on the state alone, and the states hold 96
    # distinct triples: each triple is compared once, and a mismatch counts
    # once per state drawn as it.
    states = Counter(zip(sl, sc, qs))
    mismatches = sum(
        n for state, n in states.items() if frozenset(feasible_actions(*state)) != _mirror_feasible(*state)
    )

    wl = WorkloadConfig(arrival_prob=0.4, k_min=40, k_max=60)
    pool_rng = np.random.default_rng(77)
    ks, distinct = sample_tasks(pool_rng, catalog, wl, 60, 50)
    pool = list(zip(*(bits.tolist() for bits in task_bits(catalog, ks, distinct))))
    policies = [
        PolicySpec("lyapunov", 0.0),
        PolicySpec("lyapunov", 1e-7),
        PolicySpec("lyapunov", 1.0),
        PolicySpec("mec_only"),
        PolicySpec("local_only"),
    ]
    decide_checked = 0
    decide_bad = 0
    for trial in range(2000):
        bl = int(pool_rng.integers(0, 4))
        bc = int(pool_rng.integers(0, 4))
        q = int(pool_rng.integers(0, 5))
        queue = [pool[int(pool_rng.integers(0, 60))] for _ in range(q)]
        first, second = (queue + [(0.0, 0.0), (0.0, 0.0)])[:2]
        action = decide(policies[trial % len(policies)], bl, bc, q, *first, *second)
        decide_checked += 1
        if action not in feasible_actions(bl, bc, q):
            decide_bad += 1

    ok = mismatches == 0 and decide_bad == 0
    detail = (
        f"feasible sets match the case table on {n_states:,} random states "
        f"({mismatches} mismatches); decision in feasible set on {decide_checked} "
        f"state/policy draws ({decide_bad} violations)"
    )
    assert _report(10, ok, detail), detail
