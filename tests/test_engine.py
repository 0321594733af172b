from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from mecsched import _kernel, engine, workload
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import (
    avg_data_per_task,
    avg_queue_length,
    decile_means,
    draw_tasks,
    little_delay,
    mean_delay_slots,
    run_simulation,
)
from mecsched.errors import ConfigError, MetricUndefined
from mecsched.policy import ACTION_SPLIT_LOCAL_MEC, POLICY_KINDS, decide
from mecsched.workload import task_streams
from kernel_extremes import TIE_PARAMS, TIE_POLICY, assert_same_metrics, tie_table


def _system(**cfg_kw):
    config = ExperimentConfig(**cfg_kw).validate()
    return build_system(config), config


def _simulate(system, horizon, seed, **run_kw):
    catalog, capacity, params, workload_cfg, policy = system
    return run_simulation(draw_tasks(catalog, capacity, workload_cfg, horizon, seed), params, policy, **run_kw)


def _run(horizon=2000, seed=0, warmup_frac=0.1, collect_series=True, **cfg_kw):
    system, _ = _system(**cfg_kw)
    return _simulate(system, horizon, seed, warmup_frac=warmup_frac, collect_series=collect_series)


def test_no_arrivals_means_no_activity() -> None:
    metrics = _run(horizon=1000, arrival_prob=0.0)
    assert metrics.arrivals == 0
    assert metrics.completions == 0
    assert metrics.scheduled == 0
    assert metrics.total_tx_bits == 0.0
    assert avg_queue_length(metrics) == 0.0
    with pytest.raises(MetricUndefined):
        avg_data_per_task(metrics)
    with pytest.raises(MetricUndefined):
        mean_delay_slots(metrics)
    with pytest.raises(MetricUndefined):
        little_delay(metrics, 0.0, 0.2)


def test_saturated_server_only_queue_grows() -> None:
    # service takes ~3 slots per task, one arrival per slot: unstable.
    metrics = _run(horizon=5000, arrival_prob=1.0, policy="mec_only")
    assert metrics.infeasibility_flag
    means = decile_means(metrics.queue_len_series)
    assert np.all(np.diff(means) > 0)
    assert metrics.queue_len_series[-1] > 2000


def test_stable_run_flag_stays_clear() -> None:
    # both processors together cover the 0.4 arrival rate comfortably
    metrics = _run(horizon=20000, v_param=1e-8)
    assert not metrics.infeasibility_flag
    # the server alone cannot (about 0.32 tasks per slot), but a lighter
    # load keeps it stable too
    light = _run(horizon=20000, policy="mec_only", arrival_prob=0.25)
    assert not light.infeasibility_flag


def test_repeat_runs_are_identical() -> None:
    a = _run(horizon=3000, seed=11)
    b = _run(horizon=3000, seed=11)
    assert a.arrivals == b.arrivals
    assert a.completions == b.completions
    assert a.total_tx_bits == b.total_tx_bits
    assert a.queue_len_sum == b.queue_len_sum
    assert np.array_equal(a.queue_len_series, b.queue_len_series)
    assert np.array_equal(a.delays_slots, b.delays_slots)
    c = _run(horizon=3000, seed=12)
    assert not np.array_equal(a.queue_len_series, c.queue_len_series)


def test_transmitted_data_never_exceeds_largest_task() -> None:
    metrics = _run(horizon=20000, policy="mec_only")
    per_task = avg_data_per_task(metrics)
    assert per_task <= 60 * 5e6
    assert per_task == pytest.approx(250e6, rel=0.01)


def test_measured_delay_dominates_queueing_law_delay() -> None:
    metrics = _run(horizon=20000, v_param=1e-8)
    waiting = little_delay(metrics, 0.4, 0.2)
    measured = mean_delay_slots(metrics) * 0.2
    assert measured >= waiting


def test_drift_inequality_never_violated() -> None:
    for policy, v in (("lyapunov", 1e-8), ("lyapunov", 0.0), ("mec_only", 0.0)):
        metrics = _run(horizon=5000, policy=policy, v_param=v)
        assert metrics.drift_violations == 0


@pytest.mark.parametrize(
    "arrival_prob, seed, horizon, warmup_frac, expected",
    [
        (0.4, 0, 3000, 0.1, (1324, 197, 180)),
        (0.4, 1, 5000, 0.3, (1985, 900, 777)),
        (0.8, 2, 4000, 0.0, (1, 1498737, 1498737)),
        (0.2, 3, 6000, 0.5, (2940, -1712, -767)),
    ],
    ids=["seed0", "seed1", "seed2", "seed3"],
)
def test_drift_audit_catches_starts_beyond_the_queue(
    monkeypatch, arrival_prob, seed, horizon, warmup_frac, expected
) -> None:
    # A rule that starts two tasks whenever both processors are free, even
    # with one queued: it drives the queue negative and starts a task before
    # it arrives.  The inequality alone holds on every slot (it is an
    # identity of the queue recursion); its precondition u <= q does not.
    def split_whenever_free(policy, busy_local, busy_mec, q_len, *bits):
        if not busy_local and not busy_mec and q_len >= 1:
            return ACTION_SPLIT_LOCAL_MEC
        return decide(policy, busy_local, busy_mec, q_len, *bits)

    # Only the Python loop calls engine.decide; the compiled one has its own.
    monkeypatch.setattr(_kernel, "lib", None)
    monkeypatch.setattr(engine, "decide", split_whenever_free)
    (catalog, capacity, params, workload_cfg, policy), _ = _system(arrival_prob=arrival_prob)
    table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed)
    metrics = run_simulation(table, params, policy, warmup_frac=warmup_frac, collect_series=True)
    found = (metrics.drift_violations, metrics.queue_len_sum, metrics.queue_len_sum_after_warmup)
    assert found == expected
    # Slot by slot: u_t = q_t - q_(t+1) + a_t starts, q_H the final backlog.
    q = np.append(metrics.queue_len_series, metrics.arrivals - metrics.scheduled)
    started = q[:-1] - q[1:] + np.bincount(table.arrival_slot, minlength=horizon)
    assert np.count_nonzero(started > q[:-1]) == metrics.drift_violations
    assert q[:-1].sum() == metrics.queue_len_sum
    assert q[metrics.warmup_slots:-1].sum() == metrics.queue_len_sum_after_warmup


def test_run_without_series_allocates_nothing_per_slot() -> None:
    # The table holds per-task arrays only.  Given it, a run without a
    # series grows between two horizons by its per-task arrays alone.  A
    # series would add 8 bytes per slot, more than the whole allowance.
    (catalog, capacity, params, workload_cfg, policy), _ = _system(arrival_prob=0.02)
    peaks, n_tasks = [], []
    for horizon in (25_000, 75_000):
        table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed=0)
        tracemalloc.start()
        try:
            run_simulation(table, params, policy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        n_tasks.append(table.arrival_slot.size)
    assert peaks[1] - peaks[0] <= 2 * 50_000 + 128 * (n_tasks[1] - n_tasks[0])


def test_compiled_run_allocates_24_bytes_per_task() -> None:
    # Given its table, a compiled run without a series allocates the arrival
    # copy and the two delay arrays, 24 bytes per task; the busy-slot counts
    # are computed when each task starts, with no per-task array.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled slot loop is not built")
    (catalog, capacity, params, workload_cfg, policy), _ = _system(arrival_prob=0.5)
    peaks, n_tasks = [], []
    for horizon in (50_000, 150_000):
        table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed=0)
        tracemalloc.start()
        try:
            run_simulation(table, params, policy)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        n_tasks.append(table.arrival_slot.size)
    assert peaks[1] - peaks[0] <= 24 * (n_tasks[1] - n_tasks[0]) + 4096


def test_table_keeps_nothing_per_slot() -> None:
    # 400,000 more slots bring about 400 more tasks: what the draw keeps
    # and what it peaks at grow by those tasks' arrays alone.  One byte per
    # added slot would exceed the allowance twentyfold.
    (catalog, capacity, _, workload_cfg, _), _ = _system(arrival_prob=0.001)
    # A first draw imports numpy.random; it stays out of the measurement.
    draw_tasks(catalog, capacity, workload_cfg, 100, seed=0)
    kept, peaks, n_tasks = [], [], []
    for horizon in (200_000, 600_000):
        tracemalloc.start()
        try:
            table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed=0)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept.append(size)
        peaks.append(peak)
        n_tasks.append(table.arrival_slot.size)
    allowance = 32 * (n_tasks[1] - n_tasks[0]) + 4096
    assert kept[1] - kept[0] <= allowance
    assert peaks[1] - peaks[0] <= allowance


def test_warmup_window_bookkeeping() -> None:
    metrics = _run(horizon=2000, warmup_frac=0.25)
    assert metrics.warmup_slots == 500
    assert metrics.arrivals_after_warmup <= metrics.arrivals
    assert metrics.scheduled_after_warmup <= metrics.scheduled
    assert metrics.tx_bits_after_warmup <= metrics.total_tx_bits
    assert metrics.queue_len_sum_after_warmup <= metrics.queue_len_sum
    full = _run(horizon=2000, warmup_frac=0.0)
    assert full.warmup_slots == 0
    assert full.arrivals_after_warmup == full.arrivals
    assert full.tx_bits_after_warmup == full.total_tx_bits


def test_decile_means_values() -> None:
    series = np.arange(20)
    assert np.allclose(decile_means(series), np.arange(0.5, 20, 2.0))
    short = decile_means(np.array([0, 1, 2]))
    assert np.allclose(short, [0.0, 1.0, 2.0])


def test_series_collection_optional() -> None:
    # Off by default: a run keeps no 8-byte-per-slot series unless asked.
    system, _ = _system()
    metrics = _simulate(system, 1000, 0)
    assert metrics.queue_len_series is None
    assert not metrics.infeasibility_flag


def test_run_rejects_bad_arguments() -> None:
    # The horizon and exact-bit guards belong to the draw (see
    # test_draw_guards_fire_before_allocating); a run checks its warm-up.
    (catalog, capacity, params, workload_cfg, policy), _ = _system()
    table = draw_tasks(catalog, capacity, workload_cfg, 100, seed=0)
    with pytest.raises(ConfigError):
        run_simulation(table, params, policy, warmup_frac=1.0)
    with pytest.raises(ConfigError):
        run_simulation(table, params, policy, warmup_frac=-0.1)


def test_run_rejects_fractional_content_size() -> None:
    # bit totals are exact integers only for whole-bit contents
    system, _ = _system(tau_bits=0.3)
    with pytest.raises(ConfigError, match="whole number of bits"):
        _simulate(system, 100, 0)
    system, _ = _system(tau_bits=3.0)
    assert _simulate(system, 100, 0).arrivals > 0


def test_short_run_regression_pin() -> None:
    metrics = _run(horizon=500, seed=0)
    assert metrics.arrivals == 204
    assert metrics.completions == 19
    assert metrics.scheduled == 19
    assert metrics.total_tx_bits == 2535000000.0
    assert metrics.queue_len_sum == 48003


def test_delay_accounting_single_task() -> None:
    # one arrival, huge fetch rate: the lone task finishes the slot it starts.
    metrics = _run(
        horizon=400, arrival_prob=1.0, policy="local_only",
        f_local_hz=1e13, rate_bps=1e13, warmup_frac=0.0,
    )
    # arrival in slot t is served in slot t+1: two slots in system, exactly.
    assert metrics.completions == 399
    assert mean_delay_slots(metrics) == 2.0


def test_chunked_arrivals_equal_one_draw() -> None:
    # Slot-length service: each arrival is the whole queue of the next
    # slot, so the queue series replays the arrival pattern.  The horizon
    # spans three draw chunks, the last one partial.
    horizon = 2 * 65536 + 3
    system, config = _system(
        arrival_prob=0.5, policy="local_only", k_min=1, k_max=1,
        f_local_hz=1e13, rate_bps=1e13,
    )
    metrics = _simulate(system, horizon, 4, collect_series=True)
    arriving = task_streams(4)[0].random(horizon) < config.arrival_prob
    assert metrics.arrivals == np.count_nonzero(arriving)
    assert np.array_equal(metrics.queue_len_series[1:], arriving[:-1])


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_pre_drawn_table_gives_the_fresh_run(policy) -> None:
    # One table, drawn at the base point, serves runs whose weight, radio
    # rate or device speed differ: none of them enters a draw.
    (catalog, capacity, _, workload_cfg, _), config = _system(policy=policy, arrival_prob=0.6)
    table = draw_tasks(catalog, capacity, workload_cfg, 3000, seed=5)
    for change in ({}, {"v_param": 1e-8}, {"v_param": 0.0}, {"rate_bps": 2e8}, {"f_local_hz": 4e9}):
        point = dataclasses.replace(config, **change).validate()
        system = build_system(point)
        _, _, params, _, point_policy = system
        fresh = _simulate(system, 3000, 5, warmup_frac=0.2, collect_series=True)
        reused = run_simulation(table, params, point_policy, warmup_frac=0.2, collect_series=True)
        assert_same_metrics(reused, fresh)


@pytest.mark.parametrize("policy", POLICY_KINDS)
def test_compiled_loop_matches_python_loop(policy, monkeypatch) -> None:
    # Light, heavy and weight-free loads, and one whose tasks never finish
    # (busy counts at the 2**62 cap): every field equal under both loops.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled slot loop is not built")
    horizon = 20_000
    for change in (
        {"arrival_prob": 0.4},
        {"arrival_prob": 0.8, "v_param": 1e-7},
        {"arrival_prob": 0.6, "v_param": 0.0},
        {"arrival_prob": 0.3, "rate_bps": 1e-300},
    ):
        (catalog, capacity, params, workload_cfg, point_policy), _ = _system(policy=policy, **change)
        table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed=3)
        compiled = run_simulation(table, params, point_policy, collect_series=True)
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "lib", None)
            reference = run_simulation(table, params, point_policy, collect_series=True)
        assert_same_metrics(compiled, reference)


@pytest.mark.parametrize("loop", ["c", "python"])
def test_same_slot_completions_and_the_horizon_edge(loop, monkeypatch) -> None:
    # kernel_extremes.tie_table: tasks 2 (device) and 1 (server) end in slot
    # 4, task 3 in slot 8 = horizon - 1 and task 4 in slot 9 = horizon.  A
    # completion records in its slot the device's task before the server's.
    if loop == "c" and _kernel.lib is None:
        pytest.skip("no C compiler: the compiled slot loop is not built")
    if loop == "python":
        monkeypatch.setattr(_kernel, "lib", None)
    metrics = run_simulation(tie_table(9), TIE_PARAMS, TIE_POLICY, warmup_frac=0.0, collect_series=True)
    assert metrics.delays_slots.tolist() == [3, 3, 4, 6]
    assert metrics.delay_arrival_slots.tolist() == [0, 2, 1, 3]
    # 6 arrivals = 4 completed + 1 in service (task 4) + 1 queued (task 5).
    assert (metrics.arrivals, metrics.scheduled, metrics.completions) == (6, 5, 4)
    assert metrics.queue_len_series.tolist() == [0, 1, 1, 1, 1, 2, 1, 1, 1]
    assert (metrics.total_tx_bits, metrics.queue_len_sum, metrics.drift_violations) == (16.0, 9, 0)
    # From slot 5: tasks 3 and 4 start, task 5 arrives.
    late = run_simulation(tie_table(9), TIE_PARAMS, TIE_POLICY, warmup_frac=5.5 / 9)
    assert late.warmup_slots == 5
    assert (late.scheduled_after_warmup, late.tx_bits_after_warmup, late.arrivals_after_warmup) == (2, 9.0, 1)
    assert late.queue_len_sum_after_warmup == 5
    # Three slots more: task 5 ends on the device in slot 9, ahead of task 4
    # on the server.
    longer = run_simulation(tie_table(12), TIE_PARAMS, TIE_POLICY)
    assert longer.delay_arrival_slots.tolist() == [0, 2, 1, 3, 5, 4]
    assert longer.delays_slots.tolist() == [3, 3, 4, 6, 5, 6]


def test_table_arrays_are_read_only() -> None:
    (catalog, capacity, params, workload_cfg, policy), _ = _system()
    table = draw_tasks(catalog, capacity, workload_cfg, 500, seed=0)
    for array in (table.arrival_slot, table.local_bits, table.mec_bits):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    metrics = run_simulation(table, params, policy)
    # Run results are the run's own arrays, free to change.
    metrics.delay_arrival_slots[:1] = -1


def test_draw_guards_fire_before_allocating(monkeypatch) -> None:
    (catalog, capacity, _, workload_cfg, _), _ = _system()
    with pytest.raises(ConfigError):
        draw_tasks(catalog, capacity, workload_cfg, 0, seed=0)
    with pytest.raises(ConfigError, match="exact bit accounting"):
        # 10**15 slots would draw petabytes of per-task arrays.
        draw_tasks(catalog, capacity, workload_cfg, 10**15, seed=0)
    # One-bit, one-content tasks pass the bit guard at any feasible horizon;
    # past 3,037,000,499 slots a queue sum could leave int64.
    (catalog, capacity, _, workload_cfg, _), _ = _system(tau_bits=1.0, k_min=1, k_max=1)
    with pytest.raises(ConfigError, match="exact queue sums"):
        draw_tasks(catalog, capacity, workload_cfg, 3_037_000_500, seed=0)
    (catalog, capacity, _, workload_cfg, _), _ = _system(tau_bits=0.3)
    with pytest.raises(ConfigError, match="whole number of bits"):
        draw_tasks(catalog, capacity, workload_cfg, 100, seed=0)
    # A capacity outside the catalog is refused before any arrival is drawn.
    def no_draw(seed):
        raise AssertionError("the draw started")

    monkeypatch.setattr(workload, "task_streams", no_draw)
    (catalog, _, _, workload_cfg, _), _ = _system()
    n = catalog.n_contents
    with pytest.raises(ConfigError, match=f"capacity must lie in 0..{n}, got {n + 1}"):
        draw_tasks(catalog, n + 1, workload_cfg, 100, seed=0)
