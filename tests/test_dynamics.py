from __future__ import annotations

import warnings

import numpy as np
import pytest

from mecsched.catalog import CacheConfig, ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import SystemParams, slots_local, slots_mec, task_bits
from mecsched.engine import draw_tasks, run_simulation
from mecsched.policy import (
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_IDLE,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
    ACTIONS,
)
from fixed_uniforms import distinct_uncached


def _simulate(config: ExperimentConfig, horizon: int, **run_kw):
    """Draw seed 0's tasks for ``config`` and run them, keeping the queue series."""
    catalog, cache, params, workload_cfg, policy = build_system(config)
    tasks = draw_tasks(catalog, cache, workload_cfg, horizon, seed=0)
    return run_simulation(tasks, params, policy, collect_series=True, **run_kw)


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


@pytest.fixture(scope="module")
def cache(catalog) -> CacheConfig:
    return CacheConfig.for_catalog(catalog, 50)


def _params(**kw) -> SystemParams:
    base = dict(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=5e8)
    base.update(kw)
    return SystemParams(**base)


def _bits(contents, cache, catalog) -> tuple[float, float]:
    """(local_bits, mec_bits) of one task with the given content ranks."""
    distinct = distinct_uncached(catalog, cache, [contents])
    local, mec = task_bits(catalog, [len(contents)], distinct)
    return float(local[0]), float(mec[0])


def _slots_local(contents, cache, catalog, params) -> int:
    local, mec = _bits(contents, cache, catalog)
    return int(slots_local([mec], [local], params)[0])


def _slots_mec(contents, cache, catalog, params) -> int:
    _, mec = _bits(contents, cache, catalog)
    return int(slots_mec([mec], params)[0])


def test_action_schedule_counts() -> None:
    assert sum(ACTION_IDLE) == 0
    assert sum(ACTION_FIRST_LOCAL) == 1
    assert sum(ACTION_FIRST_MEC) == 1
    assert sum(ACTION_SPLIT_LOCAL_MEC) == 2
    assert sum(ACTION_SPLIT_MEC_LOCAL) == 2
    assert ACTIONS == (
        ACTION_IDLE,
        ACTION_FIRST_LOCAL,
        ACTION_FIRST_MEC,
        ACTION_SPLIT_LOCAL_MEC,
        ACTION_SPLIT_MEC_LOCAL,
    )


def test_action_tuples_match_canonical_encoding() -> None:
    # (local_first, local_second, mec_first, mec_second)
    assert ACTION_SPLIT_LOCAL_MEC == (1, 0, 0, 1)
    assert ACTION_SPLIT_MEC_LOCAL == (0, 1, 1, 0)
    assert any(ACTION_FIRST_LOCAL[:2]) and not any(ACTION_FIRST_LOCAL[2:])
    assert any(ACTION_SPLIT_MEC_LOCAL[:2]) and any(ACTION_SPLIT_MEC_LOCAL[2:])


def test_params_validation() -> None:
    with pytest.raises(ValueError):
        _params(rate_bps=0)
    with pytest.raises(ValueError):
        _params(slot_seconds=-1)


def test_uncached_distinct_counts_each_rank_once(catalog, cache) -> None:
    assert _bits([1, 2, 51, 51, 52], cache, catalog)[0] == 2 * 5e6
    empty = CacheConfig.for_catalog(catalog, 0)
    assert _bits([1, 2, 51, 51, 52], empty, catalog)[0] == 4 * 5e6


def test_uncached_distinct_fully_cached(catalog, cache) -> None:
    assert _bits([1, 5, 50, 50], cache, catalog)[0] == 0.0


def test_mec_bits_is_full_task(catalog, cache) -> None:
    assert _bits([1, 2, 3, 4], cache, catalog)[1] == 20e6


def test_transmitted_bits_per_action() -> None:
    # One 1 Mbit content, never cached, two copies per task: a local run
    # fetches 1 Mbit, an offload ships 2 Mbit.  Busy slots: local
    # ceil(1 + 1) = 2, server ceil(1 + 2) = 3.  One arrival per slot.
    base = dict(
        n_contents=1, cache_m=0, tau_bits=1e6, k_min=2, k_max=2, arrival_prob=1.0,
        slot_seconds=1.0, f_local_hz=2e6, f_mec_hz=2e6, rate_bps=1e6, v_param=0.0,
    )

    def run(**cfg):
        config = ExperimentConfig(**{**base, **cfg}).validate()
        return _simulate(config, 12, warmup_frac=0.0)

    # v = 0, slots 1..11: local, server, local, idle, split, idle, local,
    # server, local, idle, split (each split moves 1 + 2 Mbit)
    metrics = run()
    assert metrics.scheduled == 10
    assert metrics.total_tx_bits == 4 * 1e6 + 2 * 2e6 + 2 * 3e6
    # the fixed rules start a task whenever their processor frees up
    assert run(policy="mec_only").total_tx_bits == 4 * 2e6  # slots 1, 4, 7, 10
    assert run(policy="local_only").total_tx_bits == 6 * 1e6  # slots 1, 3, ..., 11
    # a weight that prices every start above the queue reward idles throughout
    idle = run(v_param=1.0)
    assert idle.scheduled == 0 and idle.total_tx_bits == 0.0


def test_slots_mec_reference_task(catalog, cache) -> None:
    # 50 contents, 250 Mbit: compute 0.125 slots, uplink 2.5 slots.
    assert _slots_mec(range(1, 51), cache, catalog, _params()) == 3


def test_slots_mec_fast_rate(catalog, cache) -> None:
    assert _slots_mec(range(1, 51), cache, catalog, _params(rate_bps=1e10)) == 1


def test_slots_local_fully_cached(catalog, cache) -> None:
    # 250 Mbit task, nothing to fetch: 1.25 compute slots, ceil 2.
    contents = np.arange(1, 51) % 50 + 1
    assert _bits(contents, cache, catalog)[0] == 0.0
    assert _slots_local(contents, cache, catalog, _params()) == 2


def test_slots_local_with_fetch(catalog, cache) -> None:
    # 50 contents, 20 distinct uncached (100 Mbit): 1.25 + 1.0 -> 3.
    contents = list(range(1, 31)) + list(range(51, 71))
    assert _bits(contents, cache, catalog)[0] == 100e6
    assert _slots_local(contents, cache, catalog, _params()) == 3


def test_slot_count_integer_boundary(catalog, cache) -> None:
    # compute 40 contents * 5 Mbit = 200 Mbit -> exactly 1.0 slot at 1 GHz;
    # fetch 20 distinct uncached = 100 Mbit -> exactly 1.0 slot; total exactly 2.
    contents = list(range(1, 21)) + list(range(51, 71))
    assert _bits(contents, cache, catalog) == (100e6, 200e6)
    assert _slots_local(contents, cache, catalog, _params()) == 2
    # any extra work tips it to 3
    assert _slots_local(contents + [71], cache, catalog, _params()) == 3


def test_slots_always_at_least_one(catalog, cache) -> None:
    fast = _params(f_local_hz=1e12, f_mec_hz=1e12, rate_bps=1e12)
    assert _slots_local([1], cache, catalog, fast) == 1
    assert _slots_mec([1], cache, catalog, fast) == 1
    # a duration that rounds to zero (speed * slot overflows) still takes
    # its start slot, so the processor is free again in the next one
    huge = _params(slot_seconds=1e300, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=1e300)
    assert slots_mec([5e6], huge).tolist() == [1]
    assert slots_local([5e6], [5e6], huge).tolist() == [1]


def test_slot_counts_beyond_any_horizon_are_capped() -> None:
    # Durations past int64 (2.5e19 and 2.5e307 slots), infinite ones and
    # undefined ones (0/0 once rate * slot underflows) all mean "never done".
    never = 2**62
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="invalid value encountered in cast")
        assert slots_mec([5e6], _params(rate_bps=1e-12)).tolist() == [never]
        assert slots_local([5e6], [5e6], _params(rate_bps=1e-300)).tolist() == [never]
        assert slots_mec([5e6], _params(rate_bps=1e-300)).tolist() == [never]
        tiny = _params(slot_seconds=1e-200, rate_bps=1e-200)
        assert slots_local([5e6], [0.0], tiny).tolist() == [never]
        # a start slot below 2**53 plus the count stays inside int64
        assert never + 2**53 - 1 < np.iinfo(np.int64).max


def test_unfinishable_task_stays_in_service() -> None:
    # At 1e-300 bit/s the first offloaded task never finishes, so the server
    # stays busy: nothing completes and every later arrival waits.
    config = ExperimentConfig(policy="mec_only", v_param=0.0, rate_bps=1e-300).validate()
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="invalid value encountered in cast")
        metrics = _simulate(config, 50)
    assert metrics.arrivals > 1
    assert metrics.scheduled == 1
    assert metrics.completions == 0
    assert metrics.delays_slots.size == 0
    # The run checks conservation itself (0 done + queue + 1 in service);
    # the last slot's queue holds every other arrival but that slot's own.
    assert metrics.arrivals - metrics.queue_len_series[-1] in (1, 2)


def _saturated(horizon: int = 12, **cfg):
    """One arrival per slot of identical, fully cached 50-content tasks, so
    every busy-slot count is deterministic."""
    config = ExperimentConfig(
        n_contents=50, cache_m=50, k_min=50, k_max=50, arrival_prob=1.0, **cfg
    ).validate()
    return _simulate(config, horizon, warmup_frac=0.0)


def test_step_assignment_and_completion_timing() -> None:
    # N_local = ceil(250 Mbit / (5e8 Hz * 0.2 s)) = 3: task j arrives in slot
    # j, starts in slot 1 + 3j and completes at the end of slot 3 + 3j.
    metrics = _saturated(policy="local_only", f_local_hz=5e8)
    assert metrics.delay_arrival_slots.tolist() == [0, 1, 2]
    assert metrics.delays_slots.tolist() == [4, 6, 8]  # (3 + 3j) - j + 1
    # the fourth task started in slot 10 and is still running at the horizon
    assert metrics.scheduled == 4
    assert metrics.completions == 3


def test_step_single_slot_task_completes_immediately() -> None:
    metrics = _saturated(policy="local_only", f_local_hz=1e13)
    # started the slot after it arrived and done within that slot
    assert metrics.completions == metrics.scheduled == 11
    assert set(metrics.delays_slots.tolist()) == {2}


def test_step_departures_precede_arrival() -> None:
    # the slot's arrival joins the queue after the decision: nothing can
    # start in slot 0, and the task arriving there is seen from slot 1 on
    metrics = _saturated(policy="lyapunov", v_param=0.0)
    assert metrics.queue_len_series[:2].tolist() == [0, 1]
    assert metrics.delays_slots.min() >= 2
    assert metrics.drift_violations == 0


def test_step_busy_countdown_without_assignment() -> None:
    # N_mec = 3: the server counts down two slots between starts (slots 1,
    # 4, 7, 10), so the queue before slot t holds t minus the tasks started.
    metrics = _saturated(policy="mec_only")
    assert metrics.delays_slots.tolist() == [4, 6, 8]
    assert metrics.queue_len_series.tolist() == [0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 7, 7]
