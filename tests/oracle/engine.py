# Frozen copy of mecsched/engine.py from the object-per-task engine (a Task
# object per arrival, a deque queue, SystemState and step), kept as the
# differential oracle for tests/test_oracle.py.  Only the imports were edited;
# do not change anything else.

"""The simulation loop and per-run metrics.

Each slot runs observe -> decide -> step: the queue length is sampled
before the decision, the chosen action starts tasks and counts down the
processors, and the slot's Bernoulli arrival (if any) joins the queue
tail afterwards.

Two bookkeeping details worth knowing:

- Transmitted bits are charged in the slot a task is *started*, so the
  per-task data average divides total bits by the number of scheduled
  tasks.  Dividing by raw arrivals instead would silently drift low
  whenever the horizon ends with a backlog, which is exactly the regime
  the overload experiments probe.
- Every slot the squared-queue drift inequality

      q_next^2 <= q^2 + u^2 + a^2 - 2*q*(u - a)

  is checked in exact integer arithmetic (``u`` tasks scheduled, ``a``
  arrivals).  Violations are counted, never raised; a correct transition
  keeps the count at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from mecsched.catalog import CacheConfig, ContentCatalog
from .dynamics import SystemParams, SystemState, step
from mecsched.errors import ConfigError, ContractViolation, MetricUndefined
from .policy import PolicySpec, decide
from .workload import WorkloadConfig, sample_task, task_streams

__all__ = [
    "RunMetrics",
    "run_simulation",
    "avg_data_per_task",
    "avg_queue_length",
    "little_delay",
    "mean_delay_slots",
    "decile_means",
]

# Keep every bit count exactly representable in a float64.
_EXACT_FLOAT_LIMIT = 2.0**53


@dataclass
class RunMetrics:
    """Raw totals and series for one simulated run.

    Whole-run totals are always kept; the ``*_after_warmup`` fields cover
    the slots from ``warmup_slots`` on and are what the metric helpers
    use.  ``delays_slots[i]`` is the in-system time of the i-th completed
    task, counted in slots from its arrival slot through its completion
    slot inclusive; ``delay_arrival_slots`` aligns with it.
    """

    horizon_slots: int
    warmup_slots: int
    arrivals: int = 0
    completions: int = 0
    scheduled: int = 0
    total_tx_bits: float = 0.0
    queue_len_sum: int = 0
    arrivals_after_warmup: int = 0
    scheduled_after_warmup: int = 0
    tx_bits_after_warmup: float = 0.0
    queue_len_sum_after_warmup: int = 0
    queue_len_series: Optional[np.ndarray] = None
    delays_slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    delay_arrival_slots: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    drift_violations: int = 0
    infeasibility_flag: bool = False


def decile_means(series: np.ndarray) -> np.ndarray:
    """Means of ten contiguous chunks of a queue-length series."""
    return np.array([chunk.mean() for chunk in np.array_split(series, 10) if chunk.size])


def run_simulation(
    catalog: ContentCatalog,
    cache: CacheConfig,
    params: SystemParams,
    workload_cfg: WorkloadConfig,
    policy: PolicySpec,
    horizon: int,
    seed: Optional[int] = None,
    warmup_frac: float = 0.1,
    collect_series: bool = True,
) -> RunMetrics:
    """Simulate ``horizon`` slots and return the run's metrics.

    ``seed`` overrides ``workload_cfg.seed``; either way two independent
    streams drive arrivals and task composition, so repeated calls with
    the same seed reproduce the run exactly.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1 slot, got {horizon}")
    if not 0.0 <= warmup_frac < 1.0:
        raise ConfigError(f"warmup_frac must lie in [0, 1), got {warmup_frac}")
    if cache.n_contents != catalog.n_contents:
        raise ConfigError(
            f"cache sized for {cache.n_contents} contents, catalog holds {catalog.n_contents}"
        )
    # Bit totals stay exact integers in float64 up to 2**53.
    if horizon * workload_cfg.k_max * catalog.size_bits >= _EXACT_FLOAT_LIMIT:
        raise ConfigError("horizon * k_max * size_bits too large for exact bit accounting")

    run_seed = workload_cfg.seed if seed is None else seed
    arrival_rng, composition_rng = task_streams(run_seed)
    arrival_mask = arrival_rng.random(horizon) < workload_cfg.arrival_prob

    warmup_slots = int(warmup_frac * horizon)
    metrics = RunMetrics(horizon_slots=horizon, warmup_slots=warmup_slots)
    series = np.zeros(horizon, dtype=np.int64) if collect_series else None

    state = SystemState.empty()
    queue = state.queue
    delays: list[int] = []
    delay_arrivals: list[int] = []

    for t in range(horizon):
        q_t = len(queue)
        if series is not None:
            series[t] = q_t
        metrics.queue_len_sum += q_t
        past_warmup = t >= warmup_slots
        if past_warmup:
            metrics.queue_len_sum_after_warmup += q_t

        action = decide(policy, state, cache, catalog, params)
        first = queue[0] if q_t >= 1 else None
        second = queue[1] if q_t >= 2 else None

        arrival = None
        if arrival_mask[t]:
            arrival = sample_task(composition_rng, catalog, workload_cfg, slot=t)
            metrics.arrivals += 1
            if past_warmup:
                metrics.arrivals_after_warmup += 1

        _, completions, tx_bits = step(
            state, action, first, second, arrival, params, cache, catalog
        )

        n_started = action.scheduled
        metrics.scheduled += n_started
        metrics.total_tx_bits += tx_bits
        if past_warmup:
            metrics.scheduled_after_warmup += n_started
            metrics.tx_bits_after_warmup += tx_bits
        for event in completions:
            metrics.completions += 1
            delays.append(event.completion_slot - event.task.arrival_slot + 1)
            delay_arrivals.append(event.task.arrival_slot)

        # Squared-queue drift check, exact integers.
        q_next = len(queue)
        a_t = 1 if arrival is not None else 0
        if q_next * q_next > q_t * q_t + n_started * n_started + a_t * a_t - 2 * q_t * (n_started - a_t):
            metrics.drift_violations += 1

    if metrics.arrivals != metrics.completions + len(queue) + state.in_service_count:
        raise ContractViolation(
            f"task conservation broken: {metrics.arrivals} arrivals vs "
            f"{metrics.completions} completed + {len(queue)} queued + "
            f"{state.in_service_count} in service"
        )

    metrics.queue_len_series = series
    metrics.delays_slots = np.asarray(delays, dtype=np.int64)
    metrics.delay_arrival_slots = np.asarray(delay_arrivals, dtype=np.int64)
    if series is not None and horizon >= 10:
        means = decile_means(series)
        metrics.infeasibility_flag = bool(np.all(np.diff(means) > 0))
    return metrics


def avg_data_per_task(metrics: RunMetrics) -> float:
    """Mean uplink bits per scheduled task over the post-warmup window."""
    if metrics.scheduled_after_warmup == 0:
        raise MetricUndefined("no task was scheduled after warm-up; data per task undefined")
    return metrics.tx_bits_after_warmup / metrics.scheduled_after_warmup


def avg_queue_length(metrics: RunMetrics) -> float:
    """Mean pre-decision queue length over the post-warmup window."""
    return metrics.queue_len_sum_after_warmup / (metrics.horizon_slots - metrics.warmup_slots)


def little_delay(metrics: RunMetrics, arrival_prob: float, slot_seconds: float) -> float:
    """Queueing-law delay estimate in seconds: mean queue / arrival rate."""
    if arrival_prob <= 0:
        raise MetricUndefined("delay via the queueing law needs a positive arrival rate")
    return avg_queue_length(metrics) / arrival_prob * slot_seconds


def mean_delay_slots(metrics: RunMetrics) -> float:
    """Mean measured in-system time, in slots, over tasks arriving after
    warm-up (arrival slot through completion slot inclusive)."""
    mask = metrics.delay_arrival_slots >= metrics.warmup_slots
    if not mask.any():
        raise MetricUndefined("no post-warmup task completed; measured delay undefined")
    return float(metrics.delays_slots[mask].mean())
