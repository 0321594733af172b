"""The simulation loop and per-run metrics.

A run has two stages.  The draw stage (:func:`draw_tasks`) samples the
run's arrivals and the composition of every arriving task into a
:class:`TaskTable`: per slot whether a task arrives, and per task its
arrival slot, ``k`` and number of distinct uncached contents.  The table
depends only on the seed, the horizon, the arrival probability, the ``k``
range, the catalog popularity and the cache capacity; the weight ``v``,
the radio rate, the processor speeds and the slot length never enter a
draw.  Runs that differ only in those controls can therefore share one
table.  Its arrays are read-only, so no run can alter what another run
sees, and :func:`run_simulation` accepts a table only for a run with the
inputs it was drawn for.

The loop stage turns the table into bits and busy-slot counts under the
run's own parameters and simulates.  The FIFO queue is then just
``table[head:arrived]`` and the whole system state is four integers:
``head`` (tasks started so far), ``arrived`` (tasks arrived so far) and
the two processors' busy countdowns.  Each slot runs observe -> decide ->
start: the queue length is sampled before the decision, the chosen action
starts tasks at the head and counts down the processors, and the slot's
Bernoulli arrival (if any) joins the queue tail afterwards.  Completion
times and transmitted bits follow from each started task's start slot and
mode after the loop.

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

from .catalog import CacheConfig, ContentCatalog
from .dynamics import SystemParams, slots_local, slots_mec, task_bits
from .errors import ConfigError, ContractViolation, MetricUndefined
from .policy import PolicySpec, decide
from .workload import WorkloadConfig, sample_tasks, task_streams

__all__ = [
    "RunMetrics",
    "TaskTable",
    "draw_tasks",
    "run_simulation",
    "avg_data_per_task",
    "avg_queue_length",
    "little_delay",
    "mean_delay_slots",
    "decile_means",
]

# Keep every bit count exactly representable in a float64.
_EXACT_FLOAT_LIMIT = 2.0**53
# Slots whose arrival uniforms are drawn at a time.
_ARRIVAL_CHUNK = 1 << 16


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


@dataclass(frozen=True, eq=False)
class TaskTable:
    """One seed's arrivals and task composition, drawn once by :func:`draw_tasks`.

    ``arriving[t]`` says whether a task arrives in slot ``t``;
    ``arrival_slot``, ``ks`` and ``distinct`` hold per task, in arrival
    order, its arrival slot, its number of contents and its number of
    distinct uncached contents.  The arrays are read-only.  The other
    fields are the inputs the table was drawn for: the seed, the horizon,
    the workload (arrival probability and ``k`` range), the catalog (whose
    popularity the contents follow and whose content size the exact-bit
    guard was checked against) and the cache (its capacity and size).
    """

    seed: int
    horizon: int
    workload_cfg: WorkloadConfig
    catalog: ContentCatalog
    cache: CacheConfig
    arriving: np.ndarray
    arrival_slot: np.ndarray
    ks: np.ndarray
    distinct: np.ndarray

    def check_inputs(
        self,
        catalog: ContentCatalog,
        cache: CacheConfig,
        workload_cfg: WorkloadConfig,
        horizon: int,
        seed: int,
    ) -> None:
        """Raise :class:`ContractViolation` unless the table was drawn for
        exactly these sampling inputs."""
        drawn = (self.seed, self.horizon, self.workload_cfg, self.cache, self.catalog.size_bits)
        wanted = (seed, horizon, workload_cfg, cache, catalog.size_bits)
        if drawn != wanted or not np.array_equal(self.catalog.cdf, catalog.cdf):
            raise ContractViolation(
                f"task table drawn for (seed, horizon, workload, cache, size_bits) = {drawn} "
                f"and its catalog's popularity, run asks for {wanted}"
            )


def draw_tasks(
    catalog: ContentCatalog,
    cache: CacheConfig,
    workload_cfg: WorkloadConfig,
    horizon: int,
    seed: int,
) -> TaskTable:
    """Draw the arrivals and tasks of a ``horizon``-slot run from ``seed``.

    Two independent streams derived from ``seed`` drive arrivals and task
    composition, so repeated calls with the same inputs return equal
    tables.  Every guard that protects an allocation fires here, before
    anything is allocated.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1 slot, got {horizon}")
    if cache.n_contents != catalog.n_contents:
        raise ConfigError(
            f"cache sized for {cache.n_contents} contents, catalog holds {catalog.n_contents}"
        )
    # Bit totals stay exact integers in float64 up to 2**53, so they sum
    # to the same value in any order.
    if not horizon * workload_cfg.k_max * catalog.size_bits < _EXACT_FLOAT_LIMIT:
        raise ConfigError("horizon * k_max * size_bits too large for exact bit accounting")
    if not float(catalog.size_bits).is_integer():
        raise ConfigError(f"content size must be a whole number of bits, got {catalog.size_bits}")

    arrival_rng, composition_rng = task_streams(seed)
    # Chunked draws continue one stream, so the arrivals equal those of a
    # single random(horizon) call without its 8-byte-per-slot temporary.
    arriving = np.empty(horizon, dtype=bool)
    for first in range(0, horizon, _ARRIVAL_CHUNK):
        block = arriving[first:first + _ARRIVAL_CHUNK]
        np.less(arrival_rng.random(block.size), workload_cfg.arrival_prob, out=block)
    arrival_slot = np.flatnonzero(arriving)
    ks, distinct = sample_tasks(composition_rng, catalog, workload_cfg, arrival_slot.size, cache)
    for array in (arriving, arrival_slot, ks, distinct):
        array.flags.writeable = False
    return TaskTable(seed, horizon, workload_cfg, catalog, cache, arriving, arrival_slot, ks, distinct)


def run_simulation(
    catalog: ContentCatalog,
    cache: CacheConfig,
    params: SystemParams,
    workload_cfg: WorkloadConfig,
    policy: PolicySpec,
    horizon: int,
    seed: int,
    warmup_frac: float = 0.1,
    collect_series: bool = True,
    tasks: Optional[TaskTable] = None,
) -> RunMetrics:
    """Simulate ``horizon`` slots and return the run's metrics.

    The run's tasks come from ``tasks`` when given, which must have been
    drawn by :func:`draw_tasks` for these same catalog, cache, workload,
    horizon and seed (:class:`ContractViolation` otherwise), and are drawn
    here otherwise.  Either way the same seed reproduces the run exactly.
    """
    if not 0.0 <= warmup_frac < 1.0:
        raise ConfigError(f"warmup_frac must lie in [0, 1), got {warmup_frac}")
    if tasks is None:
        tasks = draw_tasks(catalog, cache, workload_cfg, horizon, seed)
    else:
        tasks.check_inputs(catalog, cache, workload_cfg, horizon, seed)
    arriving, arrival_slot = tasks.arriving, tasks.arrival_slot
    n_tasks = arrival_slot.size

    local_bits, mec_bits = task_bits(catalog, tasks.ks, tasks.distinct)
    n_local = slots_local(mec_bits, local_bits, params)
    n_mec = slots_mec(mec_bits, params)
    start_slot = np.empty(n_tasks, dtype=np.int64)
    on_mec = np.zeros(n_tasks, dtype=bool)

    warmup_slots = int(warmup_frac * horizon)
    series = np.zeros(horizon, dtype=np.int64) if collect_series else None

    # Memoryviews give the slot loop plain Python numbers; two zero entries
    # stand in for the bits of tasks behind the tail.
    local_view = memoryview(np.append(local_bits, (0.0, 0.0)))
    mec_view = memoryview(np.append(mec_bits, (0.0, 0.0)))
    n_local_view, n_mec_view = memoryview(n_local), memoryview(n_mec)
    start_view, on_mec_view = memoryview(start_slot), memoryview(on_mec)
    head = arrived = busy_local = busy_mec = 0
    queue_len_sum = queue_len_sum_after_warmup = drift_violations = 0

    for t, a_t in enumerate(memoryview(arriving)):
        q_t = arrived - head
        if series is not None:
            series[t] = q_t
        queue_len_sum += q_t
        if t >= warmup_slots:
            queue_len_sum_after_warmup += q_t

        local_first, local_second, mec_first, mec_second = decide(
            policy, busy_local, busy_mec, q_t,
            local_view[head], mec_view[head], local_view[head + 1], mec_view[head + 1],
        )
        if local_first or local_second:
            task = head + local_second
            start_view[task] = t
            busy_local = n_local_view[task] - 1
        elif busy_local:
            busy_local -= 1
        if mec_first or mec_second:
            task = head + mec_second
            start_view[task] = t
            on_mec_view[task] = True
            busy_mec = n_mec_view[task] - 1
        elif busy_mec:
            busy_mec -= 1

        # Queue recursion: departures from the head, then the arrival at the tail.
        n_started = local_first + local_second + mec_first + mec_second
        head += n_started
        arrived += a_t
        q_next = arrived - head
        if q_next * q_next > q_t * q_t + n_started * n_started + a_t * a_t - 2 * q_t * (n_started - a_t):
            drift_violations += 1

    # Tasks [0, head) were started; each completes n - 1 slots after its start.
    start_slot, on_mec = start_slot[:head], on_mec[:head]
    done_slot = start_slot + np.where(on_mec, n_mec[:head], n_local[:head]) - 1
    tx_bits = np.where(on_mec, mec_bits[:head], local_bits[:head])
    finished = np.flatnonzero(done_slot < horizon)
    # Completion order: by slot, the local processor's before the server's.
    finished = finished[np.lexsort((on_mec[finished], done_slot[finished]))]
    in_service = (busy_local > 0) + (busy_mec > 0)

    if n_tasks != finished.size + (arrived - head) + in_service:
        raise ContractViolation(
            f"task conservation broken: {n_tasks} arrivals vs "
            f"{finished.size} completed + {arrived - head} queued + "
            f"{in_service} in service"
        )

    past_warmup = start_slot >= warmup_slots
    growing = series is not None and horizon >= 10 and bool(np.all(np.diff(decile_means(series)) > 0))
    return RunMetrics(
        horizon_slots=horizon,
        warmup_slots=warmup_slots,
        arrivals=n_tasks,
        completions=finished.size,
        scheduled=head,
        total_tx_bits=float(tx_bits.sum()),
        queue_len_sum=queue_len_sum,
        arrivals_after_warmup=int(np.count_nonzero(arrival_slot >= warmup_slots)),
        scheduled_after_warmup=int(np.count_nonzero(past_warmup)),
        tx_bits_after_warmup=float(tx_bits[past_warmup].sum()),
        queue_len_sum_after_warmup=queue_len_sum_after_warmup,
        queue_len_series=series,
        delays_slots=done_slot[finished] - arrival_slot[finished] + 1,
        delay_arrival_slots=arrival_slot[finished],
        drift_violations=drift_violations,
        infeasibility_flag=growing,
    )


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
