"""The simulation loop and per-run metrics.

A run has two stages.  The draw stage (:func:`draw_tasks`) takes the
run's arrivals and the composition of every arriving task from
:func:`mecsched.workload.sample_run` into a :class:`TaskTable`: the
horizon, and per task its arrival slot and its two bit counts, the
distinct uncached bits a local run fetches and the full task an offload
ships.  The table depends only on the seed, the horizon, the arrival
probability, the ``k`` range, the catalog (popularity and content size)
and the cache capacity; the weight ``v``, the radio rate, the processor
speeds and the slot length never enter a draw.  Runs that differ only in
those controls can therefore share one table.  Its arrays are read-only,
so no run can alter what another run sees.

The loop stage (:func:`run_simulation`) takes a table and the run's own
parameters and simulates the table's horizon slot by slot, in one pass.
The compiled loop computes a task's busy-slot count on the processor it
starts on from its bits when it starts (the formula of
:mod:`mecsched.dynamics`), so it keeps no count per task.  The FIFO queue
is then just
``table[head:arrived]`` and the whole system state is four integers:
``head`` (tasks started so far), ``arrived`` (tasks arrived so far) and
each processor's done slot, the last slot of the task it serves; a
processor is busy in slot ``t`` while its done slot is at least ``t``.
Each slot runs decide -> start: the decision sees the queue as it stands
before the slot, the chosen action starts tasks at the head, and the
slot's Bernoulli arrival (if any) joins the queue tail afterwards: the
next task arrives in slot ``t`` when its arrival slot is ``t``.

The same pass keeps every metric of the run, in registers:

- the queue sums, adding ``q_t = arrived - head`` each slot, and the
  series ``q_t`` when asked for (8 bytes per slot);
- the bits, charged to the slot a task starts in;
- the completions: a task finishing in slot ``t`` records its delay
  ``t - a + 1`` and its arrival slot ``a``, the local processor's before
  the server's;
- the drift audit's count;
- the queue sum, the counts and the bits as they stood before slot
  ``warmup_slots``, from which the ``*_after_warmup`` fields follow.

A run therefore holds per-task arrays only, and nothing per slot unless
the series is asked for: the table's 24 bytes per task (arrival slot and
two bit counts), and a compiled run's own 24, a copy of the arrival
slots and each completion's delay and arrival slot.

The loop exists twice.  :func:`_python_slot_loop` is the reference: it
calls :func:`mecsched.policy.decide` once per slot, and it takes every
task's counts from :func:`~mecsched.dynamics.slots_local` and
:func:`~mecsched.dynamics.slots_mec` before the first slot (16 more bytes
per task).  ``_slot_loop.c``
holds the same loop and the same rule in C, beside the task draw;
:mod:`mecsched._kernel` compiles it with the system C compiler on first
use into a per-user cache and loads it once, as ``_kernel.lib``, which
each run reads.  When no compiler is found or the build fails,
``_kernel.lib`` is ``None`` and the Python loop runs.  Both give
identical runs: the C rule makes the same floating-point comparisons as
``decide`` and the C count the same operations as ``dynamics``, bit for
bit, and every partial bit sum is an integer below 2**53, so the bits are
exact in either.

Two bookkeeping details worth knowing:

- Transmitted bits are charged in the slot a task is *started*, so the
  per-task data average divides total bits by the number of scheduled
  tasks.  Dividing by raw arrivals instead would silently drift low
  whenever the horizon ends with a backlog, which is exactly the regime
  the overload experiments probe.
- The drift audit counts the slots that break the squared-queue drift
  inequality

      q_next^2 <= q^2 + u^2 + a^2 - 2*q*(u - a)

  (``u`` tasks started, ``a`` arrivals) or its precondition ``u <= q``.
  With ``q_next = q - u + a`` the inequality reduces to ``2*u*a >= 0``,
  an identity of the queue recursion, so only the precondition can fail:
  the loop counts the slots with ``u_t > q_t``.  Violations are counted,
  never raised; a correct run keeps the count at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernel
from .catalog import ContentCatalog
from .dynamics import SystemParams, busy_slot_terms, slots_local, slots_mec, task_bits
from .errors import ConfigError, ContractViolation, MetricUndefined
from .policy import PolicySpec, decide
from .workload import WorkloadConfig, check_capacity, sample_run

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
# The longest horizon whose square fits an int64.
_QUEUE_SUM_HORIZON_LIMIT = math.isqrt(2**63 - 1)


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
    """One seed's arrivals and tasks, drawn once by :func:`draw_tasks`.

    The table covers ``horizon`` slots.  ``arrival_slot``, ``local_bits``
    and ``mec_bits`` hold per task, in arrival order, its arrival slot,
    the distinct uncached bits a local run fetches and the full task an
    offload ships.  The arrays are read-only.
    """

    horizon: int
    arrival_slot: np.ndarray
    local_bits: np.ndarray
    mec_bits: np.ndarray


def draw_tasks(
    catalog: ContentCatalog,
    capacity: int,
    workload_cfg: WorkloadConfig,
    horizon: int,
    seed: int,
) -> TaskTable:
    """Draw the arrivals and tasks of a ``horizon``-slot run from ``seed``.

    The arrivals and tasks are :func:`~mecsched.workload.sample_run`'s, so
    repeated calls with the same inputs return equal tables.  Each task's
    bits follow from its composition and the catalog's content size.  Every
    guard that protects an allocation fires here, before anything is
    allocated.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1 slot, got {horizon}")
    # Bit totals stay exact integers in float64 up to 2**53, so they sum
    # to the same value in any order.
    if not horizon * workload_cfg.k_max * catalog.size_bits < _EXACT_FLOAT_LIMIT:
        raise ConfigError("horizon * k_max * size_bits too large for exact bit accounting")
    # A queue sum adds up to horizon slots per task, so it stays exact in
    # int64 while horizon**2 does.
    if horizon > _QUEUE_SUM_HORIZON_LIMIT:
        raise ConfigError(
            f"horizon must stay at most {_QUEUE_SUM_HORIZON_LIMIT} slots for exact queue sums, got {horizon}"
        )
    if not float(catalog.size_bits).is_integer():
        raise ConfigError(f"content size must be a whole number of bits, got {catalog.size_bits}")
    check_capacity(catalog.n_contents, capacity)

    arrival_slot, ks, distinct = sample_run(catalog, capacity, workload_cfg, horizon, seed)
    local_bits, mec_bits = task_bits(catalog, ks, distinct)
    for array in (arrival_slot, local_bits, mec_bits):
        array.flags.writeable = False
    return TaskTable(horizon, arrival_slot, local_bits, mec_bits)


def run_simulation(
    tasks: TaskTable,
    params: SystemParams,
    policy: PolicySpec,
    warmup_frac: float = 0.1,
    collect_series: bool = False,
) -> RunMetrics:
    """Simulate the slots of ``tasks`` and return the run's metrics.

    ``tasks`` comes from :func:`draw_tasks`; the same table reproduces the
    run exactly.  ``collect_series`` keeps the pre-decision queue of every
    slot (8 bytes per slot) and the infeasibility flag read from it.
    """
    if not 0.0 <= warmup_frac < 1.0:
        raise ConfigError(f"warmup_frac must lie in [0, 1), got {warmup_frac}")
    horizon, arrival_slot = tasks.horizon, tasks.arrival_slot
    n_tasks = arrival_slot.size
    warmup_slots = int(warmup_frac * horizon)

    # The task behind the tail "arrives" in slot horizon, which no loop reaches.
    arrival = np.append(arrival_slot, horizon)
    delays = np.empty(n_tasks, dtype=np.int64)
    delay_arrival = np.empty(n_tasks, dtype=np.int64)
    series = np.empty(horizon, dtype=np.int64) if collect_series else None

    slot_loop = _python_slot_loop if _kernel.lib is None else _c_slot_loop
    (
        head, arrived, completions, done_local, done_mec, queue_sum, drift_violations,
        warm_queue_sum, warm_arrived, warm_head, tx_bits, warm_tx_bits,
    ) = slot_loop(
        policy, horizon, warmup_slots, arrival, tasks.local_bits, tasks.mec_bits, params,
        delays, delay_arrival, series,
    )

    in_service = (done_local >= horizon) + (done_mec >= horizon)
    if n_tasks != completions + (arrived - head) + in_service:
        raise ContractViolation(
            f"task conservation broken: {n_tasks} arrivals vs "
            f"{completions} completed + {arrived - head} queued + "
            f"{in_service} in service"
        )

    growing = series is not None and horizon >= 10 and bool(np.all(np.diff(decile_means(series)) > 0))
    return RunMetrics(
        horizon_slots=horizon,
        warmup_slots=warmup_slots,
        arrivals=n_tasks,
        completions=completions,
        scheduled=head,
        total_tx_bits=tx_bits,
        queue_len_sum=queue_sum,
        arrivals_after_warmup=arrived - warm_arrived,
        scheduled_after_warmup=head - warm_head,
        tx_bits_after_warmup=tx_bits - warm_tx_bits,
        queue_len_sum_after_warmup=queue_sum - warm_queue_sum,
        queue_len_series=series,
        delays_slots=delays[:completions],
        delay_arrival_slots=delay_arrival[:completions],
        drift_violations=drift_violations,
        infeasibility_flag=growing,
    )


def _python_slot_loop(
    policy: PolicySpec,
    horizon: int,
    warmup_slots: int,
    arrival: np.ndarray,
    local_bits: np.ndarray,
    mec_bits: np.ndarray,
    params: SystemParams,
    delays: np.ndarray,
    delay_arrival: np.ndarray,
    series: Optional[np.ndarray],
) -> tuple:
    """The slot loop in Python, the reference the compiled loop follows.

    Runs slots ``0..horizon-1``.  ``arrival`` holds the tasks' arrival
    slots followed by ``horizon``.  Each task's busy-slot counts come from
    :func:`~mecsched.dynamics.slots_local` and
    :func:`~mecsched.dynamics.slots_mec`, for all tasks before the first
    slot; the compiled loop computes each one when its task starts.  Each
    completed task's delay and arrival
    slot go into ``delays`` and ``delay_arrival``, in completion order, and
    the queue before each slot into ``series`` unless it is ``None``.
    Returns ``(head, arrived, completions, done_local, done_mec, queue_sum,
    drift_violations, warm_queue_sum, warm_arrived, warm_head, tx_bits,
    warm_tx_bits)``, the ``warm_*`` values as they stood before slot
    ``warmup_slots``.
    """
    # Memoryviews give the slot loop plain Python numbers; two zero entries
    # stand in for the bits of tasks behind the tail.
    local_view = memoryview(np.append(local_bits, (0.0, 0.0)))
    mec_view = memoryview(np.append(mec_bits, (0.0, 0.0)))
    n_local_view = memoryview(slots_local(mec_bits, local_bits, params))
    n_mec_view = memoryview(slots_mec(mec_bits, params))
    arrival_view = memoryview(arrival)
    delay_view, delay_arrival_view = memoryview(delays), memoryview(delay_arrival)
    series_view = None if series is None else memoryview(series)
    head = arrived = completions = queue_sum = drift_violations = 0
    # Each processor's done slot (busy while it is >= t) and its task's arrival slot.
    done_local = done_mec = -1
    from_local = from_mec = 0
    warm_queue_sum = warm_arrived = warm_head = 0
    tx_bits = warm_tx_bits = 0.0

    for t in range(horizon):
        q_len = arrived - head
        if t == warmup_slots:
            warm_queue_sum, warm_arrived, warm_head, warm_tx_bits = queue_sum, arrived, head, tx_bits
        if series_view is not None:
            series_view[t] = q_len
        queue_sum += q_len
        local_first, local_second, mec_first, mec_second = decide(
            policy, done_local >= t, done_mec >= t, q_len,
            local_view[head], mec_view[head], local_view[head + 1], mec_view[head + 1],
        )
        if local_first or local_second:
            task = head + local_second
            done_local = t + n_local_view[task] - 1
            from_local = arrival_view[task]
            tx_bits += local_view[task]
        if mec_first or mec_second:
            task = head + mec_second
            done_mec = t + n_mec_view[task] - 1
            from_mec = arrival_view[task]
            tx_bits += mec_view[task]
        if done_local == t:
            delay_view[completions] = t - from_local + 1
            delay_arrival_view[completions] = from_local
            completions += 1
        if done_mec == t:
            delay_view[completions] = t - from_mec + 1
            delay_arrival_view[completions] = from_mec
            completions += 1
        # The drift audit's precondition: no more starts than queued tasks.
        # Then departures from the head, and the slot's arrival at the tail.
        started = local_first + local_second + mec_first + mec_second
        drift_violations += started > q_len
        head += started
        arrived += arrival_view[arrived] == t
    return (
        head, arrived, completions, done_local, done_mec, queue_sum, drift_violations,
        warm_queue_sum, warm_arrived, warm_head, tx_bits, warm_tx_bits,
    )


def _c_slot_loop(
    policy: PolicySpec,
    horizon: int,
    warmup_slots: int,
    arrival: np.ndarray,
    local_bits: np.ndarray,
    mec_bits: np.ndarray,
    params: SystemParams,
    delays: np.ndarray,
    delay_arrival: np.ndarray,
    series: Optional[np.ndarray],
) -> tuple:
    """:func:`_python_slot_loop`, run by the compiled kernel."""
    counts = np.empty(10, dtype=np.int64)
    bits = np.empty(2, dtype=np.float64)
    _kernel.lib.mecsched_slot_loop(
        _kernel.KIND_CODES[policy.kind], policy.v_param, horizon, warmup_slots, arrival,
        local_bits, mec_bits, *busy_slot_terms(params), delays, delay_arrival,
        None if series is None else series.ctypes.data, counts, bits,
    )
    return (*counts.tolist(), *bits.tolist())


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
