"""The simulation loop and per-run metrics.

A run has two stages.  The draw stage,
:func:`mecsched.workload.draw_tasks`, gives the run's tasks as a
:class:`~mecsched.workload.TaskTable`.  The loop stage
(:func:`run_simulation`) takes a table and the run's own parameters and
simulates the table's horizon slot by slot, in one pass.  The compiled
loop computes a task's busy-slot count on the processor it starts on from
its bits when it starts (the formula of :mod:`mecsched.dynamics`), so it
keeps no count per task.  The FIFO queue is then just
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
two bit counts), and a compiled run's own 16, each completion's delay and
arrival slot.  Both loops read the table's arrays in place.

The loop exists twice.  :func:`_python_slot_loop` is the reference: it
calls :func:`mecsched.policy.decide` once per slot, and it takes every
task's counts from :func:`~mecsched.dynamics.slots_local` and
:func:`~mecsched.dynamics.slots_mec` before the first slot, so a Python
run peaks at 56 bytes per task: the two count arrays, the delays and the
count formula's temporaries.  ``_slot_loop.c`` holds the same loop and the
same rule in C, beside the task draw, as ``mecsched_slot_loop``;
:mod:`mecsched._kernel` compiles it with the system C compiler on first
use into a per-user cache and loads it once, as ``_kernel.lib``, which
each run reads.  When no compiler is found or the build fails,
``_kernel.lib`` is ``None`` and the Python loop runs.  Both take the same
output arrays and fill them alike, and both give identical runs: the C
rule makes the same floating-point comparisons as ``decide`` and the C
count the same operations as ``dynamics``, bit for bit, and every partial
bit sum is an integer below 2**53, so the bits are exact in either.

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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernel
from .dynamics import SystemParams, busy_slot_terms, slots_local, slots_mec
from .errors import ConfigError, ContractViolation, MetricUndefined
from .policy import PolicySpec, decide
from .workload import TaskTable

__all__ = [
    "RunMetrics",
    "run_simulation",
    "avg_data_per_task",
    "avg_queue_length",
    "little_delay",
    "mean_delay_slots",
    "decile_means",
]


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
    tasks: TaskTable,
    params: SystemParams,
    policy: PolicySpec,
    warmup_frac: float = 0.1,
    collect_series: bool = False,
) -> RunMetrics:
    """Simulate the slots of ``tasks`` and return the run's metrics.

    ``tasks`` comes from :func:`~mecsched.workload.draw_tasks`; the same
    table reproduces the run exactly.  ``collect_series`` keeps the
    pre-decision queue of every slot (8 bytes per slot) and the
    infeasibility flag read from it.
    """
    if not 0.0 <= warmup_frac < 1.0:
        raise ConfigError(f"warmup_frac must lie in [0, 1), got {warmup_frac}")
    horizon, n_tasks = tasks.horizon, tasks.arrival_slot.size
    warmup_slots = int(warmup_frac * horizon)

    delays = np.empty(n_tasks, dtype=np.int64)
    delay_arrival = np.empty(n_tasks, dtype=np.int64)
    series = np.empty(horizon, dtype=np.int64) if collect_series else None
    counts = np.empty(10, dtype=np.int64)
    bits = np.empty(2, dtype=np.float64)
    if (lib := _kernel.lib) is None:
        _python_slot_loop(tasks, params, policy, warmup_slots, delays, delay_arrival, series, counts, bits)
    else:
        lib.mecsched_slot_loop(
            _kernel.KIND_CODES[policy.kind], policy.v_param, horizon, warmup_slots, tasks.arrival,
            tasks.local_bits, tasks.mec_bits, *busy_slot_terms(params), delays, delay_arrival,
            None if series is None else series.ctypes.data, counts, bits,
        )
    (
        head, arrived, completions, done_local, done_mec, queue_sum, drift_violations,
        warm_queue_sum, warm_arrived, warm_head,
    ) = counts.tolist()
    tx_bits, warm_tx_bits = bits.tolist()

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
    tasks: TaskTable,
    params: SystemParams,
    policy: PolicySpec,
    warmup_slots: int,
    delays: np.ndarray,
    delay_arrival: np.ndarray,
    series: Optional[np.ndarray],
    counts: np.ndarray,
    bits: np.ndarray,
) -> None:
    """The slot loop in Python, the reference ``mecsched_slot_loop`` follows.

    Runs slots ``0..tasks.horizon-1``.  Each task's busy-slot counts come
    from :func:`~mecsched.dynamics.slots_local` and
    :func:`~mecsched.dynamics.slots_mec`, for all tasks before the first
    slot; the compiled loop computes each one when its task starts.  Each
    completed task's delay and arrival slot go into ``delays`` and
    ``delay_arrival``, in completion order, and the queue before each slot
    into ``series`` unless it is ``None``.  ``counts`` gets ``(head,
    arrived, completions, done_local, done_mec, queue_sum,
    drift_violations, warm_queue_sum, warm_arrived, warm_head)`` and
    ``bits`` gets ``(tx_bits, warm_tx_bits)``, the ``warm_*`` values as they
    stood before slot ``warmup_slots``.
    """
    # Memoryviews give the slot loop plain Python numbers.
    local_view, mec_view = memoryview(tasks.local_bits), memoryview(tasks.mec_bits)
    n_local_view = memoryview(slots_local(tasks.mec_bits, tasks.local_bits, params))
    n_mec_view = memoryview(slots_mec(tasks.mec_bits, params))
    arrival_view = memoryview(tasks.arrival)
    delay_view, delay_arrival_view = memoryview(delays), memoryview(delay_arrival)
    series_view = None if series is None else memoryview(series)
    head = arrived = completions = queue_sum = drift_violations = 0
    # Each processor's done slot (busy while it is >= t) and its task's arrival slot.
    done_local = done_mec = -1
    from_local = from_mec = 0
    warm_queue_sum = warm_arrived = warm_head = 0
    tx_bits = warm_tx_bits = 0.0

    for t in range(tasks.horizon):
        q_len = arrived - head
        if t == warmup_slots:
            warm_queue_sum, warm_arrived, warm_head, warm_tx_bits = queue_sum, arrived, head, tx_bits
        if series_view is not None:
            series_view[t] = q_len
        queue_sum += q_len
        local_first, local_second, mec_first, mec_second = decide(
            policy, done_local >= t, done_mec >= t, q_len,
            local_view[head] if q_len > 0 else 0.0, mec_view[head] if q_len > 0 else 0.0,
            local_view[head + 1] if q_len > 1 else 0.0, mec_view[head + 1] if q_len > 1 else 0.0,
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
    counts[:] = (
        head, arrived, completions, done_local, done_mec, queue_sum, drift_violations,
        warm_queue_sum, warm_arrived, warm_head,
    )
    bits[:] = (tx_bits, warm_tx_bits)


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
