"""The simulation loop and per-run metrics.

A run has two stages.  The draw stage (:func:`draw_tasks`) samples the
run's arrivals and the composition of every arriving task into a
:class:`TaskTable`: the horizon, and per task its arrival slot and its
two bit counts, the distinct uncached bits a local run fetches and the
full task an offload ships.  The table depends only on the seed, the
horizon, the arrival probability, the ``k`` range, the catalog
(popularity and content size) and the cache capacity; the weight
``v``, the radio rate, the processor speeds and the slot length never
enter a draw.  Runs that differ only in those controls can therefore
share one table.  Its arrays are read-only, so no run can alter what
another run sees.

The loop stage (:func:`run_simulation`) takes a table and the run's own
parameters, turns the bits into busy-slot counts and simulates the
table's horizon slot by slot.  The FIFO queue is then just
``table[head:arrived]`` and the whole system state is four integers:
``head`` (tasks started so far), ``arrived`` (tasks arrived so far) and
the two processors' busy countdowns.  Each slot runs decide -> start: the
decision sees the queue as it stands before the slot, the chosen action
starts tasks at the head and counts down the processors, and the slot's
Bernoulli arrival (if any) joins the queue tail afterwards: the next task
arrives in slot ``t`` when its arrival slot is ``t``.  The loop does
nothing else; it records each started task's start slot and mode.

The loop exists twice.  :func:`_python_slot_loop` is the reference: it
calls :func:`mecsched.policy.decide` once per slot.  ``_slot_loop.c``
holds the same loop and the same rule in C, beside the task draw;
:mod:`mecsched._kernel` compiles it with the system C compiler on first
use into a per-user cache and loads it once, as ``_kernel.lib``, which
each run reads.  When no compiler is found or the build fails,
``_kernel.lib`` is ``None`` and the Python loop runs.  Both give
identical runs: the C rule makes the same floating-point comparisons as
``decide``, bit for bit.

Everything else follows from those records and the per-task arrays, in
numpy passes after the loop:

- completion times and transmitted bits, from each started task's start
  slot, mode and busy-slot count;
- the queue sums, in closed form.  The queue before slot ``t`` is
  ``q_t = A_t - S_t``, the tasks arrived minus those started before slot
  ``t``, so a task counts in it on the slots after its arrival slot
  ``a_i`` up to its start slot ``s_i``.  Summed over slots ``W..H-1``:
  ``sum_i (H - max(a_i + 1, W)) - sum_j (H - max(s_j + 1, W))``.  Each
  term is at most ``H``; :func:`draw_tasks` keeps ``H**2`` within int64.
- the series ``A_t - S_t``, only when asked for.

A run therefore holds per-task arrays only, about 120 bytes per task
(table included), and nothing per slot; the queue series adds 8 bytes
per slot, and its build twice that for a moment, when asked for.

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
  an identity of the queue recursion, so only the precondition can fail,
  and ``u_t > q_t`` exactly when ``S_(t+1) > A_t``.  On the slots
  ``(a_(m-1), a_m]``, ``A_t = m``, so the count is
  ``sum_m max(0, a_m - max(a_(m-1) + 1, s_m) + 1)`` over started tasks.
  A start no later than its own arrival slot needs no count of its own:
  its slot has ``S_(t+1) > m >= A_t``.  Violations are counted, never
  raised; a correct run keeps the count at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernel
from .catalog import ContentCatalog
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
# The longest horizon whose square fits an int64.
_QUEUE_SUM_HORIZON_LIMIT = math.isqrt(2**63 - 1)
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

    Two independent streams derived from ``seed`` drive arrivals and task
    composition, so repeated calls with the same inputs return equal
    tables.  Each task's bits follow from its composition and the
    catalog's content size.  Every guard that protects an allocation fires
    here, before anything is allocated.
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
    if not 0 <= capacity <= catalog.n_contents:
        raise ConfigError(f"cache capacity must lie in 0..{catalog.n_contents}, got {capacity}")

    arrival_rng, composition_rng = task_streams(seed)
    # Chunked draws continue one stream, so the arrivals equal those of a
    # single random(horizon) call without its 8-byte-per-slot temporary.
    blocks = []
    for first in range(0, horizon, _ARRIVAL_CHUNK):
        uniforms = arrival_rng.random(min(_ARRIVAL_CHUNK, horizon - first))
        blocks.append(first + np.flatnonzero(uniforms < workload_cfg.arrival_prob))
    arrival_slot = np.concatenate(blocks)
    ks, distinct = sample_tasks(composition_rng, catalog, workload_cfg, arrival_slot.size, capacity)
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
    local_bits, mec_bits = tasks.local_bits, tasks.mec_bits
    n_tasks = arrival_slot.size

    n_local = slots_local(mec_bits, local_bits, params)
    n_mec = slots_mec(mec_bits, params)
    start_slot = np.empty(n_tasks, dtype=np.int64)
    on_mec = np.zeros(n_tasks, dtype=bool)
    # The task behind the tail "arrives" in slot horizon, which no loop reaches.
    arrival = np.append(arrival_slot, horizon)

    slot_loop = _python_slot_loop if _kernel.lib is None else _c_slot_loop
    head, arrived, busy_local, busy_mec = slot_loop(
        policy, horizon, arrival, local_bits, mec_bits, n_local, n_mec, start_slot, on_mec
    )

    # Tasks [0, head) were started; each completes n - 1 slots after its start.
    start_slot, on_mec = start_slot[:head], on_mec[:head]
    warmup_slots = int(warmup_frac * horizon)
    queue_len_sum, queue_len_sum_after_warmup, drift_violations, series = _queue_pass(
        arrival_slot, start_slot, horizon, warmup_slots, collect_series
    )
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


def _python_slot_loop(
    policy: PolicySpec,
    horizon: int,
    arrival: np.ndarray,
    local_bits: np.ndarray,
    mec_bits: np.ndarray,
    n_local: np.ndarray,
    n_mec: np.ndarray,
    start_slot: np.ndarray,
    on_mec: np.ndarray,
) -> tuple[int, int, int, int]:
    """The slot loop in Python, the reference the compiled loop follows.

    Runs slots ``0..horizon-1``, writes each started task's start slot
    and mode into ``start_slot`` and ``on_mec``, and returns the final
    ``(head, arrived, busy_local, busy_mec)``.  ``arrival`` holds the
    tasks' arrival slots followed by ``horizon``.
    """
    # Memoryviews give the slot loop plain Python numbers; two zero entries
    # stand in for the bits of tasks behind the tail.
    local_view = memoryview(np.append(local_bits, (0.0, 0.0)))
    mec_view = memoryview(np.append(mec_bits, (0.0, 0.0)))
    n_local_view, n_mec_view = memoryview(n_local), memoryview(n_mec)
    start_view, on_mec_view = memoryview(start_slot), memoryview(on_mec)
    arrival_view = memoryview(arrival)
    head = arrived = busy_local = busy_mec = 0

    for t in range(horizon):
        local_first, local_second, mec_first, mec_second = decide(
            policy, busy_local, busy_mec, arrived - head,
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
        # Departures from the head, then the slot's arrival at the tail.
        head += local_first + local_second + mec_first + mec_second
        arrived += arrival_view[arrived] == t
    return head, arrived, busy_local, busy_mec


def _c_slot_loop(
    policy: PolicySpec,
    horizon: int,
    arrival: np.ndarray,
    local_bits: np.ndarray,
    mec_bits: np.ndarray,
    n_local: np.ndarray,
    n_mec: np.ndarray,
    start_slot: np.ndarray,
    on_mec: np.ndarray,
) -> tuple[int, int, int, int]:
    """:func:`_python_slot_loop`, run by the compiled kernel."""
    state = np.empty(4, dtype=np.int64)
    _kernel.lib.mecsched_slot_loop(
        _kernel.KIND_CODES[policy.kind], policy.v_param, horizon, arrival,
        local_bits, mec_bits, n_local, n_mec, start_slot, on_mec, state,
    )
    return tuple(state.tolist())


def _queue_pass(
    arrival_slot: np.ndarray,
    start_slot: np.ndarray,
    horizon: int,
    warmup_slots: int,
    collect_series: bool,
) -> tuple[int, int, int, Optional[np.ndarray]]:
    """The queue sums, the drift audit and the series, in the closed forms
    of the module docstring.

    Returns ``(queue_len_sum, queue_len_sum_after_warmup, drift_violations,
    series)``; ``series`` is ``None`` unless ``collect_series``.
    ``start_slot`` is non-decreasing, since the loop starts tasks in queue
    order.
    """
    def queue_sum(first: int) -> int:
        joined = horizon - np.maximum(arrival_slot + 1, first)
        left = horizon - np.maximum(start_slot + 1, first)
        return int(joined.sum()) - int(left.sum())

    # Per started task m: its slots (a_(m-1), a_m] from s_m on.
    arrived = arrival_slot[:start_slot.size]
    first = start_slot.copy()
    np.maximum(first[1:], arrived[:-1] + 1, out=first[1:])
    drift_violations = int(np.maximum(arrived - first + 1, 0).sum())

    series = None
    if collect_series:
        slots = np.arange(horizon)
        series = np.searchsorted(arrival_slot, slots)
        series -= np.searchsorted(start_slot, slots)
    return queue_sum(0), queue_sum(warmup_slots), drift_violations, series


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
