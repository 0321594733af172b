"""The simulation loop and per-run metrics.

A run has two stages.  The draw stage (:func:`draw_tasks`) samples the
run's arrivals and the composition of every arriving task into a
:class:`TaskTable`: per slot whether a task arrives, and per task its
arrival slot and its two bit counts, the distinct uncached bits a local
run fetches and the full task an offload ships.  The table depends only on
the seed, the horizon, the arrival probability, the ``k`` range, the
catalog (popularity and content size) and the cache capacity; the weight
``v``, the radio rate, the processor speeds and the slot length never
enter a draw.  Runs that differ only in those controls can therefore
share one table.  Its arrays are read-only, so no run can alter what
another run sees.

The loop stage (:func:`run_simulation`) takes a table and the run's own
parameters, turns the bits into busy-slot counts and simulates as many
slots as the table has arrival flags.  The FIFO queue is then just
``table[head:arrived]`` and the whole system state is four integers:
``head`` (tasks started so far), ``arrived`` (tasks arrived so far) and
the two processors' busy countdowns.  Each slot runs decide -> start: the
decision sees the queue as it stands before the slot, the chosen action
starts tasks at the head and counts down the processors, and the slot's
Bernoulli arrival (if any) joins the queue tail afterwards.  The loop does
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

Everything else follows from those records and the arrival flags, in
numpy passes after the loop:

- completion times and transmitted bits, from each started task's start
  slot, mode and busy-slot count;
- the queue before each slot, ``q_t = A_t - S_t`` with ``A_t`` the
  arrivals and ``S_t`` the starts before slot ``t``, and from it the queue
  sums, the series (only when asked for) and the drift audit below.  This
  pass works through the slots in chunks of ``_QUEUE_CHUNK``, carrying
  ``A`` and ``S`` across chunk edges.

A run therefore holds its table's 1 byte per slot of arrival flags, about
120 bytes per task (table included) and chunk-sized temporaries; the
queue series adds 8 bytes per slot when asked for.

Two bookkeeping details worth knowing:

- Transmitted bits are charged in the slot a task is *started*, so the
  per-task data average divides total bits by the number of scheduled
  tasks.  Dividing by raw arrivals instead would silently drift low
  whenever the horizon ends with a backlog, which is exactly the regime
  the overload experiments probe.
- Every slot is audited against the squared-queue drift inequality

      q_next^2 <= q^2 + u^2 + a^2 - 2*q*(u - a)

  (``u`` tasks started, ``a`` arrivals) in exact integer arithmetic.  With
  ``q_next = q - u + a`` the inequality reduces to ``2*u*a >= 0``, an
  identity of the queue recursion, so the audit also counts a slot that
  breaks one of its preconditions: no more starts than queued tasks
  (``u <= q``), and no task started before the slot after its arrival.
  Violations are counted, never raised; a correct run keeps the count at
  zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernel
from .catalog import CacheConfig, ContentCatalog
from .dynamics import SystemParams, slots_local, slots_mec, task_bits
from .errors import ConfigError, ContractViolation, MetricUndefined
from .policy import PolicySpec, decide
from .workload import K_SPAN_LIMIT, WorkloadConfig, sample_tasks, task_streams

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
# Slots whose queue is rebuilt at a time.  The pass holds about ten int64
# arrays of this length (about 300 kB); larger chunks cost no less per slot.
_QUEUE_CHUNK = 1 << 12


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

    ``arriving[t]`` says whether a task arrives in slot ``t``, so the
    table covers ``arriving.size`` slots.  ``arrival_slot``,
    ``local_bits`` and ``mec_bits`` hold per task, in arrival order, its
    arrival slot, the distinct uncached bits a local run fetches and the
    full task an offload ships.  The arrays are read-only.
    """

    arriving: np.ndarray
    arrival_slot: np.ndarray
    local_bits: np.ndarray
    mec_bits: np.ndarray


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
    tables.  Each task's bits follow from its composition and the
    catalog's content size.  Every guard that protects an allocation fires
    here, before anything is allocated.
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
    # Wider k ranges leave the 32-bit integer draw the task sampler follows.
    if workload_cfg.k_max - workload_cfg.k_min >= K_SPAN_LIMIT:
        raise ConfigError(
            f"k_max - k_min must stay below 2**32 - 1, got {workload_cfg.k_max - workload_cfg.k_min}"
        )

    arrival_rng, composition_rng = task_streams(seed)
    # Chunked draws continue one stream, so the arrivals equal those of a
    # single random(horizon) call without its 8-byte-per-slot temporary.
    arriving = np.empty(horizon, dtype=bool)
    for first in range(0, horizon, _ARRIVAL_CHUNK):
        block = arriving[first:first + _ARRIVAL_CHUNK]
        np.less(arrival_rng.random(block.size), workload_cfg.arrival_prob, out=block)
    arrival_slot = np.flatnonzero(arriving)
    ks, distinct = sample_tasks(composition_rng, catalog, workload_cfg, arrival_slot.size, cache)
    local_bits, mec_bits = task_bits(catalog, ks, distinct)
    for array in (arriving, arrival_slot, local_bits, mec_bits):
        array.flags.writeable = False
    return TaskTable(arriving, arrival_slot, local_bits, mec_bits)


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
    arriving, arrival_slot = tasks.arriving, tasks.arrival_slot
    local_bits, mec_bits = tasks.local_bits, tasks.mec_bits
    horizon, n_tasks = arriving.size, arrival_slot.size

    n_local = slots_local(mec_bits, local_bits, params)
    n_mec = slots_mec(mec_bits, params)
    start_slot = np.empty(n_tasks, dtype=np.int64)
    on_mec = np.zeros(n_tasks, dtype=bool)

    slot_loop = _python_slot_loop if _kernel.lib is None else _c_slot_loop
    head, arrived, busy_local, busy_mec = slot_loop(
        policy, arriving, local_bits, mec_bits, n_local, n_mec, start_slot, on_mec
    )

    # Tasks [0, head) were started; each completes n - 1 slots after its start.
    start_slot, on_mec = start_slot[:head], on_mec[:head]
    warmup_slots = int(warmup_frac * horizon)
    series = np.empty(horizon, dtype=np.int64) if collect_series else None
    queue_len_sum, queue_len_sum_after_warmup, drift_violations = _queue_pass(
        arriving, arrival_slot, start_slot, warmup_slots, series
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
    arriving: np.ndarray,
    local_bits: np.ndarray,
    mec_bits: np.ndarray,
    n_local: np.ndarray,
    n_mec: np.ndarray,
    start_slot: np.ndarray,
    on_mec: np.ndarray,
) -> tuple[int, int, int, int]:
    """The slot loop in Python, the reference the compiled loop follows.

    Runs every slot of ``arriving``, writes each started task's start slot
    and mode into ``start_slot`` and ``on_mec``, and returns the final
    ``(head, arrived, busy_local, busy_mec)``.
    """
    # Memoryviews give the slot loop plain Python numbers; two zero entries
    # stand in for the bits of tasks behind the tail.
    local_view = memoryview(np.append(local_bits, (0.0, 0.0)))
    mec_view = memoryview(np.append(mec_bits, (0.0, 0.0)))
    n_local_view, n_mec_view = memoryview(n_local), memoryview(n_mec)
    start_view, on_mec_view = memoryview(start_slot), memoryview(on_mec)
    head = arrived = busy_local = busy_mec = 0

    for t, a_t in enumerate(memoryview(arriving)):
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
        arrived += a_t
    return head, arrived, busy_local, busy_mec


def _c_slot_loop(
    policy: PolicySpec,
    arriving: np.ndarray,
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
        _kernel.KIND_CODES[policy.kind], policy.v_param, arriving.size, arriving,
        local_bits, mec_bits, n_local, n_mec, start_slot, on_mec, state,
    )
    return tuple(state.tolist())


def _queue_pass(
    arriving: np.ndarray,
    arrival_slot: np.ndarray,
    start_slot: np.ndarray,
    warmup_slots: int,
    series: Optional[np.ndarray],
) -> tuple[int, int, int]:
    """Rebuild the per-slot queue from the arrivals and the start slots.

    Works through the slots ``_QUEUE_CHUNK`` at a time, carrying the
    arrivals and starts counted so far across chunk edges, and fills
    ``series`` when given.  Returns ``(queue_len_sum,
    queue_len_sum_after_warmup, drift_violations)``.  ``start_slot`` is
    non-decreasing, since the loop starts tasks in queue order.
    """
    # A task arriving in slot t joins the queue after that slot's decision.
    early = start_slot[start_slot <= arrival_slot[:start_slot.size]]
    queue_len_sum = queue_len_sum_after_warmup = drift_violations = 0
    arrived = started = 0
    for first in range(0, arriving.size, _QUEUE_CHUNK):
        a = arriving[first:first + _QUEUE_CHUNK].astype(np.int64)
        stop = int(np.searchsorted(start_slot, first + a.size))
        u = np.bincount(start_slot[started:stop] - first, minlength=a.size)
        # q_ext[i] is the queue before slot first + i; its last entry is the
        # queue after the chunk's last slot.
        q_ext = np.empty(a.size + 1, dtype=np.int64)
        q_ext[0] = arrived - started
        np.cumsum(a - u, out=q_ext[1:])
        q_ext[1:] += q_ext[0]
        q, q_next = q_ext[:-1], q_ext[1:]

        queue_len_sum += int(q.sum())
        queue_len_sum_after_warmup += int(q[max(warmup_slots - first, 0):].sum())
        if series is not None:
            series[first:first + a.size] = q
        # The drift inequality with q**2 taken off both sides: every term is
        # then at most a few times the horizon, which the draw's guard keeps
        # below 2**53, so int64 holds it exactly.
        bad = (q_next - q) * (q_next + q) > u * u + a * a - 2 * q * (u - a)
        bad |= u > q
        bad[early[(early >= first) & (early < first + a.size)] - first] = True
        drift_violations += int(np.count_nonzero(bad))
        arrived += int(a.sum())
        started = stop
    return queue_len_sum, queue_len_sum_after_warmup, drift_violations


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
