"""Bernoulli task arrivals and random task composition.

At most one task arrives per slot (probability ``arrival_prob``).  A task
requests ``k`` contents, ``k`` uniform on ``{k_min..k_max}``, each content
drawn independently from the catalog popularity; repeats are allowed and
the task size in bits is ``k * size_bits`` regardless of repeats.

This module is the package's only source of randomness: a run's arrivals
and tasks, and the Monte Carlo estimate's samples
(:func:`sample_slot_counts`).  Arrivals and composition come from two
separately seeded streams (:func:`task_streams`), so changing the arrival
probability in a sweep does not perturb the content sequence of the tasks.

A run has two stages, and the first is here.  The draw stage
(:func:`draw_tasks`) draws the run's arrivals and the composition of
every arriving task up front, in arrival order, into a
:class:`TaskTable`: the horizon, and per task its arrival slot and its two
bit counts, the distinct uncached bits a local run fetches and the full
task an offload ships.  The table depends only on the seed, the horizon,
the arrival probability, the ``k`` range, the catalog (popularity and
content size) and the cache capacity; the weight ``v``, the radio rate,
the processor speeds and the slot length never enter a draw.  Runs that
differ only in those controls can therefore share one table.  Its arrays
are read-only, so no run can alter what another run sees.  The loop stage
is :func:`mecsched.engine.run_simulation`.

The composition stream is defined as, per task, ``k = integers(k_min,
k_max + 1)`` and then ``random(k)`` for its contents, each ranked
``searchsorted(cdf, u, side="right") + 1``.  The draws take numpy's
``PCG64`` only, the bit generator of every generator the package makes:
:func:`sample_tasks` refuses any other with a ``TypeError`` before it
draws.  The compiled kernel (``mecsched._kernel.lib``) steps PCG64 from
``PCG64.state`` itself, makes each double and 32-bit value as numpy's
``next_double`` and ``next_uint32`` do, and writes the end state back, so
it leaves the generator as those calls would, whichever of its word
sources (see :mod:`mecsched._kernel`) runs.  It ranks each raw 64-bit word
in integers through the catalog's packed guide table (one table read per
word outside wide buckets, see :func:`~mecsched.catalog.packed_guide`) and
rank edges, which give the binary search's rank for every uniform.  While
the kernel is ``None``, the draws take the stream's definition, one task
at a time: about 20 us per task against about 0.15 us in C (0.2 us with
the scalar step; a default task has about 50 contents).  The estimate's
draw is the kernel's too, ``k`` values included.  Each compiled draw is one
kernel call that shares its tasks with threads it starts itself, one per
CPU the process may run on, each thread with at least ``_PART_FLOOR``
tasks (:func:`sample_tasks`, :func:`sample_slot_counts`).
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernel
from .catalog import ContentCatalog, packed_guide
from .dynamics import SystemParams, busy_slot_terms, slots_local, slots_mec, task_bits
from .errors import ConfigError

__all__ = [
    "WorkloadConfig",
    "check_capacity",
    "check_ks",
    "task_streams",
    "TaskTable",
    "draw_tasks",
    "sample_tasks",
    "draw_contents",
    "draw_ranks",
    "sample_slot_counts",
    "K_SPAN_LIMIT",
]

# k_max - k_min from which numpy's integers() leaves the 32-bit Lemire
# draw the kernel makes.
K_SPAN_LIMIT = 2**32 - 1
# Keep every bit count exactly representable in a float64.
_EXACT_FLOAT_LIMIT = 2.0**53
# The longest horizon whose square fits an int64.
_QUEUE_SUM_HORIZON_LIMIT = math.isqrt(2**63 - 1)
_WORD_MASK = 2**64 - 1
# Slots whose arrival uniforms are drawn at a time.
_ARRIVAL_CHUNK = 1 << 16
# Tasks sampled and counted per step of the Monte Carlo estimate's Python
# path.  Each step pays fixed costs (numpy dispatch, the slot counts'
# error-state switch), and its temporaries span the step, so a single step
# would raise the peak memory.  The stream is the same for any step size.
_STEP_TASKS = 4096
# The fewest tasks or samples per thread of the compiled draw and estimate
# (_parts).  One thread against two, each a command's draws or estimate in a
# fresh process with numpy.random imported (the draws: simulate's three
# seeds at lambda 0.4, horizon 2.5 slots per task; 2-vCPU Xeon with
# AVX-512F, the second thread pinned to the other vCPU; medians of 20
# interleaved processes per side):
#
#     three draws of   1 thread   2 threads   2 won     estimate of   1 thread   2 threads   2 won
#      1500 tasks      1.09 ms    1.11 ms     8/20      1500 samples  0.54 ms    0.59 ms     1/20
#      3000 tasks      1.65 ms    1.52 ms    15/20      3000 samples  0.79 ms    0.80 ms    11/20
#      6000 tasks      2.75 ms    2.27 ms    18/20      6000 samples  1.14 ms    0.99 ms    19/20
#     12000 tasks      5.26 ms    3.86 ms    19/20     20000 samples  2.75 ms    1.90 ms    20/20
#                                                      50000 samples  6.40 ms    3.84 ms    20/20
#
# At 1500 items (and at 750: 1/20 for either) the thread's start and the
# caller's pre-pass cost more than the second thread saves; from 3000 items
# two threads break even or win, so each thread gets at least 1500.
_PART_FLOOR = 1500
# Samples per chunk of the compiled estimate, which its threads take in
# turn; each chunk sets up both streams anew (two jumps and the lanes'
# start) and leaves the rest of its last content block unread.  Back to
# back at 50,000 samples on two threads, 256 to 4096 timed within 1% of
# each other (8192: +2%); as the first estimate of a fresh process, 1024
# timed 0.964 of 2048 (median of 60 interleaved pairs) and 512 1.037.
_CHUNK = 1024
# Tasks per chunk of the compiled task draw, whose chunks set up one stream
# each.  Back to back at 39,858 tasks on two threads, 128 to 1024 timed
# within 3% of each other; fewer tasks per chunk leave less for the caller
# to wait on when the other thread starts late.
_DRAW_CHUNK = 256


@dataclass(frozen=True)
class WorkloadConfig:
    """Per-slot arrival probability, and ``k`` uniform on ``k_min..k_max``.
    The span stays below :data:`K_SPAN_LIMIT`, so that every draw can
    follow numpy's 32-bit ``k`` draw."""

    arrival_prob: float
    k_min: int
    k_max: int

    def __post_init__(self):
        if not 0.0 <= self.arrival_prob <= 1.0:
            raise ValueError(f"arrival_prob must lie in [0, 1], got {self.arrival_prob}")
        if self.k_min < 1:
            raise ValueError(f"k_min must be at least 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ValueError(f"k_max {self.k_max} below k_min {self.k_min}")
        if self.k_max - self.k_min >= K_SPAN_LIMIT:
            raise ValueError(f"k_max - k_min must stay below 2**32 - 1, got {self.k_max - self.k_min}")


def check_capacity(n_contents: int, capacity: int) -> None:
    """Refuse, with a :class:`ConfigError`, a cache capacity outside ``0..n_contents``."""
    if not 0 <= capacity <= n_contents:
        raise ConfigError(f"cache capacity must lie in 0..{n_contents}, got {capacity}")


def check_ks(ks: range) -> range:
    """``ks``, the contents-per-task counts, once checked: a ``ValueError``
    refuses all but a non-empty step-1 range from 1."""
    if not (isinstance(ks, range) and ks and ks.step == 1 and ks.start >= 1):
        raise ValueError(f"contents-per-task counts must be a non-empty step-1 range from 1, got {ks!r}")
    return ks


def task_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators derived from one seed.

    Returns ``(arrival_rng, composition_rng)``.  Keeping the streams apart
    means the i-th sampled task has the same composition whatever the
    arrival pattern was.
    """
    arrival_ss, composition_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(arrival_ss), np.random.default_rng(composition_ss)


@dataclass(frozen=True, eq=False)
class TaskTable:
    """One seed's arrivals and tasks, drawn once by :func:`draw_tasks`.

    The table covers ``horizon`` slots.  ``arrival`` holds per task, in
    arrival order, its arrival slot, then ``horizon``, a slot no loop
    reaches, so the next task's arrival slot is always in bounds;
    ``arrival_slot`` is the view without it.  ``local_bits`` and
    ``mec_bits`` hold per task the distinct uncached bits a local run
    fetches and the full task an offload ships.  Every array is read-only,
    however the table was built.
    """

    horizon: int
    arrival: np.ndarray
    local_bits: np.ndarray
    mec_bits: np.ndarray

    def __post_init__(self):
        # The compiled loop indexes all three by task without a bound.
        n_tasks = len(self.arrival) - 1
        if not (n_tasks == len(self.local_bits) == len(self.mec_bits) and self.arrival[-1] == self.horizon):
            raise ValueError("a task table needs one arrival slot and two bit counts per task, then the horizon")
        for array in (self.arrival, self.local_bits, self.mec_bits):
            array.flags.writeable = False

    @property
    def arrival_slot(self) -> np.ndarray:
        return self.arrival[:-1]


def draw_tasks(
    catalog: ContentCatalog, capacity: int, cfg: WorkloadConfig, horizon: int, seed: int
) -> TaskTable:
    """Draw the arrivals and tasks of a ``horizon``-slot run from ``seed``.

    Slot ``t`` has an arrival when the ``t``-th uniform of
    ``random(horizon)`` on :func:`task_streams`' arrival stream lies below
    ``cfg.arrival_prob``, and the tasks are :func:`sample_tasks` on its
    composition stream, so repeated calls with the same inputs return equal
    tables.  Each task's bits are its counts times the catalog's content
    size, as in :func:`~mecsched.dynamics.task_bits`.  Every guard that
    protects an allocation fires here, before anything is allocated.
    """
    if horizon < 1:
        raise ConfigError(f"horizon must be at least 1 slot, got {horizon}")
    # Bit totals stay exact integers in float64 up to 2**53, so they sum
    # to the same value in any order.
    if not horizon * cfg.k_max * catalog.size_bits < _EXACT_FLOAT_LIMIT:
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

    arrival_rng, composition_rng = task_streams(seed)
    # Chunked draws continue one stream, so the arrivals equal those of a
    # single random(horizon) call without its 8-byte-per-slot temporary.
    blocks = []
    for first in range(0, horizon, _ARRIVAL_CHUNK):
        uniforms = arrival_rng.random(min(_ARRIVAL_CHUNK, horizon - first))
        blocks.append(first + np.flatnonzero(uniforms < cfg.arrival_prob))
    arrival = np.concatenate([*blocks, [horizon]])
    del blocks, uniforms
    ks, distinct = sample_tasks(composition_rng, catalog, cfg, arrival.size - 1, capacity)
    # The distinct counts go before the offload bits are made, so the draw
    # holds at most four per-task arrays: 32 bytes per task.
    size = float(catalog.size_bits)
    local_bits = size * distinct
    del distinct
    mec_bits = size * ks
    return TaskTable(horizon, arrival, local_bits, mec_bits)


def sample_tasks(
    rng: np.random.Generator,
    catalog: ContentCatalog,
    cfg: WorkloadConfig,
    n_tasks: int,
    capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_tasks`` tasks in arrival order; returns ``(k, distinct_uncached)``.

    The result, and the state ``rng`` is left in, are exactly those of
    drawing each task in turn as ``k = rng.integers(k_min, k_max + 1)``
    followed by ``rng.random(k)``.  The cache holds ranks ``1..capacity``.
    Any bit generator but ``PCG64`` raises a ``TypeError`` before a draw.

    The compiled draw runs on ``P`` threads (:func:`_parts`), in chunks of
    ``_DRAW_CHUNK`` tasks.  Its one kernel call starts ``P - 1`` threads,
    then walks the tasks once without their contents: each task's ``k``
    draw, then a jump past its ``k`` content words, recording the
    generator's state at each chunk's first task.  Each thread, the
    caller's too, takes chunks in turn and draws them from those states,
    so every ``P`` and chunk size gives the tasks and the end state of one
    pass.  A ``k`` span with more values than the draw has tasks, whose
    jump table would outgrow the draw, is drawn on the caller's thread
    alone.  The generator keeps its state if the call raises.
    """
    if type(rng.bit_generator) is not np.random.PCG64:
        raise TypeError(f"the draws step numpy's PCG64 only, got {type(rng.bit_generator).__name__}")
    check_capacity(catalog.n_contents, capacity)
    ks = np.empty(n_tasks, dtype=np.int64)
    distinct = np.empty(n_tasks, dtype=np.int64)
    lib = _kernel.lib
    if lib is None:
        for i in range(n_tasks):
            ks[i] = rng.integers(cfg.k_min, cfg.k_max + 1)
            distinct[i] = draw_contents(rng, catalog, ks[i:i + 1], capacity)[0]
        return ks, distinct
    parts = _parts(n_tasks)
    stamps = np.zeros((parts, catalog.n_contents), dtype=np.int64)
    with _pcg64_words(rng.bit_generator) as words:
        lib.mecsched_draw_tasks(
            words, n_tasks, _DRAW_CHUNK, parts, cfg.k_min, cfg.k_max - cfg.k_min, ks, catalog.guide,
            catalog.guide_shift, catalog.edge, capacity, catalog.n_contents, stamps, distinct,
        )
    return ks, distinct


def draw_contents(rng: np.random.Generator, catalog: ContentCatalog, ks, capacity: int) -> np.ndarray:
    """Per task, the distinct uncached contents among ``ks[i]`` drawn ones.

    Task ``i``'s contents are ``rng.random(ks[i])``, drawn task by task:
    the estimate's reference, which its compiled draw follows.
    """
    check_capacity(catalog.n_contents, capacity)
    distinct = np.empty(len(ks), dtype=np.int64)
    for i, k in enumerate(ks):
        ranks = draw_ranks(rng, catalog.cdf, k) + 1
        distinct[i] = len(set(ranks[ranks > capacity].tolist()))
    return distinct


def draw_ranks(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``n`` uniforms ``rng.random(n)``, each ranked as the number of
    entries of ``cdf`` (non-decreasing, last entry exactly 1) ``<= u``:
    the estimate's reference, which its compiled draw follows through a
    packed guide table and rank edges built for ``cdf``."""
    return np.searchsorted(cdf, rng.random(n), side="right")


def sample_slot_counts(
    catalog: ContentCatalog, capacity: int, params: SystemParams, ks: range, samples: int, seed: int,
    sums: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The Monte Carlo estimate's samples: ``samples`` tasks' local and
    offload busy-slot counts, as two arrays.

    The stream: ``random(samples)`` from ``default_rng(seed)``, ranked by
    :func:`draw_ranks` through ``cdf = cumsum(p) / cdf[-1]`` (``p`` the
    equal probabilities of ``ks``) to pick the ``k`` values in order, as
    ``Generator.choice(ks, p=p)`` does; then each task's contents are the
    next ``k`` uniforms.  The kernel draws the ``k`` values and the
    contents and counts them (``mecsched_estimate_slots``), reading the
    two as two streams, the contents' started ``samples`` words after the
    ``k`` values', through :func:`packed_guide` tables for the ``k`` cdf;
    it stores no ``k`` value.  It stores each mode's counts as unsigned
    integers of 1, 2 or 8 bytes, the narrowest that holds that mode's
    count of a task of ``ks[-1]`` contents, all of them fetched: a count
    never falls as a task's bits grow, so that one bounds every sample.
    At the defaults both bounds fit a byte, so the compiled estimate holds
    2 bytes per sample, and 16 once a count can reach the ``2**62`` cap;
    besides, a stamp row per thread.

    ``sums``, a float64 array of four (a fresh one if ``None``), gets
    each mode's two sums, the local counts' then the offload counts': the
    counts' sum, and the sum of their squared deviations from ``sum /
    samples``, both in the order of numpy's pairwise ``add.reduce`` over
    the counts as float64, so that ``sum / samples`` is their ``mean()``
    and the second sum gives ``std(ddof=1)`` bit for bit.  The kernel
    takes them once its samples are drawn, with no samples-long array of
    its own.

    The compiled estimate runs on ``P`` threads (:func:`_parts`): ``P`` is
    the number of CPUs in ``os.sched_getaffinity(0)``, capped at ``samples
    // _PART_FLOOR``.  The kernel's one call starts ``P - 1`` threads, then
    ranks the ``k`` values once to place each chunk of ``_CHUNK`` samples
    in the contents' stream, and each thread, the caller's too, takes
    chunks in turn, jumping both streams to the chunk's first sample and
    writing its own range of the counts; so every ``P`` and chunk size
    gives the counts and the end state of one pass over the samples.  The
    generator keeps its state if the call raises.  ``P = 1`` starts no
    thread.  The reference, without the kernel, goes in steps of
    ``_STEP_TASKS`` through :func:`draw_contents` and ``dynamics``, holds
    the ``k`` values too, returns float64 counts and takes ``sums`` with
    numpy, in one more samples-long array once the ``k`` values are
    freed: 24 bytes per sample either way.
    """
    check_ks(ks)
    check_capacity(catalog.n_contents, capacity)
    cdf = np.cumsum(np.full(len(ks), 1.0 / len(ks)))
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    sums = np.empty(4) if sums is None else sums
    lib = _kernel.lib
    if lib is not None:
        bound_bits = [float(catalog.size_bits) * ks[-1]]
        local_bound, mec_bound = slots_local(bound_bits, bound_bits, params)[0], slots_mec(bound_bits, params)[0]
        local_counts = np.empty(samples, dtype=_count_dtype(local_bound))
        mec_counts = np.empty(samples, dtype=_count_dtype(mec_bound))
        parts = _parts(samples)
        stamps = np.zeros((parts, catalog.n_contents), dtype=np.int64)
        offsets = np.empty(-(-samples // _CHUNK) + 1, dtype=np.uint64)
        with _pcg64_words(rng.bit_generator) as words:
            lib.mecsched_estimate_slots(
                words, samples, _CHUNK, parts, ks.start, *packed_guide(cdf), catalog.guide, catalog.guide_shift,
                catalog.edge, capacity, catalog.n_contents, stamps, offsets, float(catalog.size_bits),
                *busy_slot_terms(params), local_counts, local_counts.itemsize, mec_counts, mec_counts.itemsize,
                sums,
            )
        return local_counts, mec_counts
    drawn_ks = draw_ranks(rng, cdf, samples)
    drawn_ks += ks.start  # in place: a second samples-long array would raise the peak memory
    # Allocated after the k draw, whose uniforms are freed by now.
    local_counts, mec_counts = np.empty((2, samples))
    for first in range(0, samples, _STEP_TASKS):
        chunk = drawn_ks[first:first + _STEP_TASKS]
        distinct = draw_contents(rng, catalog, chunk, capacity)
        local_bits, mec_bits = task_bits(catalog, chunk, distinct)
        local_counts[first:first + chunk.size] = slots_local(mec_bits, local_bits, params)
        mec_counts[first:first + chunk.size] = slots_mec(mec_bits, params)
    drawn_ks = chunk = None  # frees the k values: the deviations take their place
    for mode, counts in enumerate((local_counts, mec_counts)):
        total = np.add.reduce(counts)
        deviations = counts - total / samples
        deviations *= deviations
        sums[2 * mode:2 * mode + 2] = total, np.add.reduce(deviations)
    return local_counts, mec_counts


def _count_dtype(bound: int) -> type:
    """The narrowest of uint8, uint16 and uint64 that holds ``bound``."""
    return np.uint8 if bound < 2**8 else np.uint16 if bound < 2**16 else np.uint64


def _parts(items: int) -> int:
    """The thread count of a compiled draw of ``items`` tasks or estimate of
    ``items`` samples: the number of CPUs this process may run on, capped
    so that each thread's share holds at least ``_PART_FLOOR`` items."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, items // _PART_FLOOR))


@contextmanager
def _pcg64_words(bitgen: np.random.PCG64):
    """Yields the generator's state as the kernel's six uint64 words (the
    state's high and low word, inc's high and low word, has_uint32 and
    uinteger), and stores the state the kernel leaves in them.  The lock is
    held throughout: ctypes releases the GIL, and the lock keeps other
    threads off the stream."""
    with bitgen.lock:
        state = bitgen.state
        s, inc = state["state"]["state"], state["state"]["inc"]
        words = np.array(
            [s >> 64, s & _WORD_MASK, inc >> 64, inc & _WORD_MASK, state["has_uint32"], state["uinteger"]],
            dtype=np.uint64,
        )
        yield words
        state["state"]["state"] = int(words[0]) << 64 | int(words[1])
        state["has_uint32"], state["uinteger"] = int(words[4]), int(words[5])
        bitgen.state = state
