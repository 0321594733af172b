"""Bernoulli task arrivals and random task composition.

At most one task arrives per slot (probability ``arrival_prob``).  A task
requests ``k`` contents, ``k`` uniform on ``{k_min..k_max}``, each content
drawn independently from the catalog popularity; repeats are allowed and
the task size in bits is ``k * size_bits`` regardless of repeats.

This module is the package's only source of randomness: a run's arrivals
and tasks (:func:`sample_run`), drawn up front in arrival order as the two
per-task scalars the scheduler needs, ``k`` and the number of distinct
uncached contents, and the Monte Carlo estimate's samples
(:func:`sample_slot_counts`).  Arrivals and composition come from two
separately seeded streams (:func:`task_streams`), so changing the arrival
probability in a sweep does not perturb the content sequence of the tasks.

The composition stream is defined as, per task, ``k = integers(k_min,
k_max + 1)`` and then ``random(k)`` for its contents, each ranked
``searchsorted(cdf, u, side="right") + 1``.  The compiled kernel
(``mecsched._kernel.lib``) draws it in C for a generator whose bit
generator is numpy's ``PCG64``, as every generator the package makes is:
it reads the generator's state from ``PCG64.state``, steps PCG64 itself,
makes each double and 32-bit value as numpy's ``next_double`` and
``next_uint32`` do, and writes the end state back, so it leaves the
generator as those calls would, whichever of its word sources (see
:mod:`mecsched._kernel`) runs.  It ranks each raw 64-bit word in integers
through the catalog's guide table and rank edges, which give the binary
search's rank for every uniform.  Any other bit generator, and every
generator while the kernel is ``None``, takes the stream's definition, one
task at a time: about 20 us per task against about 0.2 us in C (0.25 us
with the scalar step; a default task has about 50 contents).  The
estimate's draw is one kernel call too, ``k`` values included.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .catalog import ContentCatalog, guide_table, rank_edges
from .dynamics import SystemParams, busy_slot_terms, slots_local, slots_mec, task_bits
from .errors import ConfigError

__all__ = [
    "WorkloadConfig",
    "check_capacity",
    "task_streams",
    "sample_run",
    "sample_tasks",
    "draw_contents",
    "draw_ranks",
    "sample_slot_counts",
    "K_SPAN_LIMIT",
]

# k_max - k_min from which numpy's integers() leaves the 32-bit Lemire
# draw the kernel makes.
K_SPAN_LIMIT = 2**32 - 1
_WORD_MASK = 2**64 - 1
# Slots whose arrival uniforms are drawn at a time.
_ARRIVAL_CHUNK = 1 << 16
# Tasks sampled and counted per step of the Monte Carlo estimate's Python
# path.  Each step pays fixed costs (numpy dispatch, the slot counts'
# error-state switch), and its temporaries span the step, so a single step
# would raise the peak memory.  The stream is the same for any step size.
_STEP_TASKS = 4096


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


def task_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators derived from one seed.

    Returns ``(arrival_rng, composition_rng)``.  Keeping the streams apart
    means the i-th sampled task has the same composition whatever the
    arrival pattern was.
    """
    arrival_ss, composition_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(arrival_ss), np.random.default_rng(composition_ss)


def sample_run(
    catalog: ContentCatalog, capacity: int, cfg: WorkloadConfig, horizon: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A ``horizon``-slot run's ``(arrival_slot, k, distinct_uncached)``
    from ``seed``, per task in arrival order: slot ``t`` has an arrival when
    the ``t``-th uniform of ``random(horizon)`` on :func:`task_streams`'
    arrival stream lies below ``cfg.arrival_prob``, and the tasks are
    :func:`sample_tasks` on its composition stream."""
    arrival_rng, composition_rng = task_streams(seed)
    # Chunked draws continue one stream, so the arrivals equal those of a
    # single random(horizon) call without its 8-byte-per-slot temporary.
    blocks = []
    for first in range(0, horizon, _ARRIVAL_CHUNK):
        uniforms = arrival_rng.random(min(_ARRIVAL_CHUNK, horizon - first))
        blocks.append(first + np.flatnonzero(uniforms < cfg.arrival_prob))
    arrival_slot = np.concatenate(blocks)
    return (arrival_slot, *sample_tasks(composition_rng, catalog, cfg, arrival_slot.size, capacity))


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
    """
    check_capacity(catalog.n_contents, capacity)
    ks = np.empty(n_tasks, dtype=np.int64)
    distinct = np.empty(n_tasks, dtype=np.int64)
    lib = _compiled(rng)
    if lib is None:
        for i in range(n_tasks):
            ks[i] = rng.integers(cfg.k_min, cfg.k_max + 1)
            distinct[i] = draw_contents(rng, catalog, ks[i:i + 1], capacity)[0]
        return ks, distinct
    stamp = np.zeros(catalog.n_contents, dtype=np.int64)
    with _pcg64_words(rng.bit_generator) as words:
        lib.mecsched_draw_tasks(
            words, n_tasks, cfg.k_min, cfg.k_max - cfg.k_min, ks, catalog.guide, catalog.guide_shift,
            catalog.edge, capacity, stamp, distinct,
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
        ranks = np.searchsorted(catalog.cdf, rng.random(k), side="right") + 1
        distinct[i] = len(set(ranks[ranks > capacity].tolist()))
    return distinct


def draw_ranks(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``n`` uniforms ``rng.random(n)``, each ranked as the number of
    entries of ``cdf`` (non-decreasing, last entry exactly 1) ``<= u``:
    the estimate's reference, which its compiled draw follows through a
    guide table and rank edges built for ``cdf``."""
    return np.searchsorted(cdf, rng.random(n), side="right")


def sample_slot_counts(
    catalog: ContentCatalog, capacity: int, params: SystemParams, ks: range, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Monte Carlo estimate's samples: ``samples`` tasks' local and
    offload busy-slot counts, as two float64 arrays.

    The stream: ``random(samples)`` from ``default_rng(seed)``, ranked by
    :func:`draw_ranks` through ``cdf = cumsum(p) / cdf[-1]`` (``p`` the
    equal probabilities of ``ks``) to pick the ``k`` values in order, as
    ``Generator.choice(ks, p=p)`` does; then each task's contents are the
    next ``k`` uniforms.  The kernel draws the ``k`` values and the
    contents and counts them in one call
    (``mecsched_estimate_slots``); the reference, without it, goes in steps
    of ``_STEP_TASKS`` through :func:`draw_contents` and ``dynamics``.
    """
    check_capacity(catalog.n_contents, capacity)
    cdf = np.cumsum(np.full(len(ks), 1.0 / len(ks)))
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    lib = _compiled(rng)
    if lib is not None:
        drawn_ks = np.empty(samples, dtype=np.int64)
        local_counts, mec_counts = np.empty((2, samples))
        stamp = np.zeros(catalog.n_contents, dtype=np.int64)
        with _pcg64_words(rng.bit_generator) as words:
            lib.mecsched_estimate_slots(
                words, samples, ks.start, *guide_table(cdf), rank_edges(cdf), drawn_ks, catalog.guide,
                catalog.guide_shift, catalog.edge, capacity, stamp, float(catalog.size_bits),
                *busy_slot_terms(params), local_counts, mec_counts,
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
    return local_counts, mec_counts


def _compiled(rng):
    """The kernel when it can draw ``rng``'s stream (its bit generator is
    numpy's ``PCG64``), else None."""
    lib = _kernel.lib
    return lib if lib is not None and type(rng.bit_generator) is np.random.PCG64 else None


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
