"""Bernoulli task arrivals and random task composition.

At most one task arrives per slot (probability ``arrival_prob``).  A task
requests ``k`` contents, ``k`` uniform on ``{k_min..k_max}``, each content
drawn independently from the catalog popularity; repeats are allowed and
the task size in bits is ``k * size_bits`` regardless of repeats.

A run's tasks are drawn up front, in arrival order, into a task table of
per-task scalars: ``k`` and the number of distinct uncached contents, which
is all the scheduler ever needs to know of a task (see :func:`sample_tasks`).
Arrivals and composition are sampled from two separately seeded streams
(see :func:`task_streams`) so that changing the arrival probability in a
sweep does not perturb the content sequence of the sampled tasks.

The composition stream is defined as, per task, ``k = integers(k_min,
k_max + 1)`` and then ``random(k)`` for its contents, each ranked
``searchsorted(cdf, u, side="right") + 1``.  The compiled kernel
(``mecsched._kernel.lib``) draws it in C for a generator whose bit
generator is numpy's ``PCG64``, as every generator the package makes is:
it reads the generator's state from ``PCG64.state``, steps PCG64 itself,
makes each double and 32-bit value as numpy's ``next_double`` and
``next_uint32`` do, and writes the end state back, so it leaves the
generator as those calls would.  It ranks each raw 64-bit word in integers
through the catalog's guide table and rank edges, which give the binary
search's rank for every uniform.  On a processor with AVX-512 it makes
the words sixteen at a time, in lanes jumped ahead of one another, and
ranks them eight at a time; elsewhere it steps PCG64 one word at a time.
Both give the same words and ranks, and the same end state.  Any other bit
generator, and every generator while the kernel is ``None``, takes the
stream's definition, one task at a time: about 20 us per task against
about 0.2 us in C (0.25 us with the scalar step; a default task has about
50 contents).

The Monte Carlo estimate (:mod:`mecsched.analysis`) takes its ``k``
values from :func:`draw_ranks`: ``random(n)``, each uniform ranked as
``searchsorted(cdf, u, side="right")``, which the kernel answers, for a
``PCG64`` generator, through a guide table and rank edges built for that
cdf.  With ``cdf = cumsum(p) / cdf[-1]`` this is the stream
``Generator.choice(a, p=p)`` makes, but it is defined here, so it does
not depend on ``choice``'s internals.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .catalog import ContentCatalog, guide_table, rank_edges

__all__ = [
    "WorkloadConfig",
    "task_streams",
    "sample_tasks",
    "draw_contents",
    "draw_ranks",
    "K_SPAN_LIMIT",
]

# k_max - k_min from which numpy's integers() leaves the 32-bit Lemire
# draw the kernel makes.
K_SPAN_LIMIT = 2**32 - 1
_WORD_MASK = 2**64 - 1


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


def task_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators derived from one seed.

    Returns ``(arrival_rng, composition_rng)``.  Keeping the streams apart
    means the i-th sampled task has the same composition whatever the
    arrival pattern was.
    """
    arrival_ss, composition_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(arrival_ss), np.random.default_rng(composition_ss)


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
    followed by ``rng.random(k)``.  The cache holds ranks
    ``1..capacity``; a ``capacity`` outside ``0..catalog.n_contents``
    raises :class:`ValueError`, here and in :func:`draw_contents`.
    """
    ks = np.empty(n_tasks, dtype=np.int64)
    return ks, _draw(rng, catalog, capacity, ks, cfg)


def draw_contents(rng: np.random.Generator, catalog: ContentCatalog, ks, capacity: int) -> np.ndarray:
    """Per task, the distinct uncached contents among ``ks[i]`` drawn ones.

    Task ``i``'s contents are ``rng.random(ks[i])``, drawn task by task.
    """
    return _draw(rng, catalog, capacity, np.array(ks, dtype=np.int64), None)


def draw_ranks(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """``n`` uniforms ``rng.random(n)``, each ranked as the number of
    entries of ``cdf`` (non-decreasing, last entry exactly 1) ``<= u``.

    The result, and the state ``rng`` is left in, are exactly those of
    ``np.searchsorted(cdf, rng.random(n), side="right")``; the kernel
    draws them for a ``PCG64`` generator, and any other one takes that
    definition.
    """
    lib = _compiled(rng)
    if lib is None:
        return np.searchsorted(cdf, rng.random(n), side="right")
    guide = guide_table(cdf)
    ranks = np.empty(n, dtype=np.int64)
    with _pcg64_words(rng.bit_generator) as words:
        lib.mecsched_draw_ranks(words, n, guide, _bucket_shift(guide), rank_edges(cdf), ranks)
    return ranks


def _compiled(rng):
    """The kernel when it can draw ``rng``'s stream (its bit generator is
    numpy's ``PCG64``), else None."""
    lib = _kernel.lib
    return lib if lib is not None and type(rng.bit_generator) is np.random.PCG64 else None


def _bucket_shift(guide: np.ndarray) -> int:
    """64 - log2 of the guide table's bucket count: a word's bucket is the
    word shifted right by this much."""
    return 65 - (guide.size - 1).bit_length()


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


def _check_capacity(catalog: ContentCatalog, capacity: int) -> None:
    """Refuse a cache capacity outside ``0..catalog.n_contents``, the
    numbers of top-ranked contents a cache can hold."""
    if not 0 <= capacity <= catalog.n_contents:
        raise ValueError(f"cache capacity must lie in 0..{catalog.n_contents}, got {capacity}")


def _draw(rng, catalog: ContentCatalog, capacity: int, ks: np.ndarray, cfg) -> np.ndarray:
    """Draw each task's ``k`` (into ``ks``, unless ``cfg`` is None) and its
    contents; returns the distinct uncached counts."""
    _check_capacity(catalog, capacity)
    distinct = np.empty(ks.size, dtype=np.int64)
    lib = _compiled(rng)
    if lib is None:
        for i in range(ks.size):
            if cfg is not None:
                ks[i] = rng.integers(cfg.k_min, cfg.k_max + 1)
            ranks = np.searchsorted(catalog.cdf, rng.random(ks[i]), side="right") + 1
            distinct[i] = len(set(ranks[ranks > capacity].tolist()))
        return distinct
    k_min, span = (0, 0) if cfg is None else (cfg.k_min, cfg.k_max - cfg.k_min)
    stamp = np.zeros(catalog.n_contents, dtype=np.int64)
    with _pcg64_words(rng.bit_generator) as words:
        lib.mecsched_draw_tasks(
            words, ks.size, cfg is not None, k_min, span, ks, catalog.guide, _bucket_shift(catalog.guide),
            catalog.edge, capacity, stamp, distinct,
        )
    return distinct
