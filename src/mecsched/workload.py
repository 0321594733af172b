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
(``mecsched._kernel.lib``) draws it in C by calling the generator's own
``next_uint32`` and ``next_double``, the functions those two calls make,
so it follows any numpy bit generator and leaves it as those calls would.
It ranks through the catalog's guide table, which gives the binary
search's rank for every uniform.  While the kernel is ``None`` the
stream's definition runs, one task at a time: about 20 us per task
against about 0.3 us in C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .catalog import ContentCatalog

__all__ = [
    "WorkloadConfig",
    "task_streams",
    "sample_tasks",
    "draw_contents",
    "K_SPAN_LIMIT",
]

# k_max - k_min from which numpy's integers() leaves the 32-bit Lemire
# draw the kernel makes.
K_SPAN_LIMIT = 2**32 - 1


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


def _draw(rng, catalog: ContentCatalog, capacity: int, ks: np.ndarray, cfg) -> np.ndarray:
    """Draw each task's ``k`` (into ``ks``, unless ``cfg`` is None) and its
    contents; returns the distinct uncached counts."""
    if not 0 <= capacity <= catalog.n_contents:
        raise ValueError(f"cache capacity must lie in 0..{catalog.n_contents}, got {capacity}")
    distinct = np.empty(ks.size, dtype=np.int64)
    lib = _kernel.lib
    if lib is None:
        for i in range(ks.size):
            if cfg is not None:
                ks[i] = rng.integers(cfg.k_min, cfg.k_max + 1)
            ranks = np.searchsorted(catalog.cdf, rng.random(ks[i]), side="right") + 1
            distinct[i] = len(set(ranks[ranks > capacity].tolist()))
        return distinct
    k_min, span = (0, 0) if cfg is None else (cfg.k_min, cfg.k_max - cfg.k_min)
    stamp = np.zeros(catalog.n_contents, dtype=np.int64)
    bitgen = rng.bit_generator
    # ctypes releases the GIL; the lock keeps other threads off the stream.
    with bitgen.lock:
        lib.mecsched_draw_tasks(
            bitgen.ctypes.bit_generator, ks.size, cfg is not None, k_min, span, ks,
            catalog.guide, catalog.guide.size - 1, catalog.cdf, capacity, stamp, distinct,
        )
    return distinct
