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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import CacheConfig, ContentCatalog

__all__ = [
    "WorkloadConfig",
    "task_streams",
    "sample_content_indices",
    "distinct_uncached_counts",
    "sample_tasks",
]

# Tasks whose contents are ranked and counted together; bounds the
# sampler's temporary memory.
_CHUNK_TASKS = 64


@dataclass(frozen=True)
class WorkloadConfig:
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


def task_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators derived from one seed.

    Returns ``(arrival_rng, composition_rng)``.  Keeping the streams apart
    means the i-th sampled task has the same composition whatever the
    arrival pattern was.
    """
    arrival_ss, composition_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(arrival_ss), np.random.default_rng(composition_ss)


def _content_ranks(catalog: ContentCatalog, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(catalog.cdf, u, side="right").astype(np.int64) + 1


def sample_content_indices(rng: np.random.Generator, catalog: ContentCatalog, k: int) -> np.ndarray:
    """``k`` i.i.d. content ranks drawn from the catalog popularity."""
    return _content_ranks(catalog, rng.random(k))


def distinct_uncached_counts(ranks: np.ndarray, ks: np.ndarray, cache: CacheConfig) -> np.ndarray:
    """Per task, the number of distinct content ranks the cache misses.

    ``ranks`` holds the tasks' contents back to back, ``ks[i]`` of them for
    task ``i``.  A local run fetches each missing rank once, however often
    the task repeats it, and cached ranks (``<= cache.capacity``) not at all.
    """
    task = np.repeat(np.arange(ks.size), ks)
    missed = ranks > cache.capacity
    stride = cache.n_contents + 1
    pairs = np.unique(task[missed] * stride + ranks[missed])
    return np.bincount(pairs // stride, minlength=ks.size)


def sample_tasks(
    rng: np.random.Generator,
    catalog: ContentCatalog,
    cfg: WorkloadConfig,
    n_tasks: int,
    cache: CacheConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_tasks`` tasks in arrival order; returns ``(k, distinct_uncached)``.

    Each task consumes one ``integers`` draw for ``k`` and one vector draw
    of ``k`` uniforms for its contents, so a fixed seed reproduces the
    stream bit for bit whatever the chunking.
    """
    ks = np.empty(n_tasks, dtype=np.int64)
    distinct = np.empty(n_tasks, dtype=np.int64)
    for first in range(0, n_tasks, _CHUNK_TASKS):
        last = min(first + _CHUNK_TASKS, n_tasks)
        uniforms = []
        for i in range(first, last):
            k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
            ks[i] = k
            uniforms.append(rng.random(k))
        ranks = _content_ranks(catalog, np.concatenate(uniforms))
        distinct[first:last] = distinct_uncached_counts(ranks, ks[first:last], cache)
    return ks, distinct
