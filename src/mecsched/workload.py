"""Bernoulli task arrivals and random task composition.

At most one task arrives per slot (probability ``arrival_prob``).  A task
requests ``k`` contents, ``k`` uniform on ``{k_min..k_max}``, each content
drawn independently from the catalog popularity; repeats are allowed and
the task size in bits is ``k * size_bits`` regardless of repeats.

A run's tasks are drawn up front, in arrival order, into a task table of
per-task scalars: ``k`` and the number of distinct uncached contents, which
is all the scheduler ever needs to know of a task (see :func:`sample_tasks`).
Content ranks come from the catalog's guide table, which gives the same
rank as a binary search over the cumulative popularity for every uniform;
distinct uncached contents are counted by sorting (task, rank) keys.
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
    """Ranks ``searchsorted(cdf, u, side="right") + 1`` via the guide table.

    Equal to the binary search for every ``u`` in [0, 1): a bucket holding
    at most one ``cdf`` entry needs one comparison, and the rare uniforms
    in wider buckets take the binary search itself.
    """
    bucket = (u * catalog.guide.size).astype(np.intp)
    ranks = catalog.guide.take(bucket).astype(np.int64)
    ranks += catalog.cdf.take(ranks) <= u
    wide = np.flatnonzero(catalog.guide_wide.take(bucket))
    if wide.size:
        ranks[wide] = np.searchsorted(catalog.cdf, u[wide], side="right")
    ranks += 1
    return ranks


def sample_content_indices(rng: np.random.Generator, catalog: ContentCatalog, k: int) -> np.ndarray:
    """``k`` i.i.d. content ranks drawn from the catalog popularity."""
    return _content_ranks(catalog, rng.random(k))


def distinct_uncached_counts(ranks: np.ndarray, ks: np.ndarray, cache: CacheConfig) -> np.ndarray:
    """Per task, the number of distinct content ranks the cache misses.

    ``ranks`` holds the tasks' contents back to back, ``ks[i]`` of them for
    task ``i``.  A local run fetches each missing rank once, however often
    the task repeats it, and cached ranks (``<= cache.capacity``) not at all.
    """
    stride = cache.n_contents + 1
    # Sorted task * stride + rank keys put repeats side by side; count the
    # first of each.
    keys = np.repeat(np.arange(0, ks.size * stride, stride), ks)
    keys += ranks
    keys = keys[ranks > cache.capacity]
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.bincount(keys[first] // stride, minlength=ks.size)


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
    integers, random = rng.integers, rng.random
    k_lo, k_hi = cfg.k_min, cfg.k_max + 1
    for first in range(0, n_tasks, _CHUNK_TASKS):
        last = min(first + _CHUNK_TASKS, n_tasks)
        uniforms = []
        for i in range(first, last):
            k = int(integers(k_lo, k_hi))
            ks[i] = k
            uniforms.append(random(k))
        ranks = _content_ranks(catalog, np.concatenate(uniforms))
        distinct[first:last] = distinct_uncached_counts(ranks, ks[first:last], cache)
    return ks, distinct
