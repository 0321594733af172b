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

The composition stream is defined as, per task, ``k = integers(k_min,
k_max + 1)`` and then ``random(k)`` for its contents, on a PCG64
generator.  :func:`sample_tasks` reproduces that stream bit for bit from
blocks of raw 64-bit words instead of making two generator calls per task,
by mirroring the two numpy algorithms involved:

- ``integers(lo, hi)`` with ``span = hi - 1 - lo``: a zero span returns
  ``lo`` and consumes nothing.  Otherwise (``span < 2**32 - 1``) it is
  Lemire's multiply-and-reject method on 32-bit values (Lemire 2019, *Fast
  Random Integer Generation in an Interval*): an attempt takes a 32-bit
  ``x``, forms ``m = x * (span + 1)`` and is accepted iff
  ``m mod 2**32 >= (2**32 - 1 - span) mod (span + 1)``, giving
  ``lo + (m >> 32)``.  PCG64 serves a 32-bit value from the high half of
  the previous word when one is buffered (``has_uint32``/``uinteger`` in
  its state), and otherwise the low half of a fresh word, buffering the
  high half.
- ``random(k)`` takes ``k`` fresh words, never the buffered half, and turns
  each word ``w`` into ``(w >> 11) * 2**-53``.

So a task's uniforms are the words between its ``k`` words, and all of
them together are exactly the raw words no ``k`` draw took.
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
    "K_SPAN_LIMIT",
]

# Tasks whose contents are ranked and counted together, and at most about
# this many of their raw words; together they bound the sampler's
# temporary memory.
_CHUNK_TASKS = 256
_CHUNK_WORDS = 1 << 14
# k_max - k_min from which numpy's integers() leaves the 32-bit Lemire
# draw that sample_tasks mirrors.
K_SPAN_LIMIT = 2**32 - 1
_LOW32 = 0xFFFFFFFF


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

    The result, and the state ``rng`` is left in, are exactly those of
    drawing each task in turn as ``k = rng.integers(k_min, k_max + 1)``
    followed by ``rng.random(k)`` (see the module docstring for the
    recipe).  Tasks are drawn up to ``_CHUNK_TASKS`` at a time from raw words:
    a Python walk reads only the words that carry ``k`` draws, numpy turns
    every other word into a uniform, and the chunk's ranks are counted by
    :func:`distinct_uncached_counts`.  Words fetched past the last task are
    given back by rewinding the generator and advancing it by the words
    used, then restoring the buffered 32-bit half the last ``k`` draw left.

    ``rng`` must run on PCG64, and ``k_max - k_min`` must stay below
    :data:`K_SPAN_LIMIT`; anything else raises :class:`ValueError`.
    """
    bitgen = rng.bit_generator
    if not isinstance(bitgen, np.random.PCG64):
        raise ValueError(f"sample_tasks follows PCG64's stream, got {type(bitgen).__name__}")
    span = cfg.k_max - cfg.k_min
    if span >= K_SPAN_LIMIT:
        raise ValueError(f"k_max - k_min must stay below 2**32 - 1, got {span}")
    k_lo, k_range = cfg.k_min, span + 1
    threshold = (_LOW32 - span) % k_range
    start = bitgen.state
    has_half, half = start["has_uint32"], start["uinteger"]
    ks = np.empty(n_tasks, dtype=np.int64)
    distinct = np.empty(n_tasks, dtype=np.int64)
    # Without a rejection a task takes at most k_max + 1 words.
    chunk = max(1, min(_CHUNK_TASKS, _CHUNK_WORDS // (cfg.k_max + 1)))
    words = np.empty(0, dtype=np.uint64)
    pos = drawn = 0
    for first in range(0, n_tasks, chunk):
        last = min(first + chunk, n_tasks)
        fresh = max((last - first) * (cfg.k_max + 1) - (words.size - pos), 0)
        words = np.concatenate((words[pos:], bitgen.random_raw(fresh)))
        drawn += fresh
        view = memoryview(words)
        pos = 0
        k_words = []
        chunk_ks = []
        for _ in range(first, last):
            if span:
                if has_half:
                    x, has_half = half, False
                else:
                    word = view[pos]
                    k_words.append(pos)
                    pos += 1
                    x, half, has_half = word & _LOW32, word >> 32, True
                m = x * k_range
                while m & _LOW32 < threshold:
                    if has_half:
                        x, has_half = half, False
                    else:
                        # Keep room for k_max + 1 words per task still to draw.
                        words = np.concatenate((words, bitgen.random_raw(1)))
                        drawn += 1
                        view = memoryview(words)
                        word = view[pos]
                        k_words.append(pos)
                        pos += 1
                        x, half, has_half = word & _LOW32, word >> 32, True
                    m = x * k_range
                k = k_lo + (m >> 32)
            else:
                k = k_lo
            chunk_ks.append(k)
            pos += k
        contents = words[:pos]
        if k_words:
            keep = np.ones(pos, dtype=bool)
            keep[k_words] = False
            contents = contents[keep]
        uniforms = (contents >> 11).astype(np.float64)
        uniforms *= 2.0**-53
        ks[first:last] = chunk_ks
        distinct[first:last] = distinct_uncached_counts(
            _content_ranks(catalog, uniforms), ks[first:last], cache
        )
    # Give back the words fetched but not used, and leave the last k
    # draw's buffered half where integers() would have left it.
    bitgen.state = start
    bitgen.advance(drawn - (words.size - pos))
    end = bitgen.state
    end["has_uint32"], end["uinteger"] = int(has_half), half
    bitgen.state = end
    return ks, distinct
