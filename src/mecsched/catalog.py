"""Content universe, Zipf popularity, and the most-popular-first cache.

Every task is assembled from a fixed universe of ``n_contents`` contents,
all of the same size in bits.  Content rank ``k`` is drawn with probability
``p[k-1]`` following a truncated Zipf law, so low ranks are the popular
ones.  The device cache pins the ``capacity`` most popular ranks, which
makes cache membership a pure index comparison.

Ranks are drawn by inversion: a uniform ``u`` in [0, 1) maps to one plus
the number of cumulative-popularity entries ``<= u``.  Beside the ``cdf``
the catalog keeps a guide table (Chen & Asau, 1974) that answers this in
O(1) for almost every ``u`` with the very same result as a binary search
(see :class:`ContentCatalog`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ContentCatalog", "CacheConfig", "zipf_popularity"]

# Popularity vectors must be normalised at least this well.
POPULARITY_SUM_TOL = 1e-12


def zipf_popularity(n: int, alpha: float) -> np.ndarray:
    """Truncated Zipf probability vector over content ranks ``1..n``.

    Parameters
    ----------
    n : int
        Number of contents, at least 1.
    alpha : float
        Skew exponent.  ``alpha = 0`` gives the uniform distribution;
        larger values concentrate mass on the low ranks.

    Returns
    -------
    numpy.ndarray
        Vector ``p`` of length ``n`` with ``p[k-1]`` proportional to
        ``k ** -alpha``, normalised to sum to 1 and non-increasing in rank.
    """
    if n < 1:
        raise ValueError(f"catalog needs at least one content, got n={n}")
    if alpha < 0:
        raise ValueError(f"zipf exponent must be non-negative, got alpha={alpha}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks**-alpha
    return weights / weights.sum()


@dataclass(frozen=True, eq=False)
class ContentCatalog:
    """Immutable description of the content universe.

    Parameters
    ----------
    n_contents : int
        Universe size.
    size_bits : float
        Size of every content in bits (all contents are equally sized).
    popularity : numpy.ndarray
        Per-rank request probability, non-increasing, summing to 1.

    Derived fields: ``cdf`` is the cumulative popularity (last entry
    exactly 1).  ``guide`` splits [0, 1) into B equal buckets, B the
    smallest power of two ``>= 4 * n_contents``; ``guide[j]`` is the number
    of ``cdf`` entries ``<= j / B``, so for ``u`` in bucket ``j`` the number
    of entries ``<= u`` is ``guide[j]`` plus those inside the bucket.
    ``guide_wide[j]`` marks the buckets that hold more than one entry; in
    every other bucket one comparison with ``cdf[guide[j]]`` finishes the
    count.  The two tables cost 5 bytes per bucket.
    """

    n_contents: int
    size_bits: float
    popularity: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)
    guide_wide: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_contents < 1:
            raise ValueError(f"catalog needs at least one content, got {self.n_contents}")
        if not self.size_bits > 0:
            raise ValueError(f"content size must be positive, got {self.size_bits}")
        pop = np.asarray(self.popularity, dtype=np.float64)
        if pop.shape != (self.n_contents,):
            raise ValueError(
                f"popularity length {pop.shape} does not match n_contents={self.n_contents}"
            )
        if not np.all(pop > 0):
            raise ValueError("popularity entries must be strictly positive")
        if abs(pop.sum() - 1.0) > POPULARITY_SUM_TOL:
            raise ValueError(f"popularity must sum to 1, got {pop.sum()!r}")
        if np.any(np.diff(pop) > 0):
            raise ValueError("popularity must be non-increasing in rank")
        object.__setattr__(self, "popularity", pop)
        cdf = np.cumsum(pop)
        cdf[-1] = 1.0  # every u < 1 then ranks at most n_contents, despite rounding
        object.__setattr__(self, "cdf", cdf)
        # An entry c is <= j / B exactly when ceil(c * B) <= j; scaling by a
        # power of two is exact, so the bucket counts have no rounding error.
        buckets = 1 << (4 * self.n_contents - 1).bit_length()
        per_bucket = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
        object.__setattr__(self, "guide", np.cumsum(per_bucket[:buckets], dtype=np.int32))
        object.__setattr__(self, "guide_wide", per_bucket[1:buckets + 1] > 1)

    @classmethod
    def zipf(cls, n_contents: int, alpha: float, size_bits: float) -> "ContentCatalog":
        """Build a catalog whose popularity is ``zipf_popularity(n, alpha)``."""
        return cls(
            n_contents=n_contents,
            size_bits=size_bits,
            popularity=zipf_popularity(n_contents, alpha),
        )


@dataclass(frozen=True)
class CacheConfig:
    """Device cache holding the ``capacity`` most popular content ranks."""

    capacity: int
    n_contents: int

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {self.capacity}")
        if self.n_contents < 1:
            raise ValueError(f"cache needs a non-empty universe, got {self.n_contents}")
        if self.capacity > self.n_contents:
            raise ValueError(
                f"cache capacity {self.capacity} exceeds universe size {self.n_contents}"
            )

    @classmethod
    def for_catalog(cls, catalog: ContentCatalog, capacity: int) -> "CacheConfig":
        return cls(capacity=capacity, n_contents=catalog.n_contents)

