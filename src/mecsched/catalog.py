"""Content universe, Zipf popularity, and the most-popular-first cache.

Every task is assembled from a fixed universe of ``n_contents`` contents,
all of the same size in bits.  Content rank ``k`` is drawn with probability
``p[k-1]`` following a truncated Zipf law, so low ranks are the popular
ones.  The device cache pins the ``capacity`` most popular ranks, so the
integer ``capacity`` describes it and cache membership is a pure index
comparison.

Ranks are drawn by inversion: a uniform ``u`` in [0, 1) maps to one plus
the number of cumulative-popularity entries ``<= u``.  Beside the ``cdf``
the catalog keeps a guide table (Chen & Asau, 1974, see
:func:`guide_table`) that answers this in O(1) for almost every ``u`` with
the very same result as a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ContentCatalog", "guide_table", "zipf_popularity"]

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


def guide_table(cdf: np.ndarray) -> np.ndarray:
    """Guide table for ranking uniforms against ``cdf`` (Chen & Asau, 1974).

    ``cdf`` is non-decreasing, with 1 to 2**31 - 1 entries (so that the
    table's entries fit int32) and last entry exactly 1, which keeps every
    lookup of a ``u`` in [0, 1) in bounds.  The table splits
    [0, 1) into B equal buckets, B the smallest power of two ``>= 4 *
    cdf.size``, and has B + 1 int32 entries: entry ``j`` is the number of
    ``cdf`` entries ``<= j / B``.  For ``u`` in bucket ``j`` the number of
    entries ``<= u`` therefore lies between entries ``j`` and ``j + 1``; in
    a bucket where the two differ by at most one, one comparison with
    ``cdf[table[j]]`` finishes the count, and a wider one needs a binary
    search between them.  The table costs 4 bytes per bucket.
    """
    if not (0 < cdf.size < 2**31 and cdf[-1] == 1.0):
        raise ValueError(f"a guide table needs 1 to 2**31 - 1 cdf entries, the last exactly 1, got {cdf[-1:]!r}")
    # An entry c is <= j / B exactly when ceil(c * B) <= j; scaling by a
    # power of two is exact, so the bucket counts have no rounding error.
    buckets = 1 << (4 * cdf.size - 1).bit_length()
    per_bucket = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    return np.cumsum(per_bucket, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class ContentCatalog:
    """Immutable description of the content universe.

    Parameters
    ----------
    size_bits : float
        Size of every content in bits (all contents are equally sized).
    popularity : numpy.ndarray
        Per-rank request probability, non-increasing, summing to 1.

    Derived fields: ``n_contents`` is the universe size, the length of
    ``popularity``.  ``cdf`` is the cumulative popularity (last entry
    exactly 1), and ``guide`` is its :func:`guide_table`.
    """

    size_bits: float
    popularity: np.ndarray
    n_contents: int = field(init=False)
    cdf: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.size_bits > 0:
            raise ValueError(f"content size must be positive, got {self.size_bits}")
        pop = np.asarray(self.popularity, dtype=np.float64)
        if pop.ndim != 1 or pop.size < 1:
            raise ValueError(f"popularity must be a non-empty 1-D vector, got shape {pop.shape}")
        if not np.all(pop > 0):
            raise ValueError("popularity entries must be strictly positive")
        if abs(pop.sum() - 1.0) > POPULARITY_SUM_TOL:
            raise ValueError(f"popularity must sum to 1, got {pop.sum()!r}")
        if np.any(np.diff(pop) > 0):
            raise ValueError("popularity must be non-increasing in rank")
        object.__setattr__(self, "popularity", pop)
        object.__setattr__(self, "n_contents", pop.size)
        cdf = np.cumsum(pop)
        cdf[-1] = 1.0  # every u < 1 then ranks at most n_contents, despite rounding
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "guide", guide_table(cdf))

    @classmethod
    def zipf(cls, n_contents: int, alpha: float, size_bits: float) -> "ContentCatalog":
        """Build a catalog whose popularity is ``zipf_popularity(n, alpha)``."""
        return cls(size_bits=size_bits, popularity=zipf_popularity(n_contents, alpha))

