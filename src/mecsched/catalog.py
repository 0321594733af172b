"""Content universe, Zipf popularity, and the most-popular-first cache.

Every task is assembled from a fixed universe of ``n_contents`` contents,
all of the same size in bits.  Content rank ``k`` is drawn with probability
``p[k-1]`` following a truncated Zipf law, so low ranks are the popular
ones.  The device cache pins the ``capacity`` most popular ranks, so the
integer ``capacity`` describes it and cache membership is a pure index
comparison.

Ranks are drawn by inversion: a uniform ``u`` in [0, 1) maps to one plus
the number of cumulative-popularity entries ``<= u``.  Beside the ``cdf``
the catalog keeps the ``cdf``'s :func:`rank_edges`, which let the
compiled draw compare numpy's raw 64-bit words in place of the uniforms
made of them, and a guide table (Chen & Asau, 1974, see
:func:`guide_table`) packed with them (:func:`packed_guide`), which
answers this with one table read for almost every ``u``, with the very
same result as a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ContentCatalog", "guide_table", "packed_guide", "rank_edges", "zipf_popularity"]

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


def guide_table(cdf: np.ndarray) -> tuple[np.ndarray, int]:
    """Guide table and bucket shift for ranking uniforms against ``cdf`` (Chen & Asau, 1974).

    ``cdf`` is non-decreasing, with 1 to 2**31 - 1 entries (so that the
    table's entries fit int32) and last entry exactly 1, which keeps every
    lookup of a ``u`` in [0, 1) in bounds.  The table splits
    [0, 1) into B equal buckets, B the smallest power of two ``>= 4 *
    cdf.size``, and has B + 1 int32 entries: entry ``j`` is the number of
    ``cdf`` entries ``<= j / B``.  For ``u`` in bucket ``j`` the number of
    entries ``<= u`` therefore lies between entries ``j`` and ``j + 1``; in
    a bucket where the two differ by at most one, one comparison with
    ``cdf[table[j]]`` finishes the count, and a wider one needs a binary
    search between them.  The table costs 4 bytes per bucket.  A raw 64-bit
    word's bucket is the word shifted right by the shift, ``64 - log2(B)``.
    """
    if not (0 < cdf.size < 2**31 and cdf[-1] == 1.0):
        raise ValueError(f"a guide table needs 1 to 2**31 - 1 cdf entries, the last exactly 1, got {cdf[-1:]!r}")
    # An entry c is <= j / B exactly when ceil(c * B) <= j; scaling by a
    # power of two is exact, so the bucket counts have no rounding error.
    log2_buckets = (4 * cdf.size - 1).bit_length()
    buckets = 1 << log2_buckets
    per_bucket = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    return np.cumsum(per_bucket, dtype=np.int32), 64 - log2_buckets


def rank_edges(cdf: np.ndarray) -> np.ndarray:
    """``ceil(cdf * 2**53)`` as uint64: the integer form of ``cdf``.

    numpy makes each uniform of a 64-bit word ``w`` as ``u = (w >> 11) *
    2**-53``, so ``cdf[i] <= u`` holds exactly when ``edge[i] <= w >> 11``:
    scaling by a power of two is exact, and ``w >> 11`` is an integer.  An
    entry of exactly 1 becomes ``2**53``, above every ``w >> 11``.
    """
    return np.ceil(cdf * 2.0**53).astype(np.uint64)


def packed_guide(cdf: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """:func:`guide_table` for ``cdf``, each entry packed with what its
    bucket's lookup compares into one uint64; the bucket shift; and the
    :func:`rank_edges` of ``cdf``, which the lookup reads beside the table.

    With ``B = 2**L`` buckets, ``L = 64 - shift``, bucket ``j`` of a word
    ``w`` is ``w >> shift`` and holds the ``m = w >> 11`` from ``j * W`` to
    ``(j + 1) * W - 1``, ``W = 2**(shift - 11)``.  Its entry holds, in its
    low ``L + 10`` bits, ``below = table[j]``, the number of ``cdf`` entries
    ``<= j / B``; at bit ``L + 10``, a flag set when ``table[j + 1] - below
    > 1`` (a wide bucket); and in its top ``shift - 11`` bits, ``edge[below]
    - j * W - 1`` capped at ``W - 1``, ``edge`` being :func:`rank_edges`.
    ``w << L`` holds ``m``'s own offset ``m - j * W`` in those top bits, so
    in a narrow bucket ``w``'s rank is ``below``, plus 1 when the entry with
    its low ``L + 11`` bits set is below ``w << L``; a wide one
    binary-searches ``edge`` between ``below`` and the next entry's.  Entry
    ``B`` holds only ``below``, the ``cdf``'s size.  The fields fit: ``below
    <= cdf.size <= B / 4``, and ``edge[below] > j * W``.  The table costs 8
    bytes per bucket.
    """
    table, shift = guide_table(cdf)
    width = np.uint64(1 << (shift - 11))
    in_bucket = np.diff(table)
    # below <= cdf.size - 1 in buckets j < B: the last entry, exactly 1, is
    # above j / B.  Bucket j holds edge[below] when in_bucket[j] > 0, and
    # then edge[below] - 1 - j * W is its low bits.
    edge = rank_edges(cdf)
    offset = edge[table[:-1]]
    offset -= np.uint64(1)
    offset &= width - np.uint64(1)
    offset[in_bucket == 0] = width - np.uint64(1)
    packed = table.astype(np.uint64)
    packed[:-1][in_bucket > 1] |= np.uint64(1 << (74 - shift))
    packed[:-1] |= offset << np.uint64(75 - shift)
    return packed, shift, edge


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
    exactly 1), ``guide`` and ``guide_shift`` its :func:`packed_guide`, and
    ``edge`` its :func:`rank_edges`: what the compiled draw ranks through.
    """

    size_bits: float
    popularity: np.ndarray
    n_contents: int = field(init=False)
    cdf: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)
    guide_shift: int = field(init=False, repr=False)
    edge: np.ndarray = field(init=False, repr=False)

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
        guide, guide_shift, edge = packed_guide(cdf)
        object.__setattr__(self, "guide", guide)
        object.__setattr__(self, "guide_shift", guide_shift)
        object.__setattr__(self, "edge", edge)

    @classmethod
    def zipf(cls, n_contents: int, alpha: float, size_bits: float) -> "ContentCatalog":
        """Build a catalog whose popularity is ``zipf_popularity(n, alpha)``."""
        return cls(size_bits=size_bits, popularity=zipf_popularity(n_contents, alpha))

