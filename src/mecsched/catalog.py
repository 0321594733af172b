"""Content universe, Zipf popularity, and the most-popular-first cache.

Every task is assembled from a fixed universe of ``n_contents`` contents,
all of the same size in bits.  Content rank ``k`` is drawn with probability
``p[k-1]`` following a truncated Zipf law, so low ranks are the popular
ones.  The device cache pins the ``capacity`` most popular ranks, so the
integer ``capacity`` describes it and cache membership is a pure index
comparison.

Ranks are drawn by inversion: a uniform ``u`` in [0, 1) maps to one plus
the number of cumulative-popularity entries ``<= u``.  Beside the ``cdf``
the catalog keeps its rank table (:func:`packed_guide`): a guide table
(Chen & Asau, 1974) that answers this with one table read for almost
every ``u``, with the very same result as a binary search, and the rank
edges that let the compiled draw compare numpy's raw 64-bit words in
place of the uniforms made of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernel

__all__ = ["ContentCatalog", "MAX_CONTENTS", "packed_guide", "zipf_popularity"]

# Popularity vectors must be normalised at least this well.
POPULARITY_SUM_TOL = 1e-12
# The most cdf entries, and so contents, packed_guide builds a rank table for.
MAX_CONTENTS = 2**31 - 1


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


def packed_guide(cdf: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """The rank table of ``cdf``: a guide table (Chen & Asau, 1974) packed
    one uint64 per bucket, its bucket shift, and ``cdf``'s rank edges.

    ``cdf`` is non-decreasing in [0, 1], with 1 to ``MAX_CONTENTS`` entries
    and last entry exactly 1, which keeps every lookup of a ``u`` in [0, 1) in
    bounds.  The table splits [0, 1) into ``B = 2**L`` equal buckets, B the
    smallest power of two ``>= 4 * cdf.size``; the shift is ``64 - L``, so
    a raw 64-bit word ``w``'s bucket ``j`` is ``w >> shift``.  Entry ``j``'s
    count ``below`` is the number of ``cdf`` entries ``<= j / B``, so the
    number of entries ``<= u`` for a ``u`` in bucket ``j`` lies between
    ``below`` and the next entry's.  The edges are ``ceil(cdf * 2**53)``:
    numpy makes each uniform of ``w`` as ``u = (w >> 11) * 2**-53``, so
    ``cdf[i] <= u`` holds exactly when ``edge[i] <= m = w >> 11`` (scaling
    by a power of two is exact), and an entry of exactly 1 becomes
    ``2**53``, above every ``m``.

    Bucket ``j`` holds the ``m`` from ``j * W`` to ``(j + 1) * W - 1``,
    ``W = 2**(shift - 11)``.  Its entry holds ``below`` in its low ``L +
    10`` bits; at bit ``L + 10``, a flag set when the next entry's count
    exceeds ``below`` by more than 1 (a wide bucket); and in its top ``shift
    - 11`` bits, ``edge[below] - j * W - 1`` capped at ``W - 1``.  ``w <<
    L`` holds ``m``'s own offset ``m - j * W`` in those top bits, so in a
    narrow bucket ``w``'s rank is ``below``, plus 1 when the entry with its
    low ``L + 11`` bits set is below ``w << L``; a wide one binary-searches
    ``edge`` between ``below`` and the next entry's.  Entry ``B`` holds
    only ``below``, the ``cdf``'s size.  The fields fit: ``below <= cdf.size
    <= B / 4``, and ``edge[below] > j * W``.  The table costs 8 bytes per
    bucket.

    A ``cdf`` of the wrong size or whose last entry is not 1 is refused
    with a ``ValueError``, and so is one with an entry that is NaN, outside
    [0, 1] or below the one before it, naming the first.  The kernel
    (``mecsched_pack_guide``) builds the same tables in two passes, one
    over ``cdf`` and one over the buckets, in place of the numpy
    operations below, which run without it: those fault in code pages of
    numpy that nothing else a command runs touches, so they cost resident
    memory as well as time.
    """
    if not (0 < cdf.size <= MAX_CONTENTS and cdf[-1] == 1.0):
        raise ValueError(f"a guide table needs 1 to {MAX_CONTENTS} cdf entries, the last exactly 1, got {cdf[-1:]!r}")
    shift = 64 - (4 * cdf.size - 1).bit_length()
    buckets = 1 << (64 - shift)
    lib = _kernel.lib
    if lib is not None:
        packed = np.empty(buckets + 1, dtype=np.uint64)
        edge = np.empty(cdf.size, dtype=np.uint64)
        refused = lib.mecsched_pack_guide(cdf, cdf.size, shift, packed, edge)
        if refused >= 0:
            raise _unordered(cdf, refused)
        return packed, shift, edge
    unordered = np.flatnonzero(~(np.diff(cdf, prepend=0.0) >= 0) | ~(cdf <= 1.0))
    if unordered.size:
        raise _unordered(cdf, int(unordered[0]))
    # An entry c is <= j / B exactly when ceil(c * B) <= j.
    counts = np.bincount(np.ceil(cdf * buckets).astype(np.intp), minlength=buckets + 1)
    packed = np.cumsum(counts, dtype=np.uint64)
    width = np.uint64(1 << (shift - 11))
    in_bucket = counts[1:]  # bucket j's entries, those in (j / B, (j + 1) / B]
    # below <= cdf.size - 1 in buckets j < B: the last entry, exactly 1, is
    # above j / B.  Bucket j holds edge[below] when in_bucket[j] > 0, and
    # then edge[below] - 1 - j * W is its low bits.
    edge = np.ceil(cdf * 2.0**53).astype(np.uint64)
    offset = edge[packed[:-1]]
    offset -= np.uint64(1)
    offset &= width - np.uint64(1)
    offset[in_bucket == 0] = width - np.uint64(1)
    packed[:-1][in_bucket > 1] |= np.uint64(1 << (74 - shift))
    packed[:-1] |= offset << np.uint64(75 - shift)
    return packed, shift, edge


def _unordered(cdf: np.ndarray, index: int) -> ValueError:
    return ValueError(
        f"a packed guide table needs a non-decreasing cdf in [0, 1], got {float(cdf[index])!r} at index {index}"
    )


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
    exactly 1), and ``guide``, ``guide_shift`` and ``edge`` its
    :func:`packed_guide`: what the compiled draw ranks through.
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
        # The sum may round above 1 before its last entry (Zipf at n =
        # 100000, alpha 3 has 51 such entries); clamped, the cdf stays
        # non-decreasing and every u < 1 keeps its rank, at most n_contents.
        cdf = np.minimum(np.cumsum(pop), 1.0)
        cdf[-1] = 1.0
        object.__setattr__(self, "cdf", cdf)
        guide, guide_shift, edge = packed_guide(cdf)
        object.__setattr__(self, "guide", guide)
        object.__setattr__(self, "guide_shift", guide_shift)
        object.__setattr__(self, "edge", edge)

    @classmethod
    def zipf(cls, n_contents: int, alpha: float, size_bits: float) -> "ContentCatalog":
        """Build a catalog whose popularity is ``zipf_popularity(n, alpha)``."""
        return cls(size_bits=size_bits, popularity=zipf_popularity(n_contents, alpha))

