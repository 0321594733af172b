from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from mecsched import _kernel
from mecsched.catalog import ContentCatalog, packed_guide, zipf_popularity
from mecsched.workload import WorkloadConfig, sample_tasks
from draw_paths import drawing_on, paths
from fixed_uniforms import distinct_uncached


def test_zipf_two_contents_alpha_one() -> None:
    p = zipf_popularity(2, 1.0)
    assert p == pytest.approx([2 / 3, 1 / 3])


def test_zipf_alpha_zero_is_uniform() -> None:
    p = zipf_popularity(5, 0.0)
    assert p == pytest.approx([0.2] * 5)


def test_zipf_single_content() -> None:
    assert zipf_popularity(1, 0.8) == pytest.approx([1.0])


def test_zipf_reference_point_matches_independent_sum() -> None:
    # Rank-1 probability is 1 / H where H = sum k^-0.8; fsum gives an
    # independently computed oracle.
    h = math.fsum(k**-0.8 for k in range(1, 1001))
    p = zipf_popularity(1000, 0.8)
    assert p[0] == pytest.approx(1.0 / h, rel=1e-12)
    assert p[0] == pytest.approx(0.0646420334375179, rel=1e-12)
    assert p[1] == pytest.approx(0.03712709873667007, rel=1e-12)


def test_zipf_normalised_and_sorted() -> None:
    p = zipf_popularity(1000, 0.8)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(p) <= 0)


def test_zipf_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        zipf_popularity(0, 0.8)
    with pytest.raises(ValueError):
        zipf_popularity(10, -0.1)


def test_catalog_constructor_validates_popularity() -> None:
    good = zipf_popularity(4, 1.0)
    assert ContentCatalog(size_bits=1e6, popularity=good).n_contents == 4
    for shape in ([], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            ContentCatalog(1e6, np.array(shape))
    with pytest.raises(ValueError):
        ContentCatalog(1e6, np.array([0.5, 0.3, 0.3, -0.1]))
    with pytest.raises(ValueError):
        # increasing order
        ContentCatalog(1e6, np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        ContentCatalog(0.0, good)


def test_catalog_cdf_ends_at_one() -> None:
    cat = ContentCatalog.zipf(1000, 0.8, 5e6)
    assert cat.cdf[-1] == 1.0
    assert np.all(np.diff(cat.cdf) > 0)
    assert cat.cdf[0] == pytest.approx(cat.popularity[0])


def test_packed_guide_holds_the_guide_table() -> None:
    # One content: four buckets (L = 2) of width W = 2**51 in m, each with
    # 0 entries below it and the edge 2**53 past it, so the offset field,
    # the top 51 bits, holds its cap W - 1; entry B holds the count 1.
    # The rank edges it was packed from come back with it.
    table, shift, edge = packed_guide(np.ones(1))
    assert (table.tolist(), shift, edge.tolist()) == ([(2**51 - 1) << 13] * 4 + [1], 62, [2**53])
    # The catalog's table: B is the least power of two >= 4n, below in the
    # low L + 10 bits counts the cdf entries <= j / B (those with ceil(cdf *
    # B) <= j), and the flag at bit L + 10 marks the wide buckets, which the
    # steep catalog has.
    for n, alpha in ((50, 3.0), (1000, 0.8)):
        cat = ContentCatalog.zipf(n, alpha, 1.0)
        buckets = 1 << (64 - cat.guide_shift)
        assert buckets // 2 < 4 * n <= buckets and cat.guide.dtype == np.uint64
        counts = np.cumsum(np.bincount(np.ceil(cat.cdf * buckets).astype(np.intp), minlength=buckets + 1))
        flag = np.uint64(1 << (74 - cat.guide_shift))
        assert np.array_equal(cat.guide & (flag - np.uint64(1)), counts)
        wide = (cat.guide[:-1] & flag) != 0
        assert np.array_equal(wide, np.diff(counts) > 1)
        assert wide.any() == (alpha == 3.0)


def _packer_cdfs() -> list[np.ndarray]:
    """Zipf cdfs from 1 to 100,000 contents at exponents 0 to 3; the
    estimate's k cdfs, equal steps divided by their last sum; and random
    cdfs with ties, leading zeros, entries on bucket edges and entries one
    ulp off them."""
    cdfs = [
        ContentCatalog.zipf(n, alpha, 1.0).cdf
        for n in (1, 2, 3, 7, 50, 100, 1000, 4096, 10_000, 100_000)
        for alpha in (0.0, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0)
    ]
    for m in (*range(1, 61), 1000, 7919):
        cdf = np.cumsum(np.full(m, 1.0 / m))
        cdfs.append(cdf / cdf[-1])
    rng = np.random.default_rng(31)
    for i in range(80):
        n = int(rng.integers(1, 3000))
        buckets = 1 << (4 * n - 1).bit_length()
        cdf = np.sort(rng.random(n))
        if i % 4 == 1:  # on bucket edges, with ties
            cdf = np.floor(cdf * buckets / 3) * 3 / buckets
        elif i % 4 == 2:  # one ulp off bucket edges
            cdf = np.nextafter(np.round(cdf * buckets) / buckets, i % 8 - 4.0)
        elif i % 4 == 3:  # leading zeros
            cdf[: n // 3] = 0.0
        cdf = np.sort(np.clip(cdf, 0.0, 1.0))
        cdf[-1] = 1.0
        cdfs.append(cdf)
    return cdfs


def test_compiled_packer_equals_numpy_bit_for_bit() -> None:
    # The kernel's two passes give the numpy body's table, shift and rank
    # edges on every cdf.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the kernel's packer is not built")
    cdfs = _packer_cdfs()
    assert len(cdfs) >= 200
    for cdf in cdfs:
        compiled = packed_guide(cdf)
        with mock.patch.object(_kernel, "lib", None):
            reference = packed_guide(cdf)
        assert compiled[1] == reference[1], cdf.size
        for got, want in ((compiled[0], reference[0]), (compiled[2], reference[2])):
            assert got.dtype == want.dtype == np.uint64 and np.array_equal(got, want), cdf.size


@pytest.mark.parametrize("lib", ["c", "python"])
def test_packer_refuses_what_a_lookup_cannot_rank(lib) -> None:
    # No entries, a last entry below 1, and a NaN, a negative, an entry
    # above 1 and a decreasing one, each named by its first index, on
    # either path.
    if lib == "c" and _kernel.lib is None:
        pytest.skip("no C compiler: the kernel's packer is not built")
    with mock.patch.object(_kernel, "lib", _kernel.lib if lib == "c" else None):
        for cdf in (np.empty(0), np.array([0.5, 1.0 - 2**-53])):
            with pytest.raises(ValueError, match="the last exactly 1"):
                packed_guide(cdf)
        for cdf, bad in (
            ([0.2, np.nan, 0.7, 1.0], "nan at index 1"),
            ([-0.1, 0.5, 1.0], "-0.1 at index 0"),
            ([0.2, 1.5, 1.0], "1.5 at index 1"),
            ([0.2, 0.6, 0.4, 1.0], "0.4 at index 2"),
        ):
            with pytest.raises(ValueError, match=f"non-decreasing cdf in \\[0, 1\\], got {bad}"):
                packed_guide(np.array(cdf))


def test_steep_large_catalog_cdf_stays_at_most_one() -> None:
    # Zipf at 100,000 contents and exponent 3 sums above 1 from rank 99,949
    # on; clamped, the cdf is non-decreasing and at most 1, its guide table
    # holds B + 1 entries, and every path draws the same tasks from it.
    cat = ContentCatalog.zipf(100_000, 3.0, 1.0)
    assert np.all(np.diff(cat.cdf) >= 0) and cat.cdf.max() == cat.cdf[-1] == 1.0
    assert cat.guide.size == (1 << (64 - cat.guide_shift)) + 1 == 2**19 + 1
    cfg = WorkloadConfig(0.4, 1, 300)
    for capacity in (0, 10):
        drawn = []
        for path in paths():
            with drawing_on(*path):
                drawn.append([a.tolist() for a in sample_tasks(np.random.default_rng(5), cat, cfg, 200, capacity)])
        assert drawn == [drawn[-1]] * len(drawn), capacity


def _missed(catalog: ContentCatalog, ranks, capacity: int) -> list[int]:
    # one single-content task per rank: 1 where the cache misses it
    return distinct_uncached(catalog, capacity, [[rank] for rank in ranks])


def test_is_cached_boundary() -> None:
    cat = ContentCatalog.zipf(100, 0.8, 1e6)
    assert _missed(cat, [1, 50, 51, 100], 50) == [0, 0, 1, 1]


def test_is_cached_empty_cache() -> None:
    cat = ContentCatalog.zipf(10, 0.0, 1e6)
    assert _missed(cat, range(1, 11), 0) == [1] * 10
