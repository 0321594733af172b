from __future__ import annotations

import math

import numpy as np
import pytest

from mecsched.catalog import ContentCatalog, guide_table, packed_guide, zipf_popularity
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


def test_guide_table_refuses_a_cdf_a_lookup_could_run_past() -> None:
    # A lookup stays in bounds only when the last entry is exactly 1.
    # Four buckets: a word's top two bits pick its bucket.
    table, shift = guide_table(np.ones(1))
    assert (table.tolist(), shift) == ([0, 0, 0, 0, 1], 62)
    for cdf in (np.empty(0), np.array([0.5, 1.0 - 2**-53])):
        with pytest.raises(ValueError, match="the last exactly 1"):
            guide_table(cdf)


def test_packed_guide_holds_the_guide_table() -> None:
    # One content: four buckets (L = 2) of width W = 2**51 in m, each with
    # 0 entries below it and the edge 2**53 past it, so the offset field,
    # the top 51 bits, holds its cap W - 1; entry B holds the count 1.
    # The rank edges it was packed from come back with it.
    table, shift, edge = packed_guide(np.ones(1))
    assert (table.tolist(), shift, edge.tolist()) == ([(2**51 - 1) << 13] * 4 + [1], 62, [2**53])
    # The catalog's table: below in the low L + 10 bits equals guide_table's
    # counts, and the flag at bit L + 10 marks the wide buckets, which the
    # steep catalog has.
    for n, alpha in ((50, 3.0), (1000, 0.8)):
        cat = ContentCatalog.zipf(n, alpha, 1.0)
        counts, count_shift = guide_table(cat.cdf)
        assert cat.guide_shift == count_shift and cat.guide.dtype == np.uint64
        flag = np.uint64(1 << (74 - cat.guide_shift))
        assert np.array_equal(cat.guide & (flag - np.uint64(1)), counts)
        wide = (cat.guide[:-1] & flag) != 0
        assert np.array_equal(wide, np.diff(counts) > 1)
        assert wide.any() == (alpha == 3.0)


def _missed(catalog: ContentCatalog, ranks, capacity: int) -> list[int]:
    # one single-content task per rank: 1 where the cache misses it
    return distinct_uncached(catalog, capacity, [[rank] for rank in ranks])


def test_is_cached_boundary() -> None:
    cat = ContentCatalog.zipf(100, 0.8, 1e6)
    assert _missed(cat, [1, 50, 51, 100], 50) == [0, 0, 1, 1]


def test_is_cached_empty_cache() -> None:
    cat = ContentCatalog.zipf(10, 0.0, 1e6)
    assert _missed(cat, range(1, 11), 0) == [1] * 10
