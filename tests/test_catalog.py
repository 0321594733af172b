from __future__ import annotations

import math

import numpy as np
import pytest

from mecsched.catalog import CacheConfig, ContentCatalog, zipf_popularity
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
    ContentCatalog(n_contents=4, size_bits=1e6, popularity=good)
    with pytest.raises(ValueError):
        ContentCatalog(n_contents=3, size_bits=1e6, popularity=good)
    with pytest.raises(ValueError):
        ContentCatalog(4, 1e6, np.array([0.5, 0.3, 0.3, -0.1]))
    with pytest.raises(ValueError):
        # increasing order
        ContentCatalog(4, 1e6, np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        ContentCatalog(4, 0.0, good)


def test_catalog_cdf_ends_at_one() -> None:
    cat = ContentCatalog.zipf(1000, 0.8, 5e6)
    assert cat.cdf[-1] == 1.0
    assert np.all(np.diff(cat.cdf) > 0)
    assert cat.cdf[0] == pytest.approx(cat.popularity[0])


def test_cache_capacity_bounds() -> None:
    cat = ContentCatalog.zipf(10, 0.8, 1e6)
    CacheConfig.for_catalog(cat, 0)
    CacheConfig.for_catalog(cat, 10)
    with pytest.raises(ValueError):
        CacheConfig.for_catalog(cat, 11)
    with pytest.raises(ValueError):
        CacheConfig.for_catalog(cat, -1)


def _missed(catalog: ContentCatalog, ranks, cache: CacheConfig) -> list[int]:
    # one single-content task per rank: 1 where the cache misses it
    return distinct_uncached(catalog, cache, [[rank] for rank in ranks])


def test_is_cached_boundary() -> None:
    cat = ContentCatalog.zipf(100, 0.8, 1e6)
    cache = CacheConfig.for_catalog(cat, 50)
    assert _missed(cat, [1, 50, 51, 100], cache) == [0, 0, 1, 1]


def test_is_cached_empty_cache() -> None:
    cat = ContentCatalog.zipf(10, 0.0, 1e6)
    cache = CacheConfig.for_catalog(cat, 0)
    assert _missed(cat, range(1, 11), cache) == [1] * 10
