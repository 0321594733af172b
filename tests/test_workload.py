from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecsched.catalog import CacheConfig, ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import run_simulation
from mecsched.workload import (
    WorkloadConfig,
    distinct_uncached_counts,
    sample_content_indices,
    sample_tasks,
    task_streams,
)


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


@pytest.fixture(scope="module")
def no_cache(catalog) -> CacheConfig:
    return CacheConfig.for_catalog(catalog, 0)


def _cfg(**kw) -> WorkloadConfig:
    base = dict(arrival_prob=0.4, k_min=40, k_max=60)
    base.update(kw)
    return WorkloadConfig(**base)


def test_config_validation() -> None:
    with pytest.raises(ValueError):
        _cfg(arrival_prob=1.5)
    with pytest.raises(ValueError):
        _cfg(arrival_prob=-0.1)
    with pytest.raises(ValueError):
        _cfg(k_min=0)
    with pytest.raises(ValueError):
        _cfg(k_min=10, k_max=9)


def test_streams_deterministic() -> None:
    a1, c1 = task_streams(7)
    a2, c2 = task_streams(7)
    assert np.array_equal(a1.random(100), a2.random(100))
    assert np.array_equal(c1.random(100), c2.random(100))


def test_streams_independent_of_each_other(catalog: ContentCatalog, no_cache) -> None:
    # Consuming different amounts of the arrival stream must not shift
    # the composition stream: the i-th task stays the same task.
    cfg = _cfg()
    a1, c1 = task_streams(3)
    a2, c2 = task_streams(3)
    a1.random(10)
    a2.random(500)
    t1 = sample_tasks(c1, catalog, cfg, 5, no_cache)
    t2 = sample_tasks(c2, catalog, cfg, 5, no_cache)
    for x, y in zip(t1, t2):
        assert np.array_equal(x, y)


def _arrivals(horizon: int, arrival_prob: float) -> int:
    config = ExperimentConfig(arrival_prob=arrival_prob, policy="mec_only").validate()
    return run_simulation(*build_system(config), horizon=horizon, seed=0).arrivals


def test_sample_arrival_is_bernoulli_like() -> None:
    # one Bernoulli draw per slot
    assert abs(_arrivals(20000, 0.4) / 20000 - 0.4) < 0.01


def test_sample_arrival_degenerate_rates() -> None:
    assert _arrivals(100, 0.0) == 0
    assert _arrivals(100, 1.0) == 100


def test_content_indices_in_range(catalog: ContentCatalog) -> None:
    rng = np.random.default_rng(5)
    idx = sample_content_indices(rng, catalog, 10000)
    assert idx.min() >= 1
    assert idx.max() <= 1000
    assert idx.dtype == np.int64


def test_content_indices_follow_popularity(catalog: ContentCatalog) -> None:
    rng = np.random.default_rng(11)
    idx = sample_content_indices(rng, catalog, 200000)
    freq1 = np.mean(idx == 1)
    assert freq1 == pytest.approx(catalog.popularity[0], rel=0.03)


def test_sample_task_shape(catalog: ContentCatalog, no_cache) -> None:
    cfg = _cfg()
    _, comp = task_streams(0)
    ks, distinct = sample_tasks(comp, catalog, cfg, 50, no_cache)
    assert ks.shape == distinct.shape == (50,)
    assert np.all((cfg.k_min <= ks) & (ks <= cfg.k_max))
    assert np.all((1 <= distinct) & (distinct <= ks))


def test_sample_task_frozen_stream(catalog: ContentCatalog, no_cache) -> None:
    # Regression pin: seed 0's first two tasks, so any accidental change
    # to stream consumption shows up.
    cfg = _cfg()
    _, comp = task_streams(0)
    ks, distinct = sample_tasks(comp, catalog, cfg, 2, no_cache)
    assert ks.tolist() == [53, 54]
    # the first task's contents are the k uniforms after its k draw
    _, comp = task_streams(0)
    comp.integers(cfg.k_min, cfg.k_max + 1)
    contents = sample_content_indices(comp, catalog, 53)
    assert contents[:6].tolist() == [12, 166, 51, 478, 375, 123]
    assert distinct[0] == np.unique(contents).size


def test_sample_tasks_match_one_task_at_a_time(catalog: ContentCatalog) -> None:
    # Chunked sampling consumes the stream exactly as drawing each task's
    # k, then its contents, one task at a time; 150 tasks span three chunks.
    cfg = _cfg(k_min=1, k_max=30)
    for capacity in (0, 50, 1000):
        cache = CacheConfig.for_catalog(catalog, capacity)
        ks, distinct = sample_tasks(task_streams(9)[1], catalog, cfg, 150, cache)
        rng = task_streams(9)[1]
        for k, count in zip(ks, distinct):
            assert k == rng.integers(cfg.k_min, cfg.k_max + 1)
            contents = sample_content_indices(rng, catalog, int(k))
            assert count == np.unique(contents[contents > capacity]).size


def test_distinct_uncached_counts_by_hand(catalog: ContentCatalog) -> None:
    cache = CacheConfig.for_catalog(catalog, 50)
    ranks = np.array([1, 51, 51, 52, 7, 50, 1000, 1000, 999])
    counts = distinct_uncached_counts(ranks, np.array([4, 0, 2, 3]), cache)
    assert counts.tolist() == [2, 0, 0, 2]


class _FixedUniforms:
    """Stands in for a generator whose next uniforms are known."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, k: int) -> np.ndarray:
        assert k == self.u.size
        return self.u


@pytest.mark.parametrize(
    "n, alpha", [(1, 0.0), (2, 0.0), (37, 1.3), (1000, 0.8), (1000, 5.0), (1000, 50.0), (5000, 1.2)]
)
def test_content_ranks_equal_binary_search(n: int, alpha: float) -> None:
    # The guide-table lookup must give the inverse-CDF rank for every
    # uniform, including those on or next to a cdf entry or a bucket edge.
    cat = ContentCatalog.zipf(n, alpha, 1.0)
    buckets = cat.guide.size
    cdf = cat.cdf
    u = np.concatenate([
        np.random.default_rng(n).random(200_000),
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 2.0),
        np.arange(buckets) / buckets,
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    u = u[u < 1.0]
    expected = np.searchsorted(cdf, u, side="right") + 1
    ranks = sample_content_indices(_FixedUniforms(u), cat, u.size)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, expected)


def _distinct_uncached_reference(ranks: np.ndarray, ks: np.ndarray, capacity: int) -> list[int]:
    bounds = np.concatenate([[0], np.cumsum(ks)])
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        task = ranks[lo:hi]
        out.append(np.unique(task[task > capacity]).size)
    return out


@st.composite
def _tasks(draw):
    n = draw(st.integers(1, 30))
    ks = draw(st.lists(st.integers(0, 12), max_size=20))
    ranks = draw(st.lists(st.integers(1, n), min_size=sum(ks), max_size=sum(ks)))
    capacity = draw(st.integers(0, n))
    return n, np.array(ranks, dtype=np.int64), np.array(ks, dtype=np.int64), capacity


@settings(max_examples=300, deadline=None)
@given(_tasks())
def test_distinct_uncached_counts_match_per_task_unique(tasks) -> None:
    n, ranks, ks, capacity = tasks
    cache = CacheConfig(capacity=capacity, n_contents=n)
    counts = distinct_uncached_counts(ranks, ks, cache)
    assert counts.tolist() == _distinct_uncached_reference(ranks, ks, capacity)
