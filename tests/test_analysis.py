from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mecsched import _kernel, analysis
from mecsched.analysis import (
    REGIME_INFEASIBLE,
    REGIME_LOCAL_ONLY,
    REGIME_MIXED,
    estimate_slot_means,
    expected_local_bits,
    expected_mec_bits,
    optimal_average_data,
    optimality_gap_bound,
    uniform_k_dist,
)
from mecsched.catalog import ContentCatalog
from mecsched.dynamics import SystemParams, slots_local, slots_mec, task_bits
from mecsched.errors import ConfigError
from mecsched.workload import draw_contents, draw_ranks, sample_slot_counts
from draw_paths import drawing_on, paths


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


@pytest.fixture(scope="module")
def params() -> SystemParams:
    return SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=5e8)


def test_uniform_k_dist_shape() -> None:
    assert uniform_k_dist(40, 60) == range(40, 61)
    assert uniform_k_dist(3, 3) == range(3, 4)
    with pytest.raises(ValueError):
        uniform_k_dist(0, 5)
    with pytest.raises(ValueError):
        uniform_k_dist(5, 3)


def test_k_dist_checks_apply(catalog, params) -> None:
    # Only a non-empty step-1 range from 1 up is taken; a dict fails loudly
    # rather than being read as its keys.
    for ks in (range(3, 3), range(0, 4), range(2, 8, 2), {2: 0.5, 6: 0.5}):
        with pytest.raises(ValueError, match="contents-per-task counts"):
            expected_mec_bits(5e6, ks)
        with pytest.raises(ValueError, match="contents-per-task counts"):
            expected_local_bits(5e6, catalog.popularity, 50, ks)
        with pytest.raises(ValueError, match="contents-per-task counts"):
            estimate_slot_means(catalog, 50, params, ks, samples=2)


def test_offloaded_bits_mean() -> None:
    assert expected_mec_bits(5e6, uniform_k_dist(40, 60)) == pytest.approx(250e6, rel=1e-12)
    assert expected_mec_bits(5e6, range(4, 5)) == 20e6


def test_local_bits_tiny_catalog_by_hand() -> None:
    # ten equally popular contents, no cache, tasks of 3 draws:
    # expected distinct = 10 * (1 - 0.9**3)
    pop = np.full(10, 0.1)
    value = expected_local_bits(1.0, pop, 0, range(3, 4))
    assert value == pytest.approx(10 * (1 - 0.9**3), rel=1e-12)


def test_local_bits_full_cache_is_zero(catalog) -> None:
    assert expected_local_bits(5e6, catalog.popularity, 1000, uniform_k_dist(40, 60)) == 0.0


def test_local_bits_decrease_with_capacity(catalog) -> None:
    dist = uniform_k_dist(40, 60)
    values = [
        expected_local_bits(5e6, catalog.popularity, m, dist) for m in (0, 10, 50, 200, 1000)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] < expected_mec_bits(5e6, dist)


def test_local_bits_frozen_values(catalog) -> None:
    dist = uniform_k_dist(40, 60)
    at_50 = expected_local_bits(5e6, catalog.popularity, 50, dist)
    at_0 = expected_local_bits(5e6, catalog.popularity, 0, dist)
    assert at_50 == pytest.approx(141316292.35635206, rel=1e-12)
    assert at_0 == pytest.approx(213768595.98097387, rel=1e-12)


def _local_bits_in_one_table(size_bits, popularity, capacity, ks) -> float:
    # expected_local_bits as one (uncached contents x span) table.
    miss = 1.0 - popularity[capacity:]
    distinct = (1.0 - np.power.outer(miss, np.arange(ks.start, ks.stop, dtype=np.float64))).sum(axis=0)
    return size_bits * float(np.dot(np.full(len(ks), 1.0 / len(ks)), distinct))


@pytest.mark.parametrize("block", [2, 3, 7, None])
def test_local_bits_blocks_keep_the_bits(catalog, block, monkeypatch) -> None:
    # Blocks of 2, 3 and 7 columns, and the default: spans of one k, of a
    # block and one column more, of a trailing one-column remainder
    # (span % block == 1) and of thousands of k, on the default and on a
    # steep 50-content catalog.
    steep = ContentCatalog.zipf(50, 3.0, 5e6)
    for popularity, capacity in ((catalog.popularity, 50), (catalog.popularity, 0), (steep.popularity, 0)):
        uncached = popularity.size - capacity
        if block is not None:
            monkeypatch.setattr(analysis, "_TABLE_ENTRIES", block * uncached)
        width = block or analysis._TABLE_ENTRIES // uncached
        for span in (1, 2, width, width + 1, width + 2, 2 * width + 1, 3 * width + 1, 3000):
            for start in (1, 40):
                ks = range(start, start + span)
                expected = _local_bits_in_one_table(5e6, popularity, capacity, ks)
                assert expected_local_bits(5e6, popularity, capacity, ks) == expected, (capacity, span, start)


def test_local_bits_memory_stays_bounded(catalog) -> None:
    # 950 uncached contents x 3000 values of k: the whole power table and
    # its complement would take 2 x 22.8 MB; two blocks take about 4.2 MB.
    tracemalloc.start()
    try:
        expected_local_bits(5e6, catalog.popularity, 50, range(1, 3001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * analysis._TABLE_ENTRIES + (1 << 20)


def test_local_bits_capacity_bounds(catalog) -> None:
    with pytest.raises(ConfigError, match="cache capacity must lie in 0..1000, got -1"):
        expected_local_bits(5e6, catalog.popularity, -1, range(3, 4))
    with pytest.raises(ConfigError, match="cache capacity must lie in 0..1000, got 1001"):
        expected_local_bits(5e6, catalog.popularity, 1001, range(3, 4))


def test_estimate_refuses_a_capacity_before_drawing(catalog, params, monkeypatch) -> None:
    # The capacity is refused before the estimate makes its generator, on
    # every path.
    def no_draw(*args):
        raise AssertionError("the draw started")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    n = catalog.n_contents
    for path in paths():
        with drawing_on(*path):
            with pytest.raises(ConfigError, match=f"cache capacity must lie in 0..{n}, got {n + 1}"):
                estimate_slot_means(catalog, n + 1, params, range(40, 61), samples=100)


def test_slot_mean_estimate_frozen(catalog, params) -> None:
    est = estimate_slot_means(catalog, 50, params, uniform_k_dist(40, 60), samples=2000, seed=0)
    assert est.samples == 2000
    assert est.local_mean == pytest.approx(3.176, abs=1e-12)
    assert est.mec_mean == pytest.approx(3.1415, abs=1e-12)
    assert est.local_se == pytest.approx(0.009594687541265074, rel=1e-12)
    assert est.mec_se == pytest.approx(0.007795464041980754, rel=1e-12)


def test_slot_mean_estimate_deterministic(catalog, params) -> None:
    dist = uniform_k_dist(40, 60)
    a = estimate_slot_means(catalog, 50, params, dist, samples=500, seed=3)
    b = estimate_slot_means(catalog, 50, params, dist, samples=500, seed=3)
    assert a == b
    c = estimate_slot_means(catalog, 50, params, dist, samples=500, seed=4)
    assert c != a
    with pytest.raises(ValueError):
        estimate_slot_means(catalog, 50, params, dist, samples=1)


K_SPANS = [(1, 1), (1, 2), (40, 60), (3, 66), (1, 1000), (7, 7919)]


@pytest.mark.parametrize("k_min, k_max", K_SPANS)
def test_k_draw_equals_generator_choice(k_min, k_max) -> None:
    # The estimate ranks its k uniforms as Generator.choice(ks, p=equal
    # probabilities) does: random(n) against cumsum(p) / its last entry.
    # draw_ranks gives choice's values and leaves the generator as it does.
    ks = np.arange(k_min, k_max + 1, dtype=np.int64)
    p = np.full(ks.size, 1.0 / ks.size)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    for seed in (0, 1, 11, 2024):
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = k_min + draw_ranks(fast, cdf, 5000)
        assert drawn.tolist() == reference.choice(ks, size=5000, p=p).tolist()
        assert fast.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("k_min, k_max", K_SPANS)
def test_slot_counts_equal_on_every_path(k_min, k_max) -> None:
    # The compiled estimate draws its k values itself, through the k cdf's
    # tables, then the contents; every word source gives the counts of the
    # Python definition, draw_ranks followed by draw_contents.  One-bit
    # contents on a half-bit-per-slot link with free compute make each
    # task's offload count 2k and its local count twice its distinct
    # uncached contents (at least 1), so a k of 0 shows too.  301 samples
    # leave a partial block between the two phases.
    point = SystemParams(slot_seconds=1.0, cycles_per_bit=1.0, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=0.5)
    for n, alpha in ((1000, 0.8), (50, 3.0), (1, 0.0)):
        catalog = ContentCatalog.zipf(n, alpha, 1.0)
        for capacity in sorted({0, min(5, n), n}):
            counts = []
            for path in paths():
                with drawing_on(*path):
                    drawn = sample_slot_counts(catalog, capacity, point, range(k_min, k_max + 1), 301, seed=3)
                counts.append([a.tolist() for a in drawn])
            assert counts == [counts[-1]] * len(counts), (n, capacity)
            assert set(counts[-1][1]) <= {2.0 * k for k in range(k_min, k_max + 1)}


def test_slot_mean_estimate_same_on_both_paths(catalog, params) -> None:
    estimates = []
    for path in paths():
        with drawing_on(*path):
            estimates.append(estimate_slot_means(catalog, 50, params, range(3, 67), samples=3000, seed=5))
    assert estimates == [estimates[-1]] * len(estimates)


def test_slot_mean_standard_errors_are_numpys_std(catalog, params) -> None:
    # The standard errors equal std(ddof=1) / sqrt(samples) bit for bit, on
    # counts drawn as the estimate defines them: spread ones, all equal
    # ones, and ones that mix single slots with the 2**62 cap.
    ks = range(3, 67)
    slow = SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=1e-12)
    for capacity, point in ((50, params), (0, params), (1000, slow), (990, slow)):
        rng = np.random.default_rng(7)
        cdf = np.cumsum(np.full(len(ks), 1.0 / len(ks)))
        cdf /= cdf[-1]
        drawn = draw_ranks(rng, cdf, 3001) + ks.start
        local_bits, mec_bits = task_bits(catalog, drawn, draw_contents(rng, catalog, drawn, capacity))
        expected = [
            float(counts.std(ddof=1) / math.sqrt(counts.size))
            for counts in (slots_local(mec_bits, local_bits, point).astype(np.float64),
                           slots_mec(mec_bits, point).astype(np.float64))
        ]
        for path in paths():
            with drawing_on(*path):
                est = estimate_slot_means(catalog, capacity, point, ks, samples=3001, seed=7)
            assert [est.local_se, est.mec_se] == expected, (capacity, path)


@pytest.mark.parametrize("loop", ["c", "python"])
def test_slot_mean_estimate_holds_24_bytes_per_sample(catalog, params, loop) -> None:
    # The k values and the two count arrays; the standard errors take no
    # samples-long temporary.
    if loop == "c" and _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    lib = _kernel.lib if loop == "c" else None
    peaks = []
    with mock.patch.object(_kernel, "lib", lib):
        for samples in (5_000, 10_000):
            tracemalloc.start()
            try:
                estimate_slot_means(catalog, 50, params, range(40, 61), samples=samples, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 24 * 5_000 + 32_768


def test_compiled_estimate_holds_16_bytes_per_sample(catalog, params) -> None:
    # Only the two count arrays: the kernel reads each sample's k from the
    # stream as it counts the sample's contents, and stores no k value.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    peaks = []
    for samples in (5_000, 10_000):
        tracemalloc.start()
        try:
            estimate_slot_means(catalog, 50, params, range(40, 61), samples=samples, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 16 * 5_000 + 32_768


def test_slot_means_near_simulated_defaults(catalog, params) -> None:
    est = estimate_slot_means(catalog, 50, params, uniform_k_dist(40, 60), samples=4000, seed=1)
    assert est.local_mean == pytest.approx(3.17, abs=0.05)
    assert est.mec_mean == pytest.approx(3.14, abs=0.05)


def test_regime_local_capacity_sufficient() -> None:
    report = optimal_average_data(2.0, 3.0, 0.4, 100.0, 40.0)
    assert report.regime == REGIME_LOCAL_ONLY
    assert report.optimal_bits == 40.0


def test_regime_local_boundary_counts_as_local() -> None:
    report = optimal_average_data(2.5, 3.0, 0.4, 100.0, 40.0)
    assert report.regime == REGIME_LOCAL_ONLY
    assert report.optimal_bits == 40.0


def test_regime_mixed_by_hand() -> None:
    # local share 1/(0.8 * 2) = 0.625: 100 - 0.625 * 60 = 62.5
    report = optimal_average_data(2.0, 2.0, 0.8, 100.0, 40.0)
    assert report.regime == REGIME_MIXED
    assert report.optimal_bits == pytest.approx(62.5, rel=1e-12)


def test_regime_mixed_boundary_still_feasible() -> None:
    # 1/4 + 1/4 equals the arrival rate exactly
    report = optimal_average_data(4.0, 4.0, 0.5, 100.0, 40.0)
    assert report.regime == REGIME_MIXED
    # local share 1/2: halfway between the two means
    assert report.optimal_bits == pytest.approx(70.0, rel=1e-12)


def test_regime_mixed_continuous_at_local_boundary() -> None:
    # just past full local coverage the mixed value sits at the local mean
    eps = 1e-9
    report = optimal_average_data(2.5 + eps, 3.0, 0.4, 100.0, 40.0)
    assert report.regime == REGIME_MIXED
    assert report.optimal_bits == pytest.approx(40.0, abs=1e-5)


def test_regime_infeasible() -> None:
    report = optimal_average_data(4.0, 4.0, 0.8, 100.0, 40.0)
    assert report.regime == REGIME_INFEASIBLE
    assert report.optimal_bits is None


def test_regime_validation() -> None:
    with pytest.raises(ValueError):
        optimal_average_data(0.5, 3.0, 0.4, 100.0, 40.0)
    with pytest.raises(ValueError):
        optimal_average_data(2.0, 0.0, 0.4, 100.0, 40.0)
    with pytest.raises(ValueError):
        optimal_average_data(2.0, 3.0, 0.0, 100.0, 40.0)
    with pytest.raises(ValueError):
        optimal_average_data(2.0, 3.0, 1.5, 100.0, 40.0)
    with pytest.raises(ValueError):
        optimal_average_data(2.0, 3.0, 0.4, -1.0, 40.0)


def test_gap_bound_values() -> None:
    assert optimality_gap_bound(1.0) == 2.5
    assert optimality_gap_bound(1e-6) == 2.5e6
    assert optimality_gap_bound(0.0) == math.inf
    with pytest.raises(ValueError):
        optimality_gap_bound(-1e-9)


def test_gap_bound_shrinks_with_weight() -> None:
    values = [optimality_gap_bound(v) for v in (1e-9, 1e-8, 1e-7, 1e-6)]
    assert all(a > b for a, b in zip(values, values[1:]))

