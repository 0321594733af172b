from __future__ import annotations

import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from mecsched import _kernel, analysis, workload
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
from kernel_extremes import Recording, estimate_in_parts


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
    # The compiled estimate reads two streams side by side: its k values,
    # through the k cdf's tables, and the contents, from the word after
    # the last k value's on; every word source gives the counts of the
    # Python definition, draw_ranks followed by draw_contents.  One-bit
    # contents on a half-bit-per-slot link with free compute make each
    # task's offload count 2k and its local count twice its distinct
    # uncached contents (at least 1), so a k of 0 shows too.  301 samples
    # run on one thread in one chunk (the tests below take the threads and
    # the chunks) and end inside a 256-word block of the k stream.
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


SPLIT_SAMPLES = (2, 3, 255, 256, 257, 301, 5000)


def _chunks(samples: int) -> list[int]:
    """Chunk sizes for ``samples``: one sample, around the 256-word blocks'
    first edge, half, all but one, and all of them."""
    return sorted({size for size in (1, 255, 256, 257, samples // 2, samples - 1, samples) if size > 0})


def test_estimate_in_parts_equals_one_whole_call(catalog, params) -> None:
    # Each chunk starts its k values at its first sample and its contents
    # past the k words and every earlier sample's contents, so any chunk
    # size on any number of threads gives the counts and the end state of
    # the Python reference, on every word source.
    ks = range(1, 41)
    for samples in SPLIT_SAMPLES:
        with drawing_on(None, None):
            expected = estimate_in_parts(catalog, 50, params, ks, samples, 9)
        for kernel, source in paths()[:-1]:
            with drawing_on(kernel, source):
                for chunk in _chunks(samples):
                    for threads in range(1, 5):
                        recording = Recording(kernel)
                        with mock.patch.object(_kernel, "lib", recording):
                            drawn = estimate_in_parts(catalog, 50, params, ks, samples, 9, chunk, threads)
                        assert recording.calls == [(chunk, threads)]
                        assert drawn == expected, (source, samples, chunk, threads)


def test_estimate_parts_follow_the_cpus_and_change_nothing() -> None:
    # One thread per CPU the process may run on, each with at least the
    # floor's samples, all started by the kernel's one call: no Python
    # thread starts, and every count gives the same counts and end state.
    # 50 uncached contents and 40-60 draws per task repeat ranks in every
    # task, so threads that shared a stamp would miscount; one-bit contents
    # on a half-bit-per-slot link make the local count twice the distinct
    # count.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    small = ContentCatalog.zipf(50, 1.0, 1.0)
    point = SystemParams(slot_seconds=1.0, cycles_per_bit=1.0, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=0.5)
    samples = 8 * workload._PART_FLOOR

    def no_thread(*args, **kwargs):
        raise AssertionError("the estimate started a Python thread")

    for kernel, source in paths()[:-1]:
        drawn = []
        for cpus in (1, 2, 3, 8):
            recording = Recording(kernel)
            with drawing_on(kernel, source), mock.patch.object(_kernel, "lib", recording), \
                    mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
                    mock.patch.object(threading.Thread, "start", no_thread):
                drawn.append(estimate_in_parts(small, 0, point, range(40, 61), samples, 4))
            assert recording.calls == [(workload._CHUNK, cpus)]
        assert drawn == [drawn[0]] * 4, source
    # Fewer samples than the floor per CPU: as many threads as the floor fills.
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(8)), create=True):
        assert [workload._parts(n * workload._PART_FLOOR - 1) for n in (1, 2, 3, 9)] == [1, 1, 2, 8]


@pytest.mark.parametrize("fail_at", [("before", 1), ("after", 1), ("after", 4)])
def test_a_failing_part_raises_in_the_caller_and_keeps_the_state(catalog, params, fail_at) -> None:
    # An estimate entry that raises, before it runs or after it has run on
    # one or several threads, makes the estimate raise, and the generator
    # keeps its state.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    fail, threads = fail_at
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    recording = Recording(_kernel.lib, fail)
    with mock.patch.object(_kernel, "lib", recording), mock.patch.object(np.random, "default_rng", lambda seed: rng), \
            mock.patch.object(workload, "_parts", lambda samples: threads):
        with pytest.raises(RuntimeError, match=f"estimate failed {fail} it ran"):
            sample_slot_counts(catalog, 50, params, range(40, 61), 300, 2)
    assert recording.calls == [(workload._CHUNK, threads)]
    assert rng.bit_generator.state == before


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


ORDER_LENGTHS = (*range(1, 10), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025, 50_000, 77_777)


def test_count_sums_follow_numpys_pairwise_order(catalog, params) -> None:
    # The compiled estimate sums its narrow counts itself, in numpy's
    # pairwise order: each mode's sum over samples is the counts' mean() and
    # its sum of squared deviations gives their std(ddof=1) / sqrt(samples),
    # bit for bit, at every storage width.  The lengths sit around the
    # eight-accumulator and 128-term leaves and the splits above them.
    # Counts are spread, all equal (one k, a cache of every content), or
    # single slots mixed with the 2**62 cap (a link of 1e-12 bit/s).
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    slower = SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e7, f_mec_hz=1e8, rate_bps=5e6)
    slowest = SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e4, f_mec_hz=1e5, rate_bps=5e3)
    capped = SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=1e-12)
    cases = [
        (point, capacity, ks, width)
        for point, width in ((params, 1), (slower, 2), (slowest, 8))
        for capacity, ks in ((50, range(40, 61)), (1000, range(60, 61)))
    ]
    cases.append((capped, 990, range(3, 67), 8))
    for point, capacity, ks, width in cases:
        for n in ORDER_LENGTHS:
            sums = np.empty(4)
            drawn = sample_slot_counts(catalog, capacity, point, ks, n, seed=n, sums=sums)
            for counts, (total, ssd) in zip(drawn, sums.reshape(2, 2).tolist()):
                case = (width, capacity, n)
                assert counts.itemsize == width, case
                counts = counts.astype(np.float64)
                assert total / n == counts.mean(), case
                assert ssd == np.add.reduce(np.square(counts - counts.mean())), case
                if n > 1:
                    assert analysis._standard_error(ssd, n) == counts.std(ddof=1) / math.sqrt(n), case
        # The longest draw's counts are spread, equal or mixed, as above.
        local, mec = (set(counts.tolist()) for counts in drawn)
        if len(ks) == 1:
            assert len(local) == len(mec) == 1, width
        elif point is capped:
            assert mec == {2**62} and min(local) == 1 and max(local) == 2**62
        else:
            assert len(local) > 1 and len(mec) > 1, width


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


def test_compiled_estimate_holds_each_count_at_its_narrowest_width(catalog, params) -> None:
    # At the defaults no count exceeds a byte, so the estimate grows by 2
    # bytes per sample; once a count can reach the 2**62 cap (a link of
    # 1e-12 bit/s), by 16.  The sums take no samples-long array.  A first
    # call takes the one-time allocations out of the measured ones.  Two
    # CPUs: both sample counts then run on two stamp rows, whatever the host.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    capped = SystemParams(slot_seconds=0.2, cycles_per_bit=1.0, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=1e-12)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True):
        for point, capacity, bytes_per_sample in ((params, 50, 2), (capped, 990, 16)):
            estimate_slot_means(catalog, capacity, point, range(40, 61), samples=100, seed=0)
            peaks = []
            for samples in (5_000, 10_000):
                tracemalloc.start()
                try:
                    estimate_slot_means(catalog, capacity, point, range(40, 61), samples=samples, seed=0)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] - peaks[0] <= bytes_per_sample * 5_000 + 4_096, bytes_per_sample


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

