from __future__ import annotations

import math

import numpy as np
import pytest

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
from mecsched.dynamics import SystemParams


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


def test_local_bits_capacity_bounds(catalog) -> None:
    with pytest.raises(ValueError):
        expected_local_bits(5e6, catalog.popularity, -1, range(3, 4))
    with pytest.raises(ValueError):
        expected_local_bits(5e6, catalog.popularity, 1001, range(3, 4))


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

