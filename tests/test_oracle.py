"""Differential test: the task-table engine against the frozen object-per-task
engine in ``tests/oracle``.  Every ``RunMetrics`` field, arrays included and
in order, must come out identical."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecsched import _kernel
from mecsched.catalog import ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import SystemParams
from mecsched.engine import RunMetrics, run_simulation
from mecsched.policy import POLICY_KINDS, PolicySpec
from mecsched.workload import WorkloadConfig, draw_tasks
from oracle.engine import RunMetrics as OracleRunMetrics
from oracle.engine import run_simulation as oracle_run_simulation


def _assert_identical(new: RunMetrics, old) -> None:
    names = [f.name for f in dataclasses.fields(RunMetrics)]
    assert names == [f.name for f in dataclasses.fields(OracleRunMetrics)]
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        else:
            assert type(a) is type(b), name
            assert a == b, name


def _both(catalog, capacity, params, workload_cfg, policy, horizon, seed, warmup_frac=0.1, collect_series=True) -> None:
    # The oracle draws its own tasks; the engine runs the drawn table.
    tasks = draw_tasks(catalog, capacity, workload_cfg, horizon, seed)
    new = run_simulation(tasks, params, policy, warmup_frac=warmup_frac, collect_series=collect_series)
    old = oracle_run_simulation(
        catalog, capacity, params, workload_cfg, policy,
        horizon=horizon, seed=seed, warmup_frac=warmup_frac, collect_series=collect_series,
    )
    _assert_identical(new, old)


@st.composite
def small_systems(draw):
    """A small random system.  Speeds are drawn relative to the content size
    so busy-slot counts range from one slot to a few dozen."""
    n_contents = draw(st.integers(1, 40))
    size_bits = draw(st.sampled_from([1, 1000, 5_000_000]))
    catalog = ContentCatalog.zipf(n_contents, draw(st.sampled_from([0.0, 0.8, 2.0])), size_bits)
    capacity = draw(st.integers(0, n_contents))
    contents_per_slot = st.sampled_from([0.4, 1.0, 3.0, 10.0, 1e9])
    params = SystemParams(
        slot_seconds=1.0,
        cycles_per_bit=1.0,
        f_local_hz=size_bits * draw(contents_per_slot),
        f_mec_hz=size_bits * draw(contents_per_slot),
        rate_bps=size_bits * draw(contents_per_slot),
    )
    k_min = draw(st.integers(1, 6))
    arrival_prob = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    workload_cfg = WorkloadConfig(arrival_prob, k_min, draw(st.integers(k_min, k_min + 6)))
    # v in 1/bits: zero, tiny and huge against the bits of one content.
    v = draw(st.sampled_from([0.0, 1e-3, 0.3, 1.0, 1e3])) / size_bits
    policy = PolicySpec(draw(st.sampled_from(POLICY_KINDS)), v)
    return catalog, capacity, params, workload_cfg, policy


_SMALL_RUNS = dict(
    system=small_systems(),
    horizon=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    warmup_frac=st.sampled_from([0.0, 0.1, 0.5]),
    collect_series=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(**_SMALL_RUNS)
def test_engine_matches_oracle_on_small_systems(system, horizon, seed, warmup_frac, collect_series) -> None:
    # The engine's own slot loop: the compiled one whenever it was built
    # (test_kernel checks that it is wherever a compiler exists).
    _both(*system, horizon=horizon, seed=seed, warmup_frac=warmup_frac, collect_series=collect_series)


@settings(max_examples=300, deadline=None)
@given(**_SMALL_RUNS)
def test_python_loop_matches_oracle_on_small_systems(system, horizon, seed, warmup_frac, collect_series) -> None:
    with mock.patch.object(_kernel, "lib", None):
        _both(*system, horizon=horizon, seed=seed, warmup_frac=warmup_frac, collect_series=collect_series)


@settings(max_examples=100, deadline=None)
@given(
    system=small_systems(),
    v_other=st.sampled_from([0.0, 1e-3, 0.3, 1.0, 1e3]),
    horizon=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_table_matches_oracle_under_two_weights(system, v_other, horizon, seed) -> None:
    # One drawn table serves runs at two weights; each must equal the
    # oracle's own run, which draws its tasks afresh.
    catalog, capacity, params, workload_cfg, policy = system
    tasks = draw_tasks(catalog, capacity, workload_cfg, horizon, seed)
    other = PolicySpec(policy.kind, v_other / catalog.size_bits)
    for weighted in (policy, other):
        new = run_simulation(tasks, params, weighted, warmup_frac=0.1, collect_series=True)
        old = oracle_run_simulation(
            catalog, capacity, params, workload_cfg, weighted, horizon=horizon, seed=seed, warmup_frac=0.1
        )
        _assert_identical(new, old)


@pytest.mark.parametrize(
    "fields",
    [
        {"v_param": 1e-6},
        {"v_param": 1e-8, "cache_m": 0},
        {"arrival_prob": 0.8, "v_param": 0.0},
        {"policy": "mec_only"},
        {"policy": "local_only", "arrival_prob": 0.3},
    ],
)
def test_engine_matches_oracle_at_reference_point(fields) -> None:
    config = ExperimentConfig(**fields).validate()
    _both(*build_system(config), horizon=3000, seed=4)


@pytest.mark.parametrize(
    "fields",
    [
        # Light load, yet the weight holds tasks back: up to about 200 wait
        # for most of the run.
        {"arrival_prob": 0.1, "v_param": 1e-6},
        # Overloaded: the queue grows for the whole run, to over 600.
        {"policy": "mec_only", "arrival_prob": 0.4},
    ],
)
def test_engine_matches_oracle_over_a_long_horizon(fields) -> None:
    config = ExperimentConfig(**fields).validate()
    _both(*build_system(config), horizon=8195, seed=4)
