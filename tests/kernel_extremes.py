"""Checks shared by the engine and kernel tests that import no pytest, so
a sanitized child process can run them without its start-up cost."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np

from mecsched import _kernel
from mecsched.analysis import estimate_slot_means
from mecsched.catalog import ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import SystemParams
from mecsched.engine import RunMetrics, TaskTable, draw_tasks, run_simulation
from mecsched.policy import POLICY_KINDS, PolicySpec
from mecsched.workload import K_SPAN_LIMIT, WorkloadConfig, sample_slot_counts, sample_tasks
from draw_paths import drawing_on, word_sources
from fixed_uniforms import pcg64_with_next


# A hand-built run under the delay-only rule (lyapunov, v = 0).  Compute
# costs vanish and the radio ships one bit per slot, so each task's slot
# counts equal its bits.  Task 0 starts on the device in slot 1 and ends in
# slot 2.  Task 1 goes to the server in slot 2 and task 2 to the device in
# slot 3; both end in slot 4.  Tasks 3 and 4 split in slot 5: task 3 ends on
# the device in slot 8 and task 4 on the server in slot 9.  Task 5 arrives
# in slot 5 and waits until slot 9.
TIE_ARRIVALS = (0, 1, 2, 3, 4, 5)
TIE_LOCAL_BITS = (2, 1, 2, 4, 5, 1)
TIE_MEC_BITS = (2, 3, 2, 5, 5, 1)
TIE_PARAMS = SystemParams(slot_seconds=1.0, cycles_per_bit=1.0, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=1.0)
TIE_POLICY = PolicySpec("lyapunov", 0.0)


# Parameters at the busy-slot formula's extremes:
# - the rate times the slot length underflows to 0, so a fetch divides by 0
#   and a fully cached task's 0 bits make 0/0 (the cap takes both);
# - the device's speed times the slot length underflows to 0 (x/0 on every
#   local task), while the server finishes every task in one slot;
# - cycles per bit so large that every compute product overflows;
# - durations so short that every count rounds up to 1;
# - a compute duration that underflows to 0, which a fully cached task
#   adds nothing to: a count of 0, raised to 1.
EXTREME_PARAMS = (
    SystemParams(slot_seconds=1e-170, cycles_per_bit=1.0, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=1e-170),
    SystemParams(slot_seconds=1e-170, cycles_per_bit=1.0, f_local_hz=1e-170, f_mec_hz=1e300, rate_bps=1e300),
    SystemParams(slot_seconds=0.2, cycles_per_bit=1e300, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=5e8),
    SystemParams(slot_seconds=1.0, cycles_per_bit=1.0, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=1e300),
    SystemParams(slot_seconds=1.0, cycles_per_bit=1e-300, f_local_hz=1e300, f_mec_hz=1e300, rate_bps=1e300),
)


def tie_table(horizon: int) -> TaskTable:
    """The hand-built run's tasks over ``horizon`` slots: at 9, task 3 ends
    in the last slot and task 4 one slot past it; from 12 on, every task
    ends."""
    return TaskTable(
        horizon,
        np.array(TIE_ARRIVALS, dtype=np.int64),
        np.array(TIE_LOCAL_BITS, dtype=np.float64),
        np.array(TIE_MEC_BITS, dtype=np.float64),
    )


def assert_same_metrics(a: RunMetrics, b: RunMetrics) -> None:
    for f in dataclasses.fields(RunMetrics):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(y, np.ndarray):
            assert isinstance(x, np.ndarray) and x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def compare_at_the_extremes(sanitized) -> None:
    """Assert, once for each word source of the kernel ``sanitized``, that it
    and the Python paths agree at the extremes (see :func:`_compare`)."""
    for source in word_sources(sanitized):
        with drawing_on(sanitized, source):
            _compare(sanitized)


def _compare(sanitized) -> None:
    """Assert that the kernel ``sanitized`` and the Python paths agree at the
    extremes: a one-content catalog, a cache of the whole catalog, wide guide
    buckets, k spans 0 and K_SPAN_LIMIT - 1, the estimate's k draw from a
    one-entry cdf and from wider ones, first words 0, 2**64 - 1 and a
    rank edge's first word in the task draw, with a 32-bit half buffered at
    the start (the generator's end state included), and runs with tasks
    that never end (2**62 slots), of one slot, with warm-up from the first
    or the last slot, with and without a series, and with two tasks ending
    in one slot and every task ending; and busy-slot counts, in runs and in
    the Monte Carlo estimate, at the formula's extremes (EXTREME_PARAMS)."""

    def both(fn) -> list:
        results = []
        for lib in (sanitized, None):
            with mock.patch.object(_kernel, "lib", lib):
                results.append(fn())
        return results

    one, steep = ContentCatalog.zipf(1, 0.0, 1.0), ContentCatalog.zipf(50, 3.0, 1.0)
    for catalog, capacity, k_min, k_max in (
        (one, 0, 1, 5), (one, 1, 1, 5), (steep, 0, 3, 66), (steep, 50, 3, 66), (steep, 5, 7, 7),
    ):
        cfg = WorkloadConfig(0.4, k_min, k_max)
        compiled, python = both(lambda: sample_tasks(np.random.default_rng(1), catalog, cfg, 300, capacity))
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
        ks = range(k_min, k_max + 1)
        compiled, python = both(lambda: sample_slot_counts(catalog, capacity, TIE_PARAMS, ks, 300, 1))
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
    # The widest span: a rejected 0, then k = 2 from the word's low half and
    # k = 1 from its high half.
    widest = WorkloadConfig(0.4, 1, K_SPAN_LIMIT)
    compiled, python = both(lambda: sample_tasks(pcg64_with_next(1 << 32 | 2, 0), steep, widest, 2, 0))
    assert compiled[0].tolist() == python[0].tolist() == [2, 1]
    assert compiled[1].tolist() == python[1].tolist()

    def with_state(draw, word) -> tuple[list, dict]:
        rng = pcg64_with_next(word, 7)
        return [a.tolist() for a in draw(rng)], rng.bit_generator.state

    # The lowest and the highest word (uniform, bucket and rank) and the
    # first word of the steep catalog's first rank edge, through the
    # one-entry cdf (bucket shift 62) and the steep one.  Span 0 leaves the
    # buffered half for the next call, span 63 draws its k from it.
    for word in (0, 2**64 - 1, int(steep.edge[0]) << 11):
        for catalog in (one, steep):
            for cfg in (WorkloadConfig(0.4, 3, 3), WorkloadConfig(0.4, 3, 66)):
                compiled, python = both(lambda: with_state(lambda rng: sample_tasks(rng, catalog, cfg, 40, 0), word))
                assert compiled == python

    def runs(table, params, spec) -> None:
        horizon = table.horizon
        for warmup_slots in sorted({0, horizon // 10, horizon - 1}):
            for series in (False, True):
                compiled, python = both(lambda: run_simulation(
                    table, params, spec, warmup_frac=(warmup_slots + 0.5) / horizon, collect_series=series,
                ))
                assert python.warmup_slots == warmup_slots
                assert_same_metrics(compiled, python)

    for policy in POLICY_KINDS:
        for fields in ({"n_contents": 1, "cache_m": 1}, {"rate_bps": 1e-300}):
            catalog, capacity, params, workload_cfg, spec = build_system(ExperimentConfig(policy=policy, **fields))
            for horizon in (1, 2000):
                with mock.patch.object(_kernel, "lib", sanitized):
                    table = draw_tasks(catalog, capacity, workload_cfg, horizon, seed=3)
                runs(table, params, spec)
    for horizon in (9, 12):
        runs(tie_table(horizon), TIE_PARAMS, TIE_POLICY)

    # The busy-slot formula at its extremes, in the slot loop and in the
    # estimate, on tasks with and without contents to fetch (the steep
    # catalog caches about 99.6% of draws at capacity 10, and all at 50).
    workload_cfg = WorkloadConfig(0.4, 3, 66)
    tables = {}
    with mock.patch.object(_kernel, "lib", sanitized):
        for capacity in (0, 10, 50):
            tables[capacity] = draw_tasks(steep, capacity, workload_cfg, 500, seed=4)
    for params in EXTREME_PARAMS:
        for capacity, table in tables.items():
            compiled, python = both(lambda: estimate_slot_means(steep, capacity, params, range(3, 67), 300, seed=4))
            assert compiled == python, (params, capacity)
            for policy in POLICY_KINDS:
                compiled, python = both(lambda: run_simulation(
                    table, params, PolicySpec(policy, 1e-9), collect_series=True,
                ))
                assert_same_metrics(compiled, python)
