"""Checks shared by the engine and kernel tests that import no pytest, so
a sanitized child process can run them without its start-up cost."""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np

from mecsched import _kernel, workload
from mecsched.analysis import estimate_slot_means
from mecsched.catalog import ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import SystemParams
from mecsched.engine import RunMetrics, run_simulation
from mecsched.policy import POLICY_KINDS, PolicySpec
from mecsched.workload import K_SPAN_LIMIT, TaskTable, WorkloadConfig, draw_tasks, sample_slot_counts, sample_tasks
from draw_paths import drawing_on, word_sources
from fixed_uniforms import count_words, pcg64_with_next


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
        np.array([*TIE_ARRIVALS, horizon], dtype=np.int64),
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


class Recording:
    """A kernel whose threaded entries, the estimate and the task draw,
    record the ``(chunk, threads)`` of each call; with ``fail``
    ``"before"`` or ``"after"``, they raise before or after running the
    real entry."""

    def __init__(self, kernel, fail=None):
        self._kernel, self._fail, self.calls = kernel, fail, []

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def _call(self, what, entry, words, n, chunk, threads, *rest):
        self.calls.append((chunk, threads))
        if self._fail == "before":
            raise RuntimeError(f"{what} failed before it ran")
        entry(words, n, chunk, threads, *rest)
        if self._fail == "after":
            raise RuntimeError(f"{what} failed after it ran")

    def mecsched_estimate_slots(self, *args):
        self._call("estimate", self._kernel.mecsched_estimate_slots, *args)

    def mecsched_draw_tasks(self, *args):
        self._call("draw", self._kernel.mecsched_draw_tasks, *args)


def estimate_in_parts(catalog, capacity, params, ks, samples, seed, chunk=None, threads=None) -> tuple[list, dict]:
    """``sample_slot_counts``' two count lists, drawn from
    ``default_rng(seed)``, and the generator's state after the draw.  The
    compiled estimate takes its chunks of ``chunk`` samples on ``threads``
    threads, where they are given; the Python path ignores both."""
    rng = np.random.default_rng(seed)
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(np.random, "default_rng", lambda seed: rng))
        if chunk is not None:
            stack.enter_context(mock.patch.object(workload, "_CHUNK", chunk))
        if threads is not None:
            stack.enter_context(mock.patch.object(workload, "_parts", lambda samples: threads))
        counts = sample_slot_counts(catalog, capacity, params, ks, samples, seed)
    return [a.tolist() for a in counts], rng.bit_generator.state


def draw_in_parts(catalog, cfg, n_tasks, capacity, seed, chunk=None, threads=None) -> tuple[list, dict]:
    """``sample_tasks``' k values and distinct counts, drawn from
    ``default_rng(seed)`` with a 32-bit half buffered, and the generator's
    state after the draw.  The compiled draw takes its chunks of ``chunk``
    tasks on ``threads`` threads, where they are given; the Python path
    ignores both."""
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0x9E3779B9
    rng.bit_generator.state = state
    with contextlib.ExitStack() as stack:
        if chunk is not None:
            stack.enter_context(mock.patch.object(workload, "_DRAW_CHUNK", chunk))
        if threads is not None:
            stack.enter_context(mock.patch.object(workload, "_parts", lambda items: threads))
        drawn = sample_tasks(rng, catalog, cfg, n_tasks, capacity)
    return [a.tolist() for a in drawn], rng.bit_generator.state


def compare_at_the_extremes(sanitized) -> None:
    """Assert, once for each word source of the kernel ``sanitized``, that it
    and the Python paths agree at the extremes (see :func:`_compare`)."""
    for source in word_sources(sanitized):
        with drawing_on(sanitized, source):
            _compare(sanitized)


def _compare(sanitized) -> None:
    """Assert that the kernel ``sanitized`` and the Python paths agree at the
    extremes: a one-content catalog, a cache of the whole catalog, wide guide
    buckets, draws, estimates and the count on given words at capacities 0
    and n (every rank kept, or none, by the AVX-512 draw's compressed
    stores), k spans 0 and K_SPAN_LIMIT - 1, the estimate's k draw from a
    one-entry cdf and from wider ones, estimates and task draws on worker
    threads in chunks (of one task, of seven, from the block's edge, and
    the last task alone, at k spans 0, 63 and 299, with the generator's end
    state),
    first words 0, 2**64 - 1 and a
    rank edge's first word in the task draw, with a 32-bit half buffered at
    the start (the generator's end state included), and runs with tasks
    that never end (2**62 slots), of one slot, with warm-up from the first
    or the last slot, with and without a series, and with two tasks ending
    in one slot and every task ending; busy-slot counts, in runs and in
    the Monte Carlo estimate, at the formula's extremes (EXTREME_PARAMS);
    and the estimate's counts and sums at each edge of their storage
    widths (1, 2 and 8 bytes)."""

    def both(fn) -> list:
        results = []
        for lib in (sanitized, None):
            with mock.patch.object(_kernel, "lib", lib):
                results.append(fn())
        return results

    one, steep = ContentCatalog.zipf(1, 0.0, 1.0), ContentCatalog.zipf(50, 3.0, 1.0)
    large = ContentCatalog.zipf(1000, 0.8, 1.0)
    # The last two: tasks longer than the AVX-512 draw's 256-word block.
    for catalog, capacity, k_min, k_max in (
        (one, 0, 1, 5), (one, 1, 1, 5), (steep, 0, 3, 66), (steep, 50, 3, 66), (steep, 5, 7, 7),
        (large, 0, 1, 300), (large, 1000, 1, 300),
    ):
        cfg = WorkloadConfig(0.4, k_min, k_max)
        compiled, python = both(lambda: sample_tasks(np.random.default_rng(1), catalog, cfg, 300, capacity))
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
        ks = range(k_min, k_max + 1)
        compiled, python = both(lambda: sample_slot_counts(catalog, capacity, TIE_PARAMS, ks, 300, 1))
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
    # Estimates on worker threads, each chunk jumping the k stream to its
    # first sample and the contents' stream past the earlier samples'
    # contents: chunks of one sample and of seven, chunks from the k block's
    # edge, and a last chunk of one sample, at k span 0 and a wide span;
    # the counts and the generator's end state.
    for catalog, capacity, k_min, k_max in ((steep, 5, 7, 7), (large, 0, 1, 300), (large, 50, 1, 300)):
        ks = range(k_min, k_max + 1)
        for chunk, threads in ((1, 3), (7, 2), (256, 4), (299, 2)):
            compiled, python = both(
                lambda: estimate_in_parts(catalog, capacity, TIE_PARAMS, ks, 300, 1, chunk, threads)
            )
            assert compiled == python, (catalog.n_contents, capacity, chunk, threads)
    # Task draws on worker threads, each chunk starting from the state the
    # skeleton pass recorded at its first task (a buffered half included):
    # chunks of one task and of seven, chunks from the block's edge, and a
    # last chunk of one task, at k spans 0, 63 and 299, whose jump table of
    # 300 entries is the longest a 300-task draw still runs in chunks with.
    for catalog, capacity, k_min, k_max in ((steep, 5, 7, 7), (large, 0, 1, 300), (large, 50, 3, 66)):
        cfg = WorkloadConfig(0.4, k_min, k_max)
        for chunk, threads in ((1, 3), (7, 2), (256, 4), (299, 2)):
            compiled, python = both(lambda: draw_in_parts(catalog, cfg, 300, capacity, 1, chunk, threads))
            assert compiled == python, (catalog.n_contents, capacity, chunk, threads)
    # The count on given words: 300 of them, a whole block and a part of
    # one, which ends inside an eight-word group.
    words = np.random.default_rng(2).integers(0, 2**64, 300, dtype=np.uint64)
    for catalog in (one, steep, large):
        for capacity in (0, catalog.n_contents):
            compiled, python = both(lambda: count_words(catalog, capacity, [1, 7, 0, 250, 42], words))
            assert compiled == python
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

    # The estimate's count widths at their edges.  With compute that rounds
    # away and a one-bit-per-slot link, each count is its task's bits, so
    # contents of size_bits bits and k up to k_max bound every count at
    # size_bits * k_max: 255 and 65,535 fit 1 and 2 bytes, 256 and 65,536
    # do not.  A link whose rate times the slot length underflows caps
    # every count at 2**62.  Each offload count of k_max contents reaches
    # the bound; the sums run over every width.
    for size_bits, k_max, params, bound, width in (
        (51, 5, TIE_PARAMS, 255, 1), (64, 4, TIE_PARAMS, 256, 2), (13107, 5, TIE_PARAMS, 65_535, 2),
        (16384, 4, TIE_PARAMS, 65_536, 8), (1, 5, EXTREME_PARAMS[0], 2**62, 8),
    ):
        catalog = ContentCatalog.zipf(50, 1.0, size_bits)
        ks = range(1, k_max + 1)
        compiled, python = both(lambda: sample_slot_counts(catalog, 5, params, ks, 300, 1))
        assert [counts.itemsize for counts in compiled] == [width, width], bound
        assert max(compiled[1].tolist()) == bound
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
        compiled, python = both(lambda: estimate_slot_means(catalog, 5, params, ks, 300, seed=1))
        assert compiled == python, bound
