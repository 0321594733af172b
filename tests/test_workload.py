from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecsched import _kernel, workload
from mecsched.catalog import ContentCatalog
from mecsched.analysis import estimate_slot_means
from mecsched.config import ExperimentConfig, build_system
from mecsched.dynamics import SystemParams
from mecsched.engine import draw_tasks
from mecsched.workload import K_SPAN_LIMIT, WorkloadConfig, draw_contents, sample_tasks, task_streams
from draw_paths import drawing_on, paths
from fixed_uniforms import count_words, distinct_uncached, pcg64_with_next


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


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


def test_streams_independent_of_each_other(catalog: ContentCatalog) -> None:
    # Consuming different amounts of the arrival stream must not shift
    # the composition stream: the i-th task stays the same task.
    cfg = _cfg()
    a1, c1 = task_streams(3)
    a2, c2 = task_streams(3)
    a1.random(10)
    a2.random(500)
    t1 = sample_tasks(c1, catalog, cfg, 5, 0)
    t2 = sample_tasks(c2, catalog, cfg, 5, 0)
    for x, y in zip(t1, t2):
        assert np.array_equal(x, y)


def _arrivals(horizon: int, arrival_prob: float) -> int:
    config = ExperimentConfig(arrival_prob=arrival_prob).validate()
    catalog, capacity, _, workload_cfg, _ = build_system(config)
    return draw_tasks(catalog, capacity, workload_cfg, horizon, seed=0).arrival_slot.size


def test_sample_arrival_is_bernoulli_like() -> None:
    # one Bernoulli draw per slot
    assert abs(_arrivals(20000, 0.4) / 20000 - 0.4) < 0.01


def test_sample_arrival_degenerate_rates() -> None:
    assert _arrivals(100, 0.0) == 0
    assert _arrivals(100, 1.0) == 100


def test_content_indices_in_range(catalog: ContentCatalog) -> None:
    # Single-content tasks: a whole-catalog cache holds every drawn rank,
    # an empty cache none of them.
    cfg = _cfg(k_min=1, k_max=1)
    _, full = sample_tasks(np.random.default_rng(5), catalog, cfg, 10000, 1000)
    _, empty = sample_tasks(np.random.default_rng(5), catalog, cfg, 10000, 0)
    assert full.dtype == empty.dtype == np.int64
    assert full.tolist() == [0] * 10000
    assert empty.tolist() == [1] * 10000


def test_content_indices_follow_popularity(catalog: ContentCatalog) -> None:
    # A one-content cache holds rank 1 only, so single-content tasks miss
    # it with probability 1 - p[0].
    _, counts = sample_tasks(np.random.default_rng(11), catalog, _cfg(k_min=1, k_max=1), 200000, 1)
    freq1 = np.mean(counts == 0)
    assert freq1 == pytest.approx(catalog.popularity[0], rel=0.03)


def test_sample_task_shape(catalog: ContentCatalog) -> None:
    cfg = _cfg()
    _, comp = task_streams(0)
    ks, distinct = sample_tasks(comp, catalog, cfg, 50, 0)
    assert ks.shape == distinct.shape == (50,)
    assert np.all((cfg.k_min <= ks) & (ks <= cfg.k_max))
    assert np.all((1 <= distinct) & (distinct <= ks))


def test_sample_task_frozen_stream(catalog: ContentCatalog) -> None:
    # Regression pin: seed 0's first two tasks, so any accidental change
    # to stream consumption shows up.
    cfg = _cfg()
    _, comp = task_streams(0)
    ks, distinct = sample_tasks(comp, catalog, cfg, 2, 0)
    assert ks.tolist() == [53, 54]
    # the first task's contents are the k uniforms after its k draw
    _, comp = task_streams(0)
    comp.integers(cfg.k_min, cfg.k_max + 1)
    contents = _ranks(catalog, comp.random(53))
    assert contents[:6].tolist() == [12, 166, 51, 478, 375, 123]
    assert distinct[0] == np.unique(contents).size


def _ranks(catalog: ContentCatalog, u: np.ndarray) -> np.ndarray:
    """The inverse-CDF ranks of uniforms ``u``."""
    return np.searchsorted(catalog.cdf, u, side="right") + 1


def _one_task_at_a_time(rng, catalog, cfg, n_tasks, capacity) -> tuple[list[int], list[int]]:
    """The stream's definition: each task's k draw, then its k uniforms."""
    ks, distinct = [], []
    for _ in range(n_tasks):
        k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
        contents = _ranks(catalog, rng.random(k))
        ks.append(k)
        distinct.append(np.unique(contents[contents > capacity]).size)
    return ks, distinct


def test_sample_tasks_match_one_task_at_a_time(catalog: ContentCatalog) -> None:
    # Drawing many tasks at once consumes the stream exactly as drawing
    # each task's k, then its contents, one task at a time.
    cfg = _cfg(k_min=1, k_max=30)
    for path in paths():
        with drawing_on(*path):
            for capacity in (0, 50, 1000):
                ks, distinct = sample_tasks(task_streams(9)[1], catalog, cfg, 515, capacity)
                expected = _one_task_at_a_time(task_streams(9)[1], catalog, cfg, 515, capacity)
                assert (ks.tolist(), distinct.tolist()) == expected


def _rejected_halves(span: int) -> list[int]:
    """The 32-bit values the k draw's Lemire step rejects for this span."""
    k_range = span + 1
    threshold = (2**32 - 1 - span) % k_range
    # A rejected x has x * k_range just above a multiple of 2**32.
    candidates = (-(-(c << 32) // k_range) for c in range(k_range))
    return [x for x in candidates if x < 2**32 and (x * k_range) % 2**32 < threshold]


@st.composite
def _sampler_cases(draw):
    # 0 draws nothing; span + 1 a power of two rejects nothing.
    span = draw(st.sampled_from([0, 1, 2, 3, 7, 20, 31, 62, 999]))
    k_min = draw(st.integers(1, 63 - span)) if span < 63 else 1
    n_tasks = draw(st.sampled_from([0, 1, 515]) | st.integers(0, 40))
    # Steep catalogs crowd their tail into wide guide buckets.
    n = draw(st.integers(1, 60))
    alpha = draw(st.sampled_from([0.0, 0.8, 1.3, 3.0]))
    capacity = draw(st.sampled_from([0, 1, n]) | st.integers(0, n))
    half = None
    if draw(st.booleans()):
        half = draw(st.sampled_from(_rejected_halves(span) + [0, 2**32 - 1]) | st.integers(0, 2**32 - 1))
    return WorkloadConfig(0.4, k_min, k_min + span), n_tasks, (n, alpha), capacity, half, draw(st.integers(0, 2**32))


@settings(max_examples=60, deadline=None)
@given(_sampler_cases())
@example((WorkloadConfig(0.4, 40, 60), 3, (37, 1.3), 0, 1022611261, 5))
@example((WorkloadConfig(0.4, 1, 1000), 40, (37, 1.3), 10, 0, 6))
@example((WorkloadConfig(0.4, 5, 5), 515, (37, 1.3), 1, 2**32 - 1, 7))
@example((WorkloadConfig(0.4, 3, 66), 515, (50, 3.0), 5, None, 0))
def test_sample_tasks_equal_per_task_draws_and_leave_the_same_state(case) -> None:
    # On both draws, the whole stream, the generator's end state and its
    # next draws equal the per-task integers + random(k) calls, including a
    # 32-bit half already buffered before the first task, forced rejections
    # of it, k spans with and without a rejection threshold, and ranks in
    # wide guide buckets.
    cfg, n_tasks, (n, alpha), capacity, half, seed = case
    catalog = ContentCatalog.zipf(n, alpha, 1.0)
    for path in paths():
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        if half is not None:
            for rng in rngs:
                state = rng.bit_generator.state
                state["has_uint32"], state["uinteger"] = 1, half
                rng.bit_generator.state = state
        fast, reference = rngs
        with drawing_on(*path):
            ks, distinct = sample_tasks(fast, catalog, cfg, n_tasks, capacity)
        expected = _one_task_at_a_time(reference, catalog, cfg, n_tasks, capacity)
        assert (ks.tolist(), distinct.tolist()) == expected
        assert fast.bit_generator.state == reference.bit_generator.state
        assert fast.integers(0, 1000, 3).tolist() == reference.integers(0, 1000, 3).tolist()
        assert fast.random() == reference.random()


def test_k_draw_rejects_values_in_a_row(catalog: ContentCatalog) -> None:
    # The buffered half and the next word's two halves are all rejected
    # 32-bit values, so the first k draw rejects three times before it
    # accepts.
    cfg = _cfg(k_min=1, k_max=1000)
    rejected = _rejected_halves(999)
    assert rejected[0] == 0
    for path in paths():
        fast, reference = pcg64_with_next(rejected[-1], 0), pcg64_with_next(rejected[-1], 0)
        with drawing_on(*path):
            ks, distinct = sample_tasks(fast, catalog, cfg, 5, 0)
        assert (ks.tolist(), distinct.tolist()) == _one_task_at_a_time(reference, catalog, cfg, 5, 0)
        assert fast.bit_generator.state == reference.bit_generator.state


def test_sample_tasks_follow_any_bit_generator(catalog: ContentCatalog) -> None:
    # The kernel steps PCG64 only; generators that build their doubles and
    # 32-bit values differently take the Python reference path, loaded
    # kernel or not, and are followed too.
    cfg = _cfg(k_min=1, k_max=30)
    for bit_generator in (np.random.MT19937, np.random.Philox, np.random.SFC64):
        for path in paths():
            fast, reference = np.random.Generator(bit_generator(5)), np.random.Generator(bit_generator(5))
            with drawing_on(*path):
                ks, distinct = sample_tasks(fast, catalog, cfg, 300, 50)
            assert (ks.tolist(), distinct.tolist()) == _one_task_at_a_time(reference, catalog, cfg, 300, 50)
            assert fast.integers(0, 1000, 3).tolist() == reference.integers(0, 1000, 3).tolist()
            assert fast.random() == reference.random()


class _NoReferenceDraw(np.random.Generator):
    """A generator whose ``random`` and ``integers`` raise: the draw's
    Python reference path calls them, the compiled one does not."""

    def random(self, *args, **kwargs):
        raise AssertionError("the draw took the Python reference path")

    integers = random


@pytest.mark.skipif(_kernel.lib is None, reason="the kernel is not loaded")
def test_package_generators_take_the_compiled_draw(catalog: ContentCatalog, monkeypatch) -> None:
    # The kernel draws only a PCG64 stream.  Should the package's
    # generators ever stop being PCG64, every draw would fall back to the
    # Python reference, 20 us per task against 0.2, with the same results;
    # only the benchmark would show it.  Here the reference path raises.
    default_rng = np.random.default_rng

    def guarded_streams(seed):
        arrival_rng, composition_rng = task_streams(seed)
        return arrival_rng, _NoReferenceDraw(composition_rng.bit_generator)

    monkeypatch.setattr(workload, "task_streams", guarded_streams)
    draw_tasks(catalog, 50, _cfg(), 2000, seed=1)
    params = SystemParams(slot_seconds=0.1, cycles_per_bit=10, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=1e8)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _NoReferenceDraw(default_rng(seed).bit_generator))
    estimate_slot_means(catalog, 50, params, range(40, 61), samples=200)
    guarded = np.random.default_rng(2)
    sample_tasks(guarded, catalog, _cfg(), 20, 50)
    # Any other bit generator takes the reference path, and is caught.
    with pytest.raises(AssertionError, match="reference path"):
        sample_tasks(_NoReferenceDraw(np.random.MT19937(2)), catalog, _cfg(), 1, 50)


def test_draw_contents_equal_per_task_random_calls(catalog: ContentCatalog) -> None:
    # The Monte Carlo estimate's draw: k given, so each task takes the next
    # random(k) uniforms and nothing else.  Every k from 0 to 130 comes
    # first, so any k where a loop over a task's uniforms could stop one
    # short or run one long is among them.
    ks = np.concatenate([np.arange(131), np.random.default_rng(1).integers(0, 70, 600)])
    for capacity in (0, 50, 1000):
        fast, reference = np.random.default_rng(4), np.random.default_rng(4)
        counts = draw_contents(fast, catalog, ks, capacity)
        expected = []
        for k in ks:
            contents = _ranks(catalog, reference.random(k))
            expected.append(np.unique(contents[contents > capacity]).size)
        assert counts.dtype == np.int64 and counts.tolist() == expected
        assert fast.bit_generator.state == reference.bit_generator.state


def test_workload_config_refuses_a_k_span_no_draw_can_follow() -> None:
    # Wider k ranges leave numpy's 32-bit k draw; the widest one is taken.
    _cfg(k_min=1, k_max=K_SPAN_LIMIT)
    with pytest.raises(ValueError, match=f"must stay below 2\\*\\*32 - 1, got {K_SPAN_LIMIT}"):
        _cfg(k_min=1, k_max=K_SPAN_LIMIT + 1)


def test_every_draw_refuses_a_capacity_outside_the_catalog(catalog: ContentCatalog) -> None:
    # The cache holds ranks 1..capacity, so 0 and n_contents are its edges;
    # every draw, compiled or not, takes both and refuses one past either.
    n = catalog.n_contents
    cfg = _cfg(k_min=1, k_max=3)
    params = SystemParams(slot_seconds=0.1, cycles_per_bit=10, f_local_hz=1e9, f_mec_hz=1e10, rate_bps=1e8)
    draws = [
        lambda capacity: draw_contents(np.random.default_rng(0), catalog, [2, 0, 3], capacity),
        lambda capacity: sample_tasks(np.random.default_rng(0), catalog, cfg, 3, capacity),
        lambda capacity: draw_tasks(catalog, capacity, cfg, 10, seed=0),
        lambda capacity: estimate_slot_means(catalog, capacity, params, range(1, 4), samples=2),
    ]
    for path in paths():
        with drawing_on(*path):
            for draw in draws:
                for capacity in (0, n):
                    draw(capacity)
                for capacity in (-1, n + 1):
                    with pytest.raises(ValueError, match=f"capacity must lie in 0..{n}, got {capacity}"):
                        draw(capacity)


def test_distinct_uncached_counts_by_hand(catalog: ContentCatalog) -> None:
    # Repeated ranks count once, cached ranks not at all, and a task with
    # no contents or only cached ones counts 0.
    tasks = [[1, 51, 51, 52], [], [7, 50], [1000, 1000, 999]]
    for path in paths():
        with drawing_on(*path):
            assert distinct_uncached(catalog, 50, tasks) == [2, 0, 0, 2]


@pytest.mark.parametrize(
    "n, alpha", [(1, 0.0), (2, 0.0), (37, 1.3), (1000, 0.8), (1000, 5.0), (1000, 50.0), (5000, 1.2)]
)
def test_content_ranks_equal_binary_search(n: int, alpha: float) -> None:
    # The integer lookup must give the inverse-CDF rank of the uniform
    # (w >> 11) * 2**-53 for every word w on or next to a rank edge or a
    # guide bucket's edge: the last word below each edge and the edge's
    # first word, each bucket's first word and the word before it, and the
    # first and the last word.  A one-content task counts 1 exactly when
    # its rank lies above the cache, so the capacities r - 1 (count 1) and
    # r (count 0) pin a rank r.  Each word source ranks the words its own
    # way: the AVX-512 lanes through gathers, eight words at a time.
    cat = ContentCatalog.zipf(n, alpha, 1.0)
    shift = 65 - (cat.guide.size - 1).bit_length()
    edge_words = [int(edge) << 11 for edge in cat.edge if edge < 2**53]
    bucket_words = [j << shift for j in range(1, cat.guide.size - 1)]
    words = {0, 2**64 - 1}
    for first in edge_words + bucket_words:
        words.update((first - 1, first))
    words = np.array(sorted(words), dtype=np.uint64)
    expected = _ranks(cat, (words >> np.uint64(11)) * 2.0**-53)
    # The words of rank r are words[first[r - 1]:first[r]].
    first = np.searchsorted(expected, np.arange(1, n + 2))
    for path in paths():
        with drawing_on(*path):
            for capacity in range(n + 1):
                near = slice(first[max(capacity - 1, 0)], first[min(capacity + 1, n)])
                counts = count_words(cat, capacity, np.ones(near.stop - near.start), words[near])
                assert counts == (expected[near] > capacity).tolist(), path


@st.composite
def _tasks(draw):
    n = draw(st.integers(1, 30))
    ks = draw(st.lists(st.integers(0, 12), max_size=20))
    ranks = draw(st.lists(st.integers(1, n), min_size=sum(ks), max_size=sum(ks)))
    capacity = draw(st.integers(0, n))
    bounds = np.cumsum([0] + ks)
    return n, [ranks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])], capacity


@settings(max_examples=300, deadline=None)
@given(_tasks())
def test_distinct_uncached_counts_match_per_task_unique(tasks) -> None:
    n, contents, capacity = tasks
    catalog = ContentCatalog.zipf(n, 0.0, 1.0)
    expected = [len({rank for rank in task if rank > capacity}) for task in contents]
    for path in paths():
        with drawing_on(*path):
            assert distinct_uncached(catalog, capacity, contents) == expected
