from __future__ import annotations

import numpy as np
import pytest

from mecsched import _kernel
from mecsched.catalog import CacheConfig, ContentCatalog
from mecsched.dynamics import task_bits
from mecsched.policy import (
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_IDLE,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
    ACTIONS,
    PolicySpec,
    decide,
    feasible_actions,
)
from fixed_uniforms import distinct_uncached


@pytest.fixture(scope="module")
def catalog() -> ContentCatalog:
    return ContentCatalog.zipf(1000, 0.8, 5e6)


@pytest.fixture(scope="module")
def cache(catalog) -> CacheConfig:
    return CacheConfig.for_catalog(catalog, 50)


@pytest.fixture(scope="module")
def bits(catalog, cache):
    """(local_bits, mec_bits) of a task with the given content ranks."""

    def task(contents) -> tuple[float, float]:
        distinct = distinct_uncached(catalog, cache, [contents])
        local, mec = task_bits(catalog, [len(contents)], distinct)
        return float(local[0]), float(mec[0])

    return task


def test_feasible_both_free_deep_queue() -> None:
    assert frozenset(feasible_actions(0, 0, 2)) == frozenset(ACTIONS)
    assert frozenset(feasible_actions(0, 0, 7)) == frozenset(ACTIONS)


def test_feasible_both_free_single_task() -> None:
    assert frozenset(feasible_actions(0, 0, 1)) == frozenset({ACTION_IDLE, ACTION_FIRST_LOCAL, ACTION_FIRST_MEC})


def test_feasible_one_processor_busy() -> None:
    assert frozenset(feasible_actions(1, 0, 1)) == frozenset({ACTION_IDLE, ACTION_FIRST_MEC})
    assert frozenset(feasible_actions(3, 0, 9)) == frozenset({ACTION_IDLE, ACTION_FIRST_MEC})
    assert frozenset(feasible_actions(0, 1, 1)) == frozenset({ACTION_IDLE, ACTION_FIRST_LOCAL})
    assert frozenset(feasible_actions(0, 2, 4)) == frozenset({ACTION_IDLE, ACTION_FIRST_LOCAL})


def test_feasible_forced_idle() -> None:
    assert frozenset(feasible_actions(0, 0, 0)) == frozenset({ACTION_IDLE})
    assert frozenset(feasible_actions(1, 1, 0)) == frozenset({ACTION_IDLE})
    assert frozenset(feasible_actions(2, 1, 7)) == frozenset({ACTION_IDLE})


def test_policy_spec_validation() -> None:
    PolicySpec("lyapunov", 1e-6)
    PolicySpec("mec_only")
    with pytest.raises(ValueError):
        PolicySpec("greedy")
    with pytest.raises(ValueError):
        PolicySpec("lyapunov", -1.0)
    with pytest.raises(ValueError):
        PolicySpec("lyapunov", float("nan"))
    with pytest.raises(ValueError):
        PolicySpec("lyapunov", float("inf"))


def test_cost_idle_is_zero() -> None:
    # idling costs 0, so a single start is taken while -q + v*bits <= 0
    # (an exact tie starts the task) and refused above that
    mec_busy = dict(busy_local=0, busy_mec=1)
    assert decide(PolicySpec("lyapunov", 0.5), q_len=1, head_local=2.0, head_mec=3.0, **mec_busy) is ACTION_FIRST_LOCAL
    assert decide(PolicySpec("lyapunov", 0.5), q_len=1, head_local=3.0, head_mec=3.0, **mec_busy) is ACTION_IDLE
    assert decide(PolicySpec("lyapunov", 0.5), q_len=3, head_local=6.0, head_mec=6.0, **mec_busy) is ACTION_FIRST_LOCAL


def test_cost_head_to_server_reference_value(bits) -> None:
    # 4 cached contents of 5 Mbit offloaded whole: cost -q + v * 20e6, and
    # v = 2**-20 makes v * 20e6 = 19.073486328125 exactly.
    local, mec = bits([1, 2, 3, 4])
    policy = PolicySpec("lyapunov", 2.0**-20)
    assert decide(policy, 1, 0, 19, local, mec) is ACTION_IDLE
    assert decide(policy, 1, 0, 20, local, mec) is ACTION_FIRST_MEC
    # run locally the same task moves nothing
    assert decide(policy, 0, 1, 1, local, mec) is ACTION_FIRST_LOCAL


def test_cost_split_zero_weight(bits) -> None:
    # a split costs -2q + v * bits: at v = 0 it beats every single start
    # however many bits it moves, and at v > 0 it can pay off where no
    # single start does (v = 2**-20 prices 10 Mbit at 9.5367431640625)
    first, second = bits([51, 52]), bits([1, 2])  # uncached 10 Mbit; cached
    assert sum(decide(PolicySpec("lyapunov", 0.0), 0, 0, 2, *first, *first)) == 2
    policy = PolicySpec("lyapunov", 2.0**-20)
    assert decide(policy, 0, 0, 4, *first, *second) is ACTION_IDLE
    assert decide(policy, 0, 0, 5, *first, *second) is ACTION_SPLIT_MEC_LOCAL


def test_cost_counts_only_missing_bits_for_local(bits) -> None:
    cached = bits([1, 2, 3])
    mixed = bits([1, 51])  # one uncached content: 5 Mbit fetched, 10 Mbit offloaded
    assert decide(PolicySpec("lyapunov", 1.0), 0, 1, 1, *cached) is ACTION_FIRST_LOCAL
    # v * 5e6 = 4.76837158203125 at v = 2**-20; the 10 Mbit offload would cost 9.5
    policy = PolicySpec("lyapunov", 2.0**-20)
    assert decide(policy, 0, 1, 4, *mixed) is ACTION_IDLE
    assert decide(policy, 0, 1, 5, *mixed) is ACTION_FIRST_LOCAL


def test_cost_requires_scheduled_tasks(bits) -> None:
    # only actions the queue can fill are priced: nothing starts from an
    # empty queue and a lone task is never split, even at zero weight
    task = bits([1, 51])
    for kind in ("lyapunov", "mec_only", "local_only"):
        assert decide(PolicySpec(kind, 0.0), 0, 0, 0, *task, *task) is ACTION_IDLE
        assert sum(decide(PolicySpec(kind, 0.0), 0, 0, 1, *task, *task)) == 1


def test_zero_weight_schedules_both_when_possible(bits) -> None:
    policy = PolicySpec("lyapunov", 0.0)
    action = decide(policy, 0, 0, 2, *bits([1, 2]), *bits([3, 4]))
    assert sum(action) == 2
    # equal bits both ways for cached tasks, so the head stays local
    assert action is ACTION_SPLIT_LOCAL_MEC


def test_cached_head_prefers_local_processor(bits) -> None:
    policy = PolicySpec("lyapunov", 1e-6)
    assert decide(policy, 0, 0, 1, *bits([1, 2, 3])) is ACTION_FIRST_LOCAL


def test_large_weight_idles_instead_of_transmitting(bits) -> None:
    # uncached head: local needs a fetch, server needs the full upload; with a
    # huge weight any transmission outweighs the queue reward.
    policy = PolicySpec("lyapunov", 1.0)
    assert decide(policy, 0, 0, 1, *bits([51, 52])) is ACTION_IDLE


def test_moderate_weight_splits_toward_cheaper_bits(bits) -> None:
    # head uncached (10 Mbit either way), second cached (free locally, 10 Mbit
    # to the server): the cheaper split sends the head to the server.
    policy = PolicySpec("lyapunov", 1e-7)
    action = decide(policy, 0, 0, 2, *bits([51, 52]), *bits([1, 2]))
    assert action is ACTION_SPLIT_MEC_LOCAL


def test_decide_single_candidate_paths(bits) -> None:
    policy = PolicySpec("lyapunov", 1e-6)
    assert decide(policy, 0, 0, 0) is ACTION_IDLE
    assert decide(policy, 1, 2, 1, *bits([1])) is ACTION_IDLE


def test_fixed_policies_use_only_their_processor(bits) -> None:
    task = bits([1, 51])
    mec = PolicySpec("mec_only")
    local = PolicySpec("local_only")
    assert decide(mec, 0, 0, 1, *task) is ACTION_FIRST_MEC
    assert decide(mec, 0, 2, 1, *task) is ACTION_IDLE
    assert decide(mec, 1, 0, 1, *task) is ACTION_FIRST_MEC
    assert decide(local, 0, 0, 1, *task) is ACTION_FIRST_LOCAL
    assert decide(local, 3, 0, 1, *task) is ACTION_IDLE
    assert decide(mec, 0, 0, 0) is ACTION_IDLE
    # the weight plays no part in the fixed rules
    assert decide(PolicySpec("mec_only", 1.0), 0, 0, 2, *task, *task) is ACTION_FIRST_MEC


def test_decision_always_feasible(bits) -> None:
    rng = np.random.default_rng(7)
    tasks = [bits(rng.integers(1, 1001, size=rng.integers(1, 8))) for _ in range(30)]
    policies = [PolicySpec("lyapunov", 0.0), PolicySpec("lyapunov", 1e-7), PolicySpec("mec_only"), PolicySpec("local_only")]
    for trial in range(300):
        busy_local = int(rng.integers(0, 4))
        busy_mec = int(rng.integers(0, 4))
        q_len = int(rng.integers(0, 5))
        first, second = tasks[int(rng.integers(0, 30))], tasks[int(rng.integers(0, 30))]
        action = decide(policies[trial % len(policies)], busy_local, busy_mec, q_len, *first, *second)
        assert action in feasible_actions(busy_local, busy_mec, q_len)


def test_selection_invariant_to_cost_scaling(bits) -> None:
    # scaling q and v by the same power of two scales every cost exactly,
    # so no decision changes (q >= 2, so the legal actions stay the same)
    rng = np.random.default_rng(3)
    tasks = [bits(rng.integers(1, 200, size=rng.integers(1, 8))) for _ in range(20)]
    for trial in range(400):
        q_len = int(rng.integers(2, 6))
        v = float(rng.choice([0.0, 1e-8, 1e-7, 3e-7, 1e-6]))
        state = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        first, second = tasks[trial % 20], tasks[int(rng.integers(0, 20))]
        base = decide(PolicySpec("lyapunov", v), *state, q_len, *first, *second)
        for factor in (2, 2**10, 2**20):
            scaled = decide(PolicySpec("lyapunov", v * factor), *state, q_len * factor, *first, *second)
            assert scaled is base


def test_tie_breaks_prefer_more_work_then_fewer_bits(bits) -> None:
    first = bits([51, 52])  # uncached: 10 Mbit to fetch or upload
    second = bits([1, 2])  # cached: free locally, 10 Mbit uploaded
    zero = PolicySpec("lyapunov", 0.0)  # all costs with equal starts tie
    # between the splits, fewer transmitted bits win (10 Mbit vs 20 Mbit)
    assert decide(zero, 0, 0, 2, *first, *second) is ACTION_SPLIT_MEC_LOCAL
    # cached head: fewer transmitted bits (0 vs 10 Mbit) picks local
    assert decide(zero, 0, 0, 1, *second) is ACTION_FIRST_LOCAL
    # uncached head: 10 Mbit either way, the head-on-local rule decides
    assert decide(zero, 0, 0, 1, *first) is ACTION_FIRST_LOCAL
    # equal split bits keep the head local
    assert decide(zero, 0, 0, 2, *first, *first) is ACTION_SPLIT_LOCAL_MEC
    # exact cost tie between a split and a single start: more work wins
    # (-4 + 1*(0 + 2) == -2 + 1*0)
    assert decide(PolicySpec("lyapunov", 1.0), 0, 0, 2, 0.0, 3.0, 1.0, 2.0) is ACTION_SPLIT_LOCAL_MEC
    # splits whose costs round to the same value: fewer bits still win
    assert decide(PolicySpec("lyapunov", 1e-30), 0, 0, 2, *first, *second) is ACTION_SPLIT_MEC_LOCAL


def _brute_force(policy, busy_local, busy_mec, q_len, head_local, head_mec, second_local, second_mec):
    """The drift-plus-penalty minimiser by enumeration: least cost, then
    more tasks started, fewer bits, head on local / server / not started,
    canonical order."""
    allowed = {
        "lyapunov": ACTIONS,
        "mec_only": (ACTION_IDLE, ACTION_FIRST_MEC),
        "local_only": (ACTION_IDLE, ACTION_FIRST_LOCAL),
    }[policy.kind]
    v = policy.v_param if policy.kind == "lyapunov" else 0.0

    def key(action):
        local_first, local_second, mec_first, mec_second = action
        moved = 0.0
        moved += head_local if local_first else 0.0
        moved += second_local if local_second else 0.0
        moved += head_mec if mec_first else 0.0
        moved += second_mec if mec_second else 0.0
        started = sum(action)
        head = 0 if local_first else (1 if mec_first else 2)
        return (-float(q_len * started) + v * moved, -started, moved, head, ACTIONS.index(action))

    return min((a for a in feasible_actions(busy_local, busy_mec, q_len) if a in allowed), key=key)


def _brute_force_states():
    """Every state over small integer bits (local <= offload per task),
    where v * bits == q ties are frequent, at zero, tiny, moderate and huge
    v, and the same bits scaled to 5 Mbit contents: ``(policy, state)``
    pairs, 144,000 of them."""
    tasks = [(float(local), float(mec)) for mec in range(5) for local in range(mec + 1)]
    weights = [0.0, 5e-324, 1e-300, 1e-9, 2.0**-22, 0.25, 1 / 3, 0.5, 1.0, 2.0, 3.0, 1e300]
    policies = [PolicySpec("lyapunov", v) for v in weights]
    policies += [PolicySpec(kind, v) for kind in ("mec_only", "local_only") for v in (0.0, 1.0)]
    for size in (1.0, 5e6):
        for policy in policies:
            for busy_local in (0, 1):
                for busy_mec in (0, 2):
                    for q_len in range(5):
                        for head in tasks:
                            for second in tasks:
                                yield policy, (busy_local, busy_mec, q_len, head[0] * size, head[1] * size,
                                               second[0] * size, second[1] * size)


def test_decide_matches_brute_force_minimum() -> None:
    checked = 0
    for policy, state in _brute_force_states():
        assert decide(policy, *state) is _brute_force(policy, *state), (policy, state)
        checked += 1
    assert checked == 144_000


@pytest.fixture(scope="module")
def compiled_decide():
    """``decide`` as the compiled slot loop runs it, returning flag tuples."""
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled slot loop is not built")

    def run(policy, *state) -> tuple[int, ...]:
        code = _kernel.lib.mecsched_decide(_kernel.KIND_CODES[policy.kind], policy.v_param, *state)
        return tuple((code >> bit) & 1 for bit in range(4))

    return run


def test_compiled_decide_matches_decide_on_brute_force_states(compiled_decide) -> None:
    checked = 0
    for policy, state in _brute_force_states():
        assert compiled_decide(policy, *state) == decide(policy, *state), (policy, state)
        checked += 1
    assert checked == 144_000


def test_compiled_decide_matches_decide_at_extremes(compiled_decide) -> None:
    cap = 2**62
    rng = np.random.default_rng(11)
    policies = [PolicySpec("lyapunov", v) for v in (0.0, 5e-324, 2.0**-20, 0.5, 1e300)]
    policies += [PolicySpec("mec_only"), PolicySpec("local_only")]
    busy = (0, 1, cap - 1, cap)
    queues = (0, 1, 2, 3, 2**31, 2**53 + 1, cap - 1, cap)
    checked = 0
    for policy in policies:
        v = policy.v_param
        for busy_local in busy:
            for busy_mec in busy:
                for q_len in queues:
                    # Head bits whose single-start cost ties idling (v *
                    # bits == q, exactly where v is a power of two), and
                    # split bits that tie that single start, besides
                    # random ones.
                    tie = float(q_len) / v if v > 0 else float(q_len)
                    if not np.isfinite(tie):
                        tie = float(q_len)
                    local, mec = sorted(rng.uniform(0, 4 * tie + 1, 2))
                    states = [
                        (tie, tie, tie, tie),
                        (tie, 2 * tie, 0.0, tie),
                        (0.0, tie, tie / 2, tie / 2),
                        (local, mec, 0.0, mec),
                        (local, local, local, mec),
                    ]
                    for bits in states:
                        state = (busy_local, busy_mec, q_len, *bits)
                        assert compiled_decide(policy, *state) == decide(policy, *state), (policy, state)
                        checked += 1
    assert checked == len(policies) * len(busy) ** 2 * len(queues) * 5
