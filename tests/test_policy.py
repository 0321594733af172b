from __future__ import annotations

import numpy as np
import pytest

from mecsched.catalog import CacheConfig, ContentCatalog
from mecsched.dynamics import task_bits
from mecsched.errors import ContractViolation
from mecsched.policy import (
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_IDLE,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
    ACTIONS,
    PolicySpec,
    action_bits,
    action_cost,
    decide,
    feasible_actions,
    select_min_cost,
)
from mecsched.workload import distinct_uncached_counts


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
        ranks = np.asarray(contents, dtype=np.int64)
        distinct = distinct_uncached_counts(ranks, np.array([ranks.size]), cache)
        local, mec = task_bits(catalog, [ranks.size], distinct)
        return float(local[0]), float(mec[0])

    return task


def _costed(candidates, q_len, v, first, second=(0.0, 0.0)):
    out = []
    for action in candidates:
        moved = action_bits(action, first[0], first[1], second[0], second[1])
        out.append((action_cost(action, q_len, v, moved), action, moved))
    return out


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
    assert action_cost(ACTION_IDLE, 5, 1.0, 0.0) == 0.0


def test_cost_head_to_server_reference_value(bits) -> None:
    # 4 contents of 5 Mbit offloaded whole at unit weight: -1*1 + 1*20e6.
    local, mec = bits([1, 2, 3, 4])
    moved = action_bits(ACTION_FIRST_MEC, local, mec, 0.0, 0.0)
    assert action_cost(ACTION_FIRST_MEC, 1, 1.0, moved) == -1.0 + 20e6


def test_cost_split_zero_weight(bits) -> None:
    first, second = bits([1, 2]), bits([3, 4])
    moved = action_bits(ACTION_SPLIT_LOCAL_MEC, *first, *second)
    assert action_cost(ACTION_SPLIT_LOCAL_MEC, 2, 0.0, moved) == -4.0


def test_cost_counts_only_missing_bits_for_local(bits) -> None:
    cached = bits([1, 2, 3])
    mixed = bits([1, 51])
    assert action_cost(ACTION_FIRST_LOCAL, 1, 1.0, action_bits(ACTION_FIRST_LOCAL, *cached, 0.0, 0.0)) == -1.0
    assert action_cost(ACTION_FIRST_LOCAL, 1, 1.0, action_bits(ACTION_FIRST_LOCAL, *mixed, 0.0, 0.0)) == -1.0 + 5e6


def test_cost_requires_scheduled_tasks() -> None:
    with pytest.raises(ContractViolation):
        action_cost(ACTION_FIRST_LOCAL, 0, 0.0, 0.0)
    with pytest.raises(ContractViolation):
        action_cost(ACTION_SPLIT_LOCAL_MEC, 1, 0.0, 0.0)


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
    costed = _costed(ACTIONS, 2, 1e-7, bits([51, 52]), bits([1, 2]))
    base = select_min_cost(costed)
    for factor in (1e-3, 1.0, 1e6):
        scaled = [(factor * c, a, moved) for c, a, moved in costed]
        assert select_min_cost(scaled) is base


def test_tie_breaks_prefer_more_work_then_fewer_bits(bits) -> None:
    first = bits([51, 52])  # uncached: 10 Mbit to fetch or upload
    second = bits([1, 2])  # cached: free locally, 10 Mbit uploaded
    all_equal = [(0.0, a, moved) for _, a, moved in _costed(ACTIONS, 2, 0.0, first, second)]
    # scheduled counts dominate: a split beats the singles and idling
    choice = select_min_cost(all_equal)
    assert sum(choice) == 2
    # between the splits, fewer transmitted bits win (10 Mbit vs 20 Mbit)
    assert choice is ACTION_SPLIT_MEC_LOCAL
    # cached head: fewer transmitted bits (0 vs 10 Mbit) picks local
    singles = (ACTION_FIRST_MEC, ACTION_FIRST_LOCAL)
    cached_head = [(0.0, a, moved) for _, a, moved in _costed(singles, 1, 0.0, second)]
    assert select_min_cost(cached_head) is ACTION_FIRST_LOCAL
    # uncached head: 10 Mbit either way, the head-on-local rule decides
    uncached_head = [(0.0, a, moved) for _, a, moved in _costed(singles, 1, 0.0, first)]
    assert select_min_cost(uncached_head) is ACTION_FIRST_LOCAL


def test_select_min_cost_requires_candidates() -> None:
    with pytest.raises(ContractViolation):
        select_min_cost([])
