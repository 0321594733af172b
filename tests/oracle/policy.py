# Frozen copy of mecsched/policy.py from the object-per-task engine (a Task
# object per arrival, a deque queue, SystemState and step), kept as the
# differential oracle for tests/test_oracle.py.  Only the imports were edited;
# do not change anything else.

"""Feasible action sets and the scheduling rules.

The legal actions in a slot depend only on which processors are free and
how many tasks are queued:

- both free, queue >= 2: all five actions
- both free, queue == 1: idle, head local, or head offloaded
- local busy, server free, queue >= 1: idle or head offloaded
- local free, server busy, queue >= 1: idle or head local
- otherwise: idle only

The drift-plus-penalty rule scores each feasible action with

    cost(action) = -queue_len * scheduled + v * transmitted_bits

and picks the minimiser, so larger ``v`` buys fewer shipped bits at the
price of a longer queue.  ``v`` carries units of 1/bits here because the
transmitted term is measured in bits.

Cost ties are broken deterministically: more tasks scheduled first, then
fewer transmitted bits, then head-on-local over head-offloaded, then the
canonical action order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mecsched.catalog import CacheConfig, ContentCatalog
from .dynamics import (
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_IDLE,
    ACTIONS,
    Action,
    SystemParams,
    SystemState,
    transmitted_bits,
)
from mecsched.errors import ContractViolation
from .workload import Task

__all__ = ["PolicySpec", "POLICY_KINDS", "feasible_actions", "action_cost", "decide"]

POLICY_KINDS = ("lyapunov", "mec_only", "local_only")

# Feasible sets keyed by (local busy?, server busy?, min(queue_len, 2)).
_CASE_TABLE: dict[tuple[bool, bool, int], tuple[Action, ...]] = {}
for _local_busy in (False, True):
    for _mec_busy in (False, True):
        for _q in (0, 1, 2):
            if _q == 0 or (_local_busy and _mec_busy):
                acts: tuple[Action, ...] = (ACTION_IDLE,)
            elif not _local_busy and not _mec_busy:
                acts = ACTIONS if _q >= 2 else (ACTION_IDLE, ACTION_FIRST_LOCAL, ACTION_FIRST_MEC)
            elif _local_busy:
                acts = (ACTION_IDLE, ACTION_FIRST_MEC)
            else:
                acts = (ACTION_IDLE, ACTION_FIRST_LOCAL)
            _CASE_TABLE[(_local_busy, _mec_busy, _q)] = acts

_CASE_SETS = {key: frozenset(acts) for key, acts in _CASE_TABLE.items()}

_CANONICAL_INDEX = {action: i for i, action in enumerate(ACTIONS)}


def feasible_actions(busy_local: int, busy_mec: int, q_len: int) -> frozenset[Action]:
    """The set of legal actions for the given busy counters and queue length."""
    return _CASE_SETS[(busy_local != 0, busy_mec != 0, min(q_len, 2))]


def _candidate_actions(busy_local: int, busy_mec: int, q_len: int) -> tuple[Action, ...]:
    return _CASE_TABLE[(busy_local != 0, busy_mec != 0, min(q_len, 2))]


@dataclass(frozen=True)
class PolicySpec:
    """Which scheduling rule to run and, for the drift-plus-penalty rule,
    the data-vs-delay weight ``v_param`` (units: 1/bits, ``0`` = delay only)."""

    kind: str
    v_param: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if self.v_param < 0:
            raise ValueError(f"v_param must be non-negative, got {self.v_param}")


def action_cost(
    action: Action,
    first_task: Optional[Task],
    second_task: Optional[Task],
    q_len: int,
    v: float,
    cache: CacheConfig,
    catalog: ContentCatalog,
    params: SystemParams,
) -> float:
    """Drift-plus-penalty score of one action; lower is better."""
    if (action.local_first or action.mec_first) and first_task is None:
        raise ContractViolation(f"action {tuple(action)} schedules the head but first_task is None")
    if (action.local_second or action.mec_second) and second_task is None:
        raise ContractViolation(f"action {tuple(action)} schedules the second task but second_task is None")
    return -float(q_len * action.scheduled) + v * transmitted_bits(
        action, first_task, second_task, cache, catalog
    )


def _tie_break_key(action: Action, tx_bits: float) -> tuple:
    # More scheduled, then fewer bits, then head-on-local, then canonical order.
    head_rank = 0 if action.local_first else (1 if action.mec_first else 2)
    return (-action.scheduled, tx_bits, head_rank, _CANONICAL_INDEX[action])


def select_min_cost(
    costed: Sequence[tuple[float, Action]],
    first_task: Optional[Task],
    second_task: Optional[Task],
    cache: CacheConfig,
    catalog: ContentCatalog,
) -> Action:
    """Pick the cheapest action from ``(cost, action)`` pairs.

    Exposed separately so the deterministic tie-breaking can be exercised
    on externally supplied costs; scaling all costs by a positive factor
    never changes the selection.
    """
    best_action = None
    best_key = None
    for cost, action in costed:
        key = (cost, *_tie_break_key(
            action, transmitted_bits(action, first_task, second_task, cache, catalog)
        ))
        if best_key is None or key < best_key:
            best_key = key
            best_action = action
    if best_action is None:
        raise ContractViolation("no candidate actions supplied")
    return best_action


def decide(
    policy: PolicySpec,
    state: SystemState,
    cache: CacheConfig,
    catalog: ContentCatalog,
    params: SystemParams,
) -> Action:
    """Choose this slot's action; always a member of the feasible set."""
    q_len = len(state.queue)
    if policy.kind == "mec_only":
        if state.busy_mec == 0 and q_len >= 1:
            return ACTION_FIRST_MEC
        return ACTION_IDLE
    if policy.kind == "local_only":
        if state.busy_local == 0 and q_len >= 1:
            return ACTION_FIRST_LOCAL
        return ACTION_IDLE

    candidates = _candidate_actions(state.busy_local, state.busy_mec, q_len)
    if len(candidates) == 1:
        return candidates[0]
    first_task = state.queue[0] if q_len >= 1 else None
    second_task = state.queue[1] if q_len >= 2 else None
    v = policy.v_param
    costed = [
        (
            action_cost(action, first_task, second_task, q_len, v, cache, catalog, params),
            action,
        )
        for action in candidates
    ]
    return select_min_cost(costed, first_task, second_task, cache, catalog)
