"""The five actions, the feasibility rule, and the scheduling rules.

An action is a 0/1 flag tuple ``(local_first, local_second, mec_first,
mec_second)``: which queue position ("first" is the head, "second" the
task behind it) starts on which processor this slot.  Only five
combinations exist.  One rule decides which of them are legal: an action
may start no more tasks than are queued, and only on free processors.

The drift-plus-penalty rule scores each legal action with

    cost(action) = -queue_len * scheduled + v * transmitted_bits

and picks the minimiser, so larger ``v`` buys fewer shipped bits at the
price of a longer queue.  ``v`` carries units of 1/bits here because the
transmitted term is measured in bits.  The fixed baselines are the same
rule at ``v = 0`` restricted to one processor: ``mec_only`` may only
offload the head, ``local_only`` may only run it locally, and both start
it whenever they can.

Cost ties are broken deterministically: more tasks scheduled first, then
fewer transmitted bits, then head-on-local over head-offloaded, then the
canonical action order.

A decision needs only four numbers of the queue besides its length: the
local and offload bits of the head task and of the task behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractViolation

__all__ = [
    "ACTIONS",
    "ACTION_IDLE",
    "ACTION_FIRST_LOCAL",
    "ACTION_FIRST_MEC",
    "ACTION_SPLIT_LOCAL_MEC",
    "ACTION_SPLIT_MEC_LOCAL",
    "PolicySpec",
    "POLICY_KINDS",
    "feasible_actions",
    "action_bits",
    "action_cost",
    "select_min_cost",
    "decide",
]

ActionFlags = tuple[int, int, int, int]

ACTION_IDLE: ActionFlags = (0, 0, 0, 0)
ACTION_FIRST_LOCAL: ActionFlags = (1, 0, 0, 0)
ACTION_FIRST_MEC: ActionFlags = (0, 0, 1, 0)
ACTION_SPLIT_LOCAL_MEC: ActionFlags = (1, 0, 0, 1)  # head local, second offloaded
ACTION_SPLIT_MEC_LOCAL: ActionFlags = (0, 1, 1, 0)  # head offloaded, second local

# Canonical ordering; also the final tie-break order inside the policies.
ACTIONS: tuple[ActionFlags, ...] = (
    ACTION_IDLE,
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
)

POLICY_KINDS = ("lyapunov", "mec_only", "local_only")

# The actions each policy may choose from, in canonical order.
_POLICY_ACTIONS = {
    "lyapunov": ACTIONS,
    "mec_only": (ACTION_IDLE, ACTION_FIRST_MEC),
    "local_only": (ACTION_IDLE, ACTION_FIRST_LOCAL),
}

# Tie-break ranks after cost: -scheduled, (bits), head on local / server /
# not started, canonical index.
_TIE_RANK = {
    action: (-sum(action), 0 if action[0] else (1 if action[2] else 2), index)
    for index, action in enumerate(ACTIONS)
}


def feasible_actions(busy_local: int, busy_mec: int, q_len: int) -> tuple[ActionFlags, ...]:
    """The legal actions, in canonical order: those that start no more
    tasks than are queued, and only on free processors."""
    return tuple(
        action
        for action in ACTIONS
        if sum(action) <= q_len
        and not (busy_local and (action[0] or action[1]))
        and not (busy_mec and (action[2] or action[3]))
    )


# Candidates keyed by (policy kind, local busy?, server busy?, min(queue_len, 2)).
_CANDIDATES = {
    (kind, local_busy, mec_busy, q): tuple(
        a for a in feasible_actions(local_busy, mec_busy, q) if a in allowed
    )
    for kind, allowed in _POLICY_ACTIONS.items()
    for local_busy in (False, True)
    for mec_busy in (False, True)
    for q in (0, 1, 2)
}


@dataclass(frozen=True)
class PolicySpec:
    """Which scheduling rule to run and, for the drift-plus-penalty rule,
    the data-vs-delay weight ``v_param`` (units: 1/bits, ``0`` = delay only)."""

    kind: str
    v_param: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}, expected one of {POLICY_KINDS}")
        if not 0 <= self.v_param < float("inf"):
            raise ValueError(f"v_param must be finite and non-negative, got {self.v_param}")


def action_bits(
    action: ActionFlags, head_local: float, head_mec: float, second_local: float, second_mec: float
) -> float:
    """Uplink bits the action moves: fetches for the tasks it runs
    locally, full tasks for those it offloads."""
    local_first, local_second, mec_first, mec_second = action
    bits = 0.0
    if local_first:
        bits += head_local
    if local_second:
        bits += second_local
    if mec_first:
        bits += head_mec
    if mec_second:
        bits += second_mec
    return bits


def action_cost(action: ActionFlags, q_len: int, v: float, bits: float) -> float:
    """Drift-plus-penalty score of an action moving ``bits``; lower is better."""
    scheduled = sum(action)
    if scheduled > q_len:
        raise ContractViolation(f"action {action} starts {scheduled} tasks, queue holds {q_len}")
    return -float(q_len * scheduled) + v * bits


def select_min_cost(costed: Iterable[tuple[float, ActionFlags, float]]) -> ActionFlags:
    """Pick the cheapest action from ``(cost, action, bits)`` triples.

    Exposed separately so the deterministic tie-breaking can be exercised
    on externally supplied costs; scaling all costs by a positive factor
    never changes the selection.
    """
    best_action = None
    best_key = None
    for cost, action, bits in costed:
        neg_scheduled, head_rank, index = _TIE_RANK[action]
        key = (cost, neg_scheduled, bits, head_rank, index)
        if best_key is None or key < best_key:
            best_key = key
            best_action = action
    if best_action is None:
        raise ContractViolation("no candidate actions supplied")
    return best_action


def decide(
    policy: PolicySpec,
    busy_local: int,
    busy_mec: int,
    q_len: int,
    head_local: float = 0.0,
    head_mec: float = 0.0,
    second_local: float = 0.0,
    second_mec: float = 0.0,
) -> ActionFlags:
    """Choose this slot's action; always a member of the feasible set.

    ``head_*`` / ``second_*`` are the local and offload bits of the first
    two queued tasks; they are read only when that many tasks are queued.
    """
    candidates = _CANDIDATES[policy.kind, busy_local != 0, busy_mec != 0, min(q_len, 2)]
    if len(candidates) == 1:
        return candidates[0]
    v = policy.v_param if policy.kind == "lyapunov" else 0.0
    costed = []
    for action in candidates:
        bits = action_bits(action, head_local, head_mec, second_local, second_mec)
        costed.append((action_cost(action, q_len, v, bits), action, bits))
    return select_min_cost(costed)
