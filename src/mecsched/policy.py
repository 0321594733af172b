"""The five actions, the feasibility rule, and the scheduling rules.

An action is a 0/1 flag tuple ``(local_first, local_second, mec_first,
mec_second)``: which queue position ("first" is the head, "second" the
task behind it) starts on which processor this slot.  Only five
combinations exist.  One rule decides which of them are legal: an action
may start no more tasks than are queued, and only on free processors.

The drift-plus-penalty rule picks the legal action of least

    cost(action) = -queue_len * started + v * transmitted_bits

so larger ``v`` buys fewer shipped bits at the price of a longer queue.
``v`` carries units of 1/bits here because the transmitted term is
measured in bits.  Cost ties go to the action that starts more tasks,
then to fewer transmitted bits, then to the head on the local processor.
The fixed baselines ``mec_only`` and ``local_only`` use one processor
only and start the head on it whenever they can.

:func:`decide` computes that minimiser in closed form.  A task's local
run fetches its distinct uncached contents and an offload ships all
``k`` of them, so its local bits never exceed its offload bits.  Hence
starting the head locally never costs more than offloading it, and only
two comparisons remain: the one single start against idling, and the
cheaper of the two splits against that choice.

A decision needs only four numbers of the queue besides its length: the
local and offload bits of the head task and of the task behind it.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "decide",
]

ActionFlags = tuple[int, int, int, int]

ACTION_IDLE: ActionFlags = (0, 0, 0, 0)
ACTION_FIRST_LOCAL: ActionFlags = (1, 0, 0, 0)
ACTION_FIRST_MEC: ActionFlags = (0, 0, 1, 0)
ACTION_SPLIT_LOCAL_MEC: ActionFlags = (1, 0, 0, 1)  # head local, second offloaded
ACTION_SPLIT_MEC_LOCAL: ActionFlags = (0, 1, 1, 0)  # head offloaded, second local

# Canonical ordering.
ACTIONS: tuple[ActionFlags, ...] = (
    ACTION_IDLE,
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
)

POLICY_KINDS = ("lyapunov", "mec_only", "local_only")


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
    The bits must be finite with ``0 <= *_local <= *_mec`` per task, which
    every task meets (distinct uncached contents never outnumber ``k``).
    """
    if q_len < 1 or (busy_local and busy_mec):
        return ACTION_IDLE
    if policy.kind == "mec_only":
        return ACTION_IDLE if busy_mec else ACTION_FIRST_MEC
    if policy.kind == "local_only":
        return ACTION_IDLE if busy_local else ACTION_FIRST_LOCAL

    # The one single start: the head on the free processor, local if both
    # are free.  It beats idling (cost 0) unless it costs more.
    v = policy.v_param
    if busy_local:
        single, cost = ACTION_FIRST_MEC, -float(q_len) + v * head_mec
    else:
        single, cost = ACTION_FIRST_LOCAL, -float(q_len) + v * head_local
    if cost > 0.0:
        single, cost = ACTION_IDLE, 0.0
    if q_len < 2 or busy_local or busy_mec:
        return single

    # Both splits start two tasks; the one moving fewer bits wins, the head
    # staying local on a tie.  It beats the single choice unless it costs more.
    split, bits = ACTION_SPLIT_LOCAL_MEC, head_local + second_mec
    if bits > second_local + head_mec:
        split, bits = ACTION_SPLIT_MEC_LOCAL, second_local + head_mec
    return split if -float(q_len * 2) + v * bits <= cost else single
