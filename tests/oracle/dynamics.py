# Frozen copy of mecsched/dynamics.py from the object-per-task engine (a Task
# object per arrival, a deque queue, SystemState and step), kept as the
# differential oracle for tests/test_oracle.py.  Only the imports and the cache
# parameter (now the integer capacity) were edited; do not change anything else.

"""Slot counts, transmission sizes, and the per-slot state transition.

Two processors serve the queue: the device's own CPU ("local") and the
edge server ("mec").  Executing a task locally means fetching only the
distinct contents missing from the cache; offloading it means shipping
the full task.  Either way the busy processor is modelled by a countdown
of whole slots:

- local:  ``ceil( D*w / (f_local * dt) + D_missing / (rate * dt) )``
- mec:    ``ceil( D*w / (f_mec   * dt) + D        / (rate * dt) )``

where ``D`` is the full task size in bits, ``D_missing`` the distinct
uncached bits, ``w`` cycles per bit, ``f`` the processor speed in Hz,
``rate`` the radio rate in bit/s and ``dt`` the slot length in seconds.

A slot proceeds as: observe -> schedule -> (arrival joins the queue tail).
A task started in slot ``t`` with count ``n`` completes at the end of
slot ``t + n - 1``; the busy counter is set to ``n - 1`` for the next
slot, so a one-slot task never shows up as busy at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from mecsched.catalog import ContentCatalog
from mecsched.errors import ContractViolation
from .workload import Task

__all__ = [
    "Action",
    "ACTIONS",
    "ACTION_IDLE",
    "ACTION_FIRST_LOCAL",
    "ACTION_FIRST_MEC",
    "ACTION_SPLIT_LOCAL_MEC",
    "ACTION_SPLIT_MEC_LOCAL",
    "SystemParams",
    "SystemState",
    "InServiceTask",
    "CompletionEvent",
    "uncached_distinct_bits",
    "mec_bits",
    "transmitted_bits",
    "slots_local",
    "slots_mec",
    "step",
]

MODE_LOCAL = "local"
MODE_MEC = "mec"


class Action(NamedTuple):
    """Which queue position starts on which processor this slot.

    Position flags are 0/1; "first" is the queue head, "second" the task
    behind it.  Only five combinations are ever legal.
    """

    local_first: int
    local_second: int
    mec_first: int
    mec_second: int

    @property
    def scheduled(self) -> int:
        """Number of tasks this action starts (0, 1 or 2)."""
        return self.local_first + self.local_second + self.mec_first + self.mec_second

    @property
    def uses_local(self) -> bool:
        return bool(self.local_first or self.local_second)

    @property
    def uses_mec(self) -> bool:
        return bool(self.mec_first or self.mec_second)


ACTION_IDLE = Action(0, 0, 0, 0)
ACTION_FIRST_LOCAL = Action(1, 0, 0, 0)
ACTION_FIRST_MEC = Action(0, 0, 1, 0)
ACTION_SPLIT_LOCAL_MEC = Action(1, 0, 0, 1)  # head local, second offloaded
ACTION_SPLIT_MEC_LOCAL = Action(0, 1, 1, 0)  # head offloaded, second local

# Canonical ordering; also the final tie-break order inside the policies.
ACTIONS: tuple[Action, ...] = (
    ACTION_IDLE,
    ACTION_FIRST_LOCAL,
    ACTION_FIRST_MEC,
    ACTION_SPLIT_LOCAL_MEC,
    ACTION_SPLIT_MEC_LOCAL,
)

_VALID_ACTIONS = frozenset(ACTIONS)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the device / server / radio triple."""

    slot_seconds: float
    cycles_per_bit: float
    f_local_hz: float
    f_mec_hz: float
    rate_bps: float

    def __post_init__(self):
        for name in ("slot_seconds", "cycles_per_bit", "f_local_hz", "f_mec_hz", "rate_bps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class InServiceTask:
    task: Task
    mode: str  # MODE_LOCAL or MODE_MEC
    completion_slot: int


@dataclass
class CompletionEvent:
    task: Task
    mode: str
    completion_slot: int


@dataclass
class SystemState:
    """Mutable simulator state at the start of a slot."""

    queue: deque = field(default_factory=deque)
    busy_local: int = 0  # remaining busy slots after the current one
    busy_mec: int = 0
    in_service_local: Optional[InServiceTask] = None
    in_service_mec: Optional[InServiceTask] = None
    slot: int = 0

    @classmethod
    def empty(cls) -> "SystemState":
        return cls()

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    @property
    def in_service_count(self) -> int:
        return (self.in_service_local is not None) + (self.in_service_mec is not None)


def uncached_distinct_bits(task: Task, capacity: int, catalog: ContentCatalog) -> float:
    """Bits the device must fetch to run ``task`` locally.

    Counts distinct content ranks above the cache capacity; repeats within
    a task are fetched once, cached contents not at all.
    """
    count = task._distinct_uncached.get(capacity)
    if count is None:
        above = task.contents[task.contents > capacity]
        count = int(np.unique(above).size)
        task._distinct_uncached[capacity] = count
    return catalog.size_bits * count


def mec_bits(task: Task) -> float:
    """Bits shipped on the uplink when ``task`` is offloaded: the full task."""
    return task.total_bits


def transmitted_bits(
    action: Action,
    first_task: Optional[Task],
    second_task: Optional[Task],
    capacity: int,
    catalog: ContentCatalog,
) -> float:
    """Uplink bits the action moves this slot (fetches plus offloads)."""
    bits = 0.0
    if action.local_first:
        bits += uncached_distinct_bits(first_task, capacity, catalog)
    if action.local_second:
        bits += uncached_distinct_bits(second_task, capacity, catalog)
    if action.mec_first:
        bits += mec_bits(first_task)
    if action.mec_second:
        bits += mec_bits(second_task)
    return bits


def slots_local(task: Task, capacity: int, catalog: ContentCatalog, params: SystemParams) -> int:
    """Whole slots to finish ``task`` on the device CPU.

    Computation covers the full task size; transmission covers only the
    distinct uncached bits.  Always at least 1.
    """
    compute = task.total_bits * params.cycles_per_bit / (params.f_local_hz * params.slot_seconds)
    fetch = uncached_distinct_bits(task, capacity, catalog) / (params.rate_bps * params.slot_seconds)
    return math.ceil(compute + fetch)


def slots_mec(task: Task, params: SystemParams) -> int:
    """Whole slots to finish ``task`` on the edge server (compute + uplink)."""
    compute = task.total_bits * params.cycles_per_bit / (params.f_mec_hz * params.slot_seconds)
    ship = task.total_bits / (params.rate_bps * params.slot_seconds)
    return math.ceil(compute + ship)


def _start(
    state: SystemState,
    task: Task,
    mode: str,
    n_slots: int,
    completions: list,
) -> int:
    """Run the assignment bookkeeping for one processor; returns busy count."""
    if n_slots == 1:
        # Task finishes within its own assignment slot.
        completions.append(CompletionEvent(task, mode, state.slot))
        return 0
    if mode == MODE_LOCAL:
        state.in_service_local = InServiceTask(task, mode, state.slot + n_slots - 1)
    else:
        state.in_service_mec = InServiceTask(task, mode, state.slot + n_slots - 1)
    return n_slots - 1


def step(
    state: SystemState,
    action: Action,
    first_task: Optional[Task],
    second_task: Optional[Task],
    arrival: Optional[Task],
    params: SystemParams,
    capacity: int,
    catalog: ContentCatalog,
) -> tuple[SystemState, list[CompletionEvent], float]:
    """Advance one slot: start tasks, count down busy processors, enqueue
    the arrival.  Mutates ``state`` in place and returns it together with
    the slot's completion events and the uplink bits moved.

    ``first_task`` / ``second_task`` must be the actual queue head objects
    consumed by the action (``state.queue[0]`` / ``state.queue[1]``).
    Raises :class:`ContractViolation` when the action is not legal in the
    current state.
    """
    if action not in _VALID_ACTIONS:
        raise ContractViolation(f"unknown action {action!r}")
    n_scheduled = action.scheduled
    if n_scheduled > len(state.queue):
        raise ContractViolation(
            f"action {tuple(action)} consumes {n_scheduled} tasks, queue holds {len(state.queue)}"
        )
    if action.uses_local and state.busy_local != 0:
        raise ContractViolation(f"local processor busy for {state.busy_local} more slots")
    if action.uses_mec and state.busy_mec != 0:
        raise ContractViolation(f"edge server busy for {state.busy_mec} more slots")
    if n_scheduled >= 1 and first_task is not state.queue[0]:
        raise ContractViolation("first_task is not the queue head")
    if n_scheduled == 2 and second_task is not state.queue[1]:
        raise ContractViolation("second_task is not the second queued task")

    completions: list[CompletionEvent] = []
    tx_bits = transmitted_bits(action, first_task, second_task, capacity, catalog)

    # Local processor.
    if action.uses_local:
        task = first_task if action.local_first else second_task
        n = slots_local(task, capacity, catalog, params)
        state.busy_local = _start(state, task, MODE_LOCAL, n, completions)
    elif state.busy_local > 0:
        state.busy_local -= 1
        if state.busy_local == 0:
            record = state.in_service_local
            completions.append(CompletionEvent(record.task, record.mode, state.slot))
            state.in_service_local = None

    # Edge server.
    if action.uses_mec:
        task = first_task if action.mec_first else second_task
        n = slots_mec(task, params)
        state.busy_mec = _start(state, task, MODE_MEC, n, completions)
    elif state.busy_mec > 0:
        state.busy_mec -= 1
        if state.busy_mec == 0:
            record = state.in_service_mec
            completions.append(CompletionEvent(record.task, record.mode, state.slot))
            state.in_service_mec = None

    # Queue recursion: departures first, then the slot's arrival at the tail.
    for _ in range(n_scheduled):
        state.queue.popleft()
    if arrival is not None:
        state.queue.append(arrival)

    state.slot += 1
    return state, completions, tx_bits
