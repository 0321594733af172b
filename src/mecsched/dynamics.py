"""Uplink bits and busy-slot counts of the two execution modes.

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

These are the four numbers a task contributes to a run; the functions
here compute them for a whole task table at once.  The engine's slot loop
uses them as follows: a task started in slot ``t`` with count ``n``
completes at the end of slot ``t + n - 1``, and its processor stays busy
for the ``n - 1`` slots after ``t``, so a one-slot task never shows up as
busy at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import ContentCatalog

__all__ = ["SystemParams", "task_bits", "slots_local", "slots_mec"]

# Busy-slot cap: beyond every horizon (those are below 2**53), and a start
# slot plus the count stays inside int64.
_NEVER_DONE = 2.0**62


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


def task_bits(catalog: ContentCatalog, ks, distinct_uncached) -> tuple[np.ndarray, np.ndarray]:
    """Per task, ``(local_bits, mec_bits)``: the distinct uncached bits a
    local run fetches and the full task an offload ships."""
    size = float(catalog.size_bits)
    return size * np.asarray(distinct_uncached), size * np.asarray(ks)


def slots_local(total_bits, fetch_bits, params: SystemParams) -> np.ndarray:
    """Whole slots to finish each task on the device CPU.

    Computation covers the full task size; transmission covers only the
    distinct uncached bits.  Always at least 1; a task that could not
    finish within any horizon gets ``2**62``.
    """
    return _busy_slots(total_bits, fetch_bits, params.f_local_hz, params)


def slots_mec(total_bits, params: SystemParams) -> np.ndarray:
    """Whole slots to finish each task on the edge server (compute + uplink)."""
    return _busy_slots(total_bits, total_bits, params.f_mec_hz, params)


def _busy_slots(total_bits, shipped_bits, f_hz: float, params: SystemParams) -> np.ndarray:
    # A division that overflows, or is undefined as 0/0 once a product of
    # tiny rates underflows, is a duration past every horizon: the cap
    # defines the result, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        compute = np.asarray(total_bits) * params.cycles_per_bit / (f_hz * params.slot_seconds)
        ship = np.asarray(shipped_bits) / (params.rate_bps * params.slot_seconds)
    # A duration that underflows to zero still occupies its start slot.  One
    # too long for any horizon (infinite, or undefined as 0/0 when the rate
    # times the slot length underflows) is capped at _NEVER_DONE, so the
    # task stays in service for the rest of the run.
    slots = np.ceil(compute + ship)
    np.maximum(slots, 1, out=slots)
    np.fmin(slots, _NEVER_DONE, out=slots)
    return slots.astype(np.int64)
