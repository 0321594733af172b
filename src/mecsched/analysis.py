"""Closed-form expectations, feasibility regimes, and performance bounds.

This module carries the quantities the simulator is checked against:

- exact expected uplink bits per task for both execution modes under
  i.i.d. content draws,
- seeded Monte Carlo estimates of the mean busy-slot counts,
- the minimum achievable long-run data average and its feasibility
  regime as a function of the arrival rate,
- the additive optimality-gap bound of the drift-plus-penalty rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .catalog import ContentCatalog
from .dynamics import SystemParams, slots_local, slots_mec, task_bits
from .workload import draw_contents

__all__ = [
    "uniform_k_dist",
    "expected_mec_bits",
    "expected_local_bits",
    "SlotMeanEstimate",
    "estimate_slot_means",
    "RegimeReport",
    "REGIME_LOCAL_ONLY",
    "REGIME_MIXED",
    "REGIME_INFEASIBLE",
    "optimal_average_data",
    "optimality_gap_bound",
]

# Tasks sampled and counted per step of the Monte Carlo estimate.  Each
# step pays fixed costs (numpy dispatch, the slot counts' error-state
# switch), and its temporaries span the step, so a single step would raise
# the peak memory.  The stream is the same for any step size.
_STEP_TASKS = 4096

REGIME_LOCAL_ONLY = "local_only_optimal"
REGIME_MIXED = "mixed"
REGIME_INFEASIBLE = "infeasible"


def uniform_k_dist(k_min: int, k_max: int) -> range:
    """The contents-per-task counts ``k_min..k_max``, as the ``ks`` the
    functions below take: each value equally likely."""
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"need 1 <= k_min <= k_max, got ({k_min}, {k_max})")
    return range(k_min, k_max + 1)


def _check_ks(ks: range) -> float:
    """The probability of each of the equally likely counts ``ks``."""
    if not (isinstance(ks, range) and ks and ks.step == 1 and ks.start >= 1):
        raise ValueError(f"contents-per-task counts must be a non-empty step-1 range from 1, got {ks!r}")
    return 1.0 / len(ks)


def expected_mec_bits(size_bits: float, ks: range) -> float:
    """Expected uplink bits per offloaded task.

    An offloaded task ships all of its ``k`` contents, so this is just
    ``size_bits * E[k]``.

    Parameters
    ----------
    size_bits : float
        Size of one content in bits.
    ks : range
        The contents-per-task counts, each equally likely.
    """
    p = _check_ks(ks)
    # A running sum in the order of ``sum(k * p for k in ks)``, so the same
    # bits, without a Python step per k.
    terms = np.arange(ks.start, ks.stop, dtype=np.float64)
    terms *= p
    return size_bits * float(np.cumsum(terms, out=terms)[-1])


def expected_local_bits(
    size_bits: float,
    popularity: np.ndarray,
    capacity: int,
    ks: range,
) -> float:
    """Expected uplink bits per locally executed task.

    A local task fetches each uncached content rank at most once, so with
    i.i.d. draws the expected distinct-uncached count for a task of ``k``
    contents is ``sum_n (1 - (1 - p_n)^k)`` over the uncached ranks ``n``.
    The returned value averages that over ``ks`` and scales by the
    content size; it is exact, not an approximation.

    Parameters
    ----------
    size_bits : float
        Size of one content in bits.
    popularity : numpy.ndarray
        Per-rank request probabilities.
    capacity : int
        Cache capacity in contents; ranks ``1..capacity`` are never fetched.
    ks : range
        The contents-per-task counts, each equally likely.
    """
    p = _check_ks(ks)
    pop = np.asarray(popularity, dtype=np.float64)
    if not 0 <= capacity <= len(pop):
        raise ValueError(f"capacity {capacity} outside 0..{len(pop)}")
    miss = 1.0 - pop[capacity:]
    if miss.size == 0:
        return 0.0
    # expected distinct uncached contents for each k, then average over k
    distinct = (1.0 - np.power.outer(miss, np.arange(ks.start, ks.stop, dtype=np.float64))).sum(axis=0)
    return size_bits * float(np.dot(np.full(len(ks), p), distinct))


@dataclass(frozen=True)
class SlotMeanEstimate:
    """Monte Carlo means of the per-task busy-slot counts.

    ``local_mean`` / ``mec_mean`` estimate the expected whole-slot counts
    of the two execution modes; the ``*_se`` fields are standard errors of
    those means over ``samples`` independently drawn tasks.
    """

    local_mean: float
    mec_mean: float
    local_se: float
    mec_se: float
    samples: int


def estimate_slot_means(
    catalog: ContentCatalog,
    capacity: int,
    params: SystemParams,
    ks: range,
    samples: int = 20000,
    seed: int = 0,
) -> SlotMeanEstimate:
    """Estimate the mean busy-slot counts by sampling tasks.

    Tasks are drawn exactly as the workload generator draws them (``k``
    from ``ks``, each value equally likely; contents i.i.d. from the
    catalog popularity) and pushed through the same slot-count formulas
    the simulator uses, so the estimate is the canonical evaluator for
    quantities that have no closed form.  Deterministic given ``seed``.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    p = _check_ks(ks)
    rng = np.random.default_rng(seed)
    # Passing p, rather than calling integers, keeps every analyze CSV's stream.
    drawn_ks = rng.choice(np.arange(ks.start, ks.stop, dtype=np.int64), size=samples, p=np.full(len(ks), p))
    # Each task's contents are the next k uniforms of the stream.
    local_counts = np.empty(samples, dtype=np.float64)
    mec_counts = np.empty(samples, dtype=np.float64)
    for first in range(0, samples, _STEP_TASKS):
        chunk = drawn_ks[first:first + _STEP_TASKS]
        distinct = draw_contents(rng, catalog, chunk, capacity)
        local_bits, mec_bits = task_bits(catalog, chunk, distinct)
        local_counts[first:first + chunk.size] = slots_local(mec_bits, local_bits, params)
        mec_counts[first:first + chunk.size] = slots_mec(mec_bits, params)
    return SlotMeanEstimate(
        local_mean=float(local_counts.mean()),
        mec_mean=float(mec_counts.mean()),
        local_se=float(local_counts.std(ddof=1) / math.sqrt(samples)),
        mec_se=float(mec_counts.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
    )


@dataclass(frozen=True)
class RegimeReport:
    """Feasibility regime and minimum long-run data average.

    ``optimal_bits`` is ``None`` exactly when the regime is infeasible.
    """

    regime: str
    optimal_bits: Optional[float]


def _mixed_regime_bits(
    local_slot_mean: float, arrival_prob: float, mec_bits_mean: float, local_bits_mean: float
) -> float:
    """Data average when local capacity is saturated and the edge server
    absorbs the rest: the local share ``1 / (arrival_prob * local_slot_mean)``
    of tasks ships the local bits, the remainder ships full tasks.  At a
    local share of exactly 1 this reduces to ``local_bits_mean``."""
    share = 1.0 / (arrival_prob * local_slot_mean)
    return mec_bits_mean - share * (mec_bits_mean - local_bits_mean)


def optimal_average_data(
    local_slot_mean: float,
    mec_slot_mean: float,
    arrival_prob: float,
    mec_bits_mean: float,
    local_bits_mean: float,
) -> RegimeReport:
    """Minimum achievable long-run uplink bits per task, with its regime.

    Three regimes, by comparing the arrival rate with the service rates
    ``1 / local_slot_mean`` and ``1 / mec_slot_mean``:

    - local capacity alone covers the arrivals: run everything locally,
      the optimum is the mean local bits;
    - local capacity is short but both processors together cover the
      arrivals: saturate local, offload the overflow (mixed formula);
    - otherwise the arrival rate exceeds total capacity: infeasible, no
      finite-queue schedule exists and ``optimal_bits`` is ``None``.
    """
    if local_slot_mean < 1 or mec_slot_mean < 1:
        raise ValueError(
            f"slot means must be at least 1, got ({local_slot_mean}, {mec_slot_mean})"
        )
    if not 0 < arrival_prob <= 1:
        raise ValueError(f"arrival_prob must lie in (0, 1], got {arrival_prob}")
    if mec_bits_mean < 0 or local_bits_mean < 0:
        raise ValueError("mean bit sizes must be non-negative")

    if 1.0 / local_slot_mean >= arrival_prob:
        regime, optimal = REGIME_LOCAL_ONLY, local_bits_mean
    elif 1.0 / local_slot_mean + 1.0 / mec_slot_mean >= arrival_prob:
        regime = REGIME_MIXED
        optimal = _mixed_regime_bits(local_slot_mean, arrival_prob, mec_bits_mean, local_bits_mean)
    else:
        regime, optimal = REGIME_INFEASIBLE, None
    return RegimeReport(regime=regime, optimal_bits=optimal)


def optimality_gap_bound(v: float) -> float:
    """Additive bound on how far the drift-plus-penalty rule's long-run
    data average can sit above the optimum: ``5 / (2 v)``.

    ``v`` is the policy weight in 1/bits, so the bound is in bits.  At
    ``v = 0`` the policy ignores data entirely and the bound is infinite.
    """
    if not v >= 0:
        raise ValueError(f"v must be non-negative, got {v}")
    if v == 0:
        return math.inf
    return 5.0 / (2.0 * v)

