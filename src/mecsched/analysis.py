"""Closed-form expectations, feasibility regimes, and performance bounds.

This module carries the quantities the simulator is checked against:

- exact expected uplink bits per task for both execution modes under
  i.i.d. content draws,
- seeded Monte Carlo estimates of the mean busy-slot counts, over tasks
  that :mod:`mecsched.workload` samples,
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
from .dynamics import SystemParams
from .workload import check_capacity, check_ks, sample_slot_counts

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

# Entries of the (uncached contents x k) power table that
# expected_local_bits builds at a time: 2 MB of float64, however large the
# catalog or the k span.
_TABLE_ENTRIES = 1 << 18

REGIME_LOCAL_ONLY = "local_only_optimal"
REGIME_MIXED = "mixed"
REGIME_INFEASIBLE = "infeasible"


def uniform_k_dist(k_min: int, k_max: int) -> range:
    """The contents-per-task counts ``k_min..k_max``, as the ``ks`` the
    functions below take: each value equally likely."""
    return check_ks(range(k_min, k_max + 1))


def _k_probability(ks: range) -> float:
    """The probability of each of the equally likely counts ``ks``."""
    return 1.0 / len(check_ks(ks))


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
    p = _k_probability(ks)
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
    p = _k_probability(ks)
    pop = np.asarray(popularity, dtype=np.float64)
    check_capacity(len(pop), capacity)
    miss = 1.0 - pop[capacity:]
    if miss.size == 0:
        return 0.0
    # Expected distinct uncached contents for each k, then the average over
    # k.  Every array as long as the span comes first, so a span that does
    # not fit in memory fails at once, not after its blocks.
    k = np.arange(ks.start, ks.stop, dtype=np.float64)
    distinct = np.empty_like(k)
    weights = np.full(len(ks), p)
    # numpy sums a block of one column pairwise, but a wider one row by row,
    # as it sums the whole table; so only a span of one k is one column wide.
    block = max(2, _TABLE_ENTRIES // miss.size)
    first = 0
    while first < k.size:
        stop = k.size if k.size - first <= block + 1 else first + block
        table = np.power.outer(miss, k[first:stop])
        np.subtract(1.0, table, out=table)
        distinct[first:stop] = table.sum(axis=0)
        first = stop
    return size_bits * float(np.dot(weights, distinct))


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

    :func:`~mecsched.workload.sample_slot_counts` draws the tasks (``k``
    from ``ks``, each value equally likely; contents i.i.d. from the catalog
    popularity) and counts them with the slot-count formulas the simulator
    uses, so the estimate is the canonical evaluator for quantities that
    have no closed form.  Deterministic given ``seed``.
    It also gives each mode's count sum and sum of squared deviations,
    both summed in numpy's pairwise order, so each mean, ``sum /
    samples``, is the counts' ``mean()`` and each standard error their
    ``std(ddof=1) / sqrt(samples)``, bit for bit, with no pass over the
    counts here.  The compiled estimate holds each count in 1, 2 or 8
    bytes, the narrowest that holds its mode's largest count: 2 bytes per
    sample at the defaults, 16 at most; the Python reference holds 24, its
    ``k`` values and two float64 counts.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    sums = np.empty(4)
    sample_slot_counts(catalog, capacity, params, ks, samples, seed, sums)
    local_sum, local_ssd, mec_sum, mec_ssd = sums.tolist()
    return SlotMeanEstimate(
        local_mean=local_sum / samples,
        mec_mean=mec_sum / samples,
        local_se=_standard_error(local_ssd, samples),
        mec_se=_standard_error(mec_ssd, samples),
        samples=samples,
    )


def _standard_error(ssd: float, n: int) -> float:
    """The standard error of the mean of ``n`` values whose squared
    deviations from their mean sum to ``ssd``: ``std(ddof=1) /
    sqrt(n)``, with numpy's ``std``'s division and root."""
    return math.sqrt(ssd / (n - 1)) / math.sqrt(n)


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

