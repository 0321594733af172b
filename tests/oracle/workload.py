# Frozen copy of mecsched/workload.py from the object-per-task engine (a Task
# object per arrival, a deque queue, SystemState and step), kept as the
# differential oracle for tests/test_oracle.py.  Only the imports were edited;
# do not change anything else.

"""Bernoulli task arrivals and random task composition.

At most one task arrives per slot (probability ``arrival_prob``).  A task
requests ``k`` contents, ``k`` uniform on ``{k_min..k_max}``, each content
drawn independently from the catalog popularity; repeats are allowed and
the task size in bits is ``k * size_bits`` regardless of repeats.

Arrivals and composition are sampled from two separately seeded streams
(see :func:`task_streams`) so that changing the arrival probability in a
sweep does not perturb the content sequence of the sampled tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mecsched.catalog import ContentCatalog

__all__ = [
    "Task",
    "WorkloadConfig",
    "task_streams",
    "sample_arrival",
    "sample_content_indices",
    "sample_task",
]


@dataclass(eq=False)
class Task:
    """One computation task.

    ``id`` equals the arrival slot: with at most one Bernoulli arrival per
    slot that is already unique, and tasks sampled outside a simulation
    (e.g. by Monte Carlo estimators) just pass their sample index.
    """

    id: int
    arrival_slot: int
    contents: np.ndarray  # 1-based content ranks, length k, repeats allowed
    total_bits: float  # k * size_bits, the full task size
    # Distinct-uncached counts keyed by cache capacity; filled lazily by
    # dynamics.uncached_distinct_bits so a task parked at the queue head is
    # not re-counted every slot.
    _distinct_uncached: dict = field(default_factory=dict, repr=False)

    @property
    def k(self) -> int:
        return len(self.contents)


@dataclass(frozen=True)
class WorkloadConfig:
    arrival_prob: float
    k_min: int
    k_max: int
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.arrival_prob <= 1.0:
            raise ValueError(f"arrival_prob must lie in [0, 1], got {self.arrival_prob}")
        if self.k_min < 1:
            raise ValueError(f"k_min must be at least 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ValueError(f"k_max {self.k_max} below k_min {self.k_min}")


def task_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Two independent generators derived from one seed.

    Returns ``(arrival_rng, composition_rng)``.  Keeping the streams apart
    means the i-th sampled task has the same composition whatever the
    arrival pattern was.
    """
    arrival_ss, composition_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(arrival_ss), np.random.default_rng(composition_ss)


def sample_arrival(rng: np.random.Generator, cfg: WorkloadConfig) -> bool:
    """One Bernoulli arrival draw.  Advances ``rng`` by exactly one value."""
    return bool(rng.random() < cfg.arrival_prob)


def sample_content_indices(rng: np.random.Generator, catalog: ContentCatalog, k: int) -> np.ndarray:
    """``k`` i.i.d. content ranks drawn from the catalog popularity."""
    u = rng.random(k)
    return np.searchsorted(catalog.cdf, u, side="right").astype(np.int64) + 1


def sample_task(
    rng: np.random.Generator,
    catalog: ContentCatalog,
    cfg: WorkloadConfig,
    slot: int,
) -> Task:
    """Draw one task arriving at ``slot``.

    Consumes one ``integers`` draw for ``k`` and one vector draw for the
    contents, so a fixed seed reproduces the stream bit for bit.
    """
    k = int(rng.integers(cfg.k_min, cfg.k_max + 1))
    contents = sample_content_indices(rng, catalog, k)
    return Task(
        id=slot,
        arrival_slot=slot,
        contents=contents,
        total_bits=catalog.size_bits * k,
    )
