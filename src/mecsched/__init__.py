"""Slotted-time simulator and analysis toolkit for cache-aware task
scheduling between a mobile device and an edge server.

The system model: a device holds a FIFO queue of computation tasks, each
assembled from a random multiset of equally sized contents.  Popular
contents are pinned in a device cache.  In every slot a scheduler may
start the head task (and, when both processors are free, the next one)
on the local processor or ship it to the edge server, paying an uplink
transmission cost that depends on what the cache already holds.  The
shipped-bits / queueing-delay trade-off is steered by a drift-plus-penalty
rule with a single control weight.

Subpackage map:

- ``catalog``   content universe, Zipf popularity, the most-popular-first cache
- ``workload``  Bernoulli arrivals and task composition, drawn through the kernel
- ``dynamics``  uplink bits and busy-slot counts of the two execution modes
- ``policy``    the five actions, the feasibility rule, the scheduling rules
- ``engine``    the task-table draw, the pointer-queue simulation loop and run metrics
- ``_kernel``   builds and loads the task draw and the slot loop in C, where a C compiler
                exists, as ``_kernel.lib``
- ``analysis``  closed-form expectations, regimes and bounds
- ``cli``       config files, experiment commands, CSV output
"""

from .catalog import CacheConfig, ContentCatalog, zipf_popularity
from .workload import WorkloadConfig, sample_tasks
from .dynamics import SystemParams, slots_local, slots_mec, task_bits
from .policy import ACTION_IDLE, ACTIONS, PolicySpec, decide, feasible_actions
from .engine import (
    RunMetrics,
    TaskTable,
    avg_data_per_task,
    avg_queue_length,
    draw_tasks,
    little_delay,
    mean_delay_slots,
    run_simulation,
)
from .analysis import (
    RegimeReport,
    SlotMeanEstimate,
    estimate_slot_means,
    expected_local_bits,
    expected_mec_bits,
    optimal_average_data,
    optimality_gap_bound,
    uniform_k_dist,
)
from .errors import ConfigError, ContractViolation, MetricUndefined

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "ACTION_IDLE",
    "CacheConfig",
    "ConfigError",
    "ContentCatalog",
    "ContractViolation",
    "MetricUndefined",
    "PolicySpec",
    "RegimeReport",
    "RunMetrics",
    "SlotMeanEstimate",
    "SystemParams",
    "TaskTable",
    "WorkloadConfig",
    "avg_data_per_task",
    "avg_queue_length",
    "decide",
    "draw_tasks",
    "estimate_slot_means",
    "expected_local_bits",
    "expected_mec_bits",
    "feasible_actions",
    "little_delay",
    "mean_delay_slots",
    "optimal_average_data",
    "optimality_gap_bound",
    "run_simulation",
    "sample_tasks",
    "slots_local",
    "slots_mec",
    "task_bits",
    "uniform_k_dist",
    "zipf_popularity",
]
