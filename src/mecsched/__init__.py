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

- ``catalog``   content universe and its Zipf popularity; a cache of capacity ``m``
                holds the ``m`` most popular ranks
- ``workload``  arrivals, task composition and Monte Carlo samples: the only draws
- ``dynamics``  uplink bits and busy-slot counts of the two execution modes
- ``policy``    the five actions, the feasibility rule, the scheduling rules
- ``engine``    the task-table draw, the pointer-queue simulation loop and run metrics
- ``_kernel``   builds and loads the draws and the slot loop in C, where a C compiler
                exists, as ``_kernel.lib``
- ``analysis``  closed-form expectations, regimes and bounds
- ``cli``       config files, experiment commands, CSV output
"""

__version__ = "0.1.0"
