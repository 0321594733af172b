"""
More cache, less uplink data
============================

Sweeps the device cache from empty to 100 contents and watches the
scheduler's mean transmitted data per task fall.  Even with no cache at
all the two-processor schedule beats offloading everything, because
local execution only fetches distinct uncached contents.
"""

import numpy as np

from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import avg_data_per_task, run_simulation
from mecsched.workload import draw_tasks

HORIZON = 20000
SEEDS = (0, 1)

offload = ExperimentConfig(horizon_slots=HORIZON, policy="mec_only").validate()
catalog, capacity, params, wl, policy = build_system(offload)
baseline = np.mean([
    avg_data_per_task(run_simulation(draw_tasks(catalog, capacity, wl, HORIZON, s), params, policy))
    for s in SEEDS
])
print(f"offload-everything baseline: {baseline / 1e6:.1f} Mbit per task\n")

print("cache    mean data    vs baseline")
for m in (0, 20, 40, 60, 80, 100):
    config = ExperimentConfig(horizon_slots=HORIZON, cache_m=m, v_param=1e-6).validate()
    catalog, capacity, params, wl, policy = build_system(config)
    values = [
        avg_data_per_task(run_simulation(draw_tasks(catalog, capacity, wl, HORIZON, s), params, policy))
        for s in SEEDS
    ]
    mean = float(np.mean(values))
    print(f"{m:5d}    {mean / 1e6:6.1f} Mbit   {mean / baseline:.0%}")
