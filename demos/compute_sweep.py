"""
Faster device CPU, less uplink data
===================================

With more local compute the device can run more tasks itself, and a
local task only needs its uncached contents fetched.  As the CPU
frequency grows past the point where local capacity covers the arrival
rate, the measured data per task settles onto the closed-form mean fetch
size of a locally executed task.
"""

import numpy as np

from mecsched.analysis import (
    estimate_slot_means,
    expected_local_bits,
    uniform_k_dist,
)
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import avg_data_per_task, run_simulation
from mecsched.workload import draw_tasks

HORIZON = 20000
dist = uniform_k_dist(40, 60)

floor = None
print("f_local      local rate   mean data")
for f in (1e9, 1.5e9, 2e9, 5e9, 1e10):
    config = ExperimentConfig(horizon_slots=HORIZON, f_local_hz=f, v_param=3e-7).validate()
    catalog, capacity, params, wl, policy = build_system(config)
    if floor is None:
        floor = expected_local_bits(catalog.size_bits, catalog.popularity, config.cache_m, dist)
    est = estimate_slot_means(catalog, capacity, params, dist, samples=5000, seed=0)
    values = [
        avg_data_per_task(run_simulation(draw_tasks(catalog, capacity, wl, HORIZON, s), params, policy))
        for s in (0, 1)
    ]
    # 1/mean busy slots = tasks per slot the device alone can absorb
    rate = 1.0 / est.local_mean
    print(f"{f:8.2g} Hz   {rate:.3f}/slot   {np.mean(values) / 1e6:6.1f} Mbit")

print(f"\nall-local closed form: {floor / 1e6:.1f} Mbit per task")
print("(the arrival rate is 0.4 tasks per slot; once the local rate clears")
print(" it, nearly everything runs on the device and the sweep flattens)")
