"""
The data-vs-delay dial
======================

The scheduler minimizes  -queue_length * tasks_scheduled + v * transmitted_bits
each slot.  Small v keeps the queue short and ignores data; large v
chases cheap transmissions and lets the queue stretch.  The long-run
data average is guaranteed to sit within 5/(2v) bits of the best
achievable value, so a few orders of magnitude of v trace the whole
tradeoff curve.
"""

import numpy as np

from mecsched.analysis import (
    estimate_slot_means,
    expected_local_bits,
    expected_mec_bits,
    optimal_average_data,
    optimality_gap_bound,
    uniform_k_dist,
)
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import avg_data_per_task, little_delay, run_simulation
from mecsched.workload import draw_tasks

HORIZON = 20000
dist = uniform_k_dist(40, 60)

config = ExperimentConfig(horizon_slots=HORIZON).validate()
catalog, capacity, params, wl, _ = build_system(config)
est = estimate_slot_means(catalog, capacity, params, dist, samples=20000, seed=0)
report = optimal_average_data(
    est.local_mean, est.mec_mean, config.arrival_prob,
    expected_mec_bits(catalog.size_bits, dist),
    expected_local_bits(catalog.size_bits, catalog.popularity, config.cache_m, dist),
)
print(f"operating regime: {report.regime}")
print(f"best achievable data average: {report.optimal_bits / 1e6:.1f} Mbit per task\n")

print("v            mean data    waiting     guarantee")
for v in (1e-9, 1e-8, 1e-7, 1e-6):
    cfg = ExperimentConfig(horizon_slots=HORIZON, v_param=v).validate()
    catalog, capacity, params, wl, policy = build_system(cfg)
    data = []
    wait = []
    for seed in (0, 1):
        m = run_simulation(draw_tasks(catalog, capacity, wl, HORIZON, seed), params, policy)
        data.append(avg_data_per_task(m))
        wait.append(little_delay(m, cfg.arrival_prob, cfg.slot_seconds))
    bound = optimality_gap_bound(v)
    print(
        f"{v:8.0e}   {np.mean(data) / 1e6:7.1f} Mbit  {np.mean(wait):7.2f} s"
        f"   opt + {bound / 1e6:.4g} Mbit"
    )
