"""
When the queue holds, and when it will not
==========================================

The two processors together absorb 1/mean_local_slots + 1/mean_mec_slots
tasks per slot.  Push the arrival rate past that and no schedule keeps
the queue finite; the run detector sees the windowed queue means climb
monotonically.  Below it, the queue settles.
"""

from mecsched.analysis import estimate_slot_means, uniform_k_dist
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import decile_means, run_simulation
from mecsched.workload import draw_tasks

HORIZON = 30000

config = ExperimentConfig().validate()
catalog, capacity, params, wl, _ = build_system(config)
est = estimate_slot_means(catalog, capacity, params, uniform_k_dist(40, 60), samples=10000, seed=0)
capacity = 1.0 / est.local_mean + 1.0 / est.mec_mean
print(f"service capacity: 1/{est.local_mean:.2f} + 1/{est.mec_mean:.2f} "
      f"= {capacity:.3f} tasks per slot\n")

for lam in (0.4, 0.8):
    cfg = ExperimentConfig(horizon_slots=HORIZON, arrival_prob=lam, v_param=1e-8).validate()
    catalog, capacity, params, wl, policy = build_system(cfg)
    m = run_simulation(draw_tasks(catalog, capacity, wl, HORIZON, seed=0), params, policy, collect_series=True)
    deciles = decile_means(m.queue_len_series)
    verdict = "diverging" if m.infeasibility_flag else "stable"
    print(f"arrival rate {lam}: {verdict}")
    print("  queue means by tenth of the run:")
    print("  " + "  ".join(f"{d:8.1f}" for d in deciles[:5]))
    print("  " + "  ".join(f"{d:8.1f}" for d in deciles[5:]))
