"""
One simulated run, start to finish
==================================

Simulates 20000 slots at the reference operating point with a small
data-vs-delay weight and prints every headline metric the run produces.
"""

from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import (
    avg_data_per_task,
    avg_queue_length,
    draw_tasks,
    little_delay,
    mean_delay_slots,
    run_simulation,
)

config = ExperimentConfig(horizon_slots=20000, v_param=1e-8).validate()
catalog, cache, params, workload_cfg, policy = build_system(config)

tasks = draw_tasks(catalog, cache, workload_cfg, config.horizon_slots, seed=0)
metrics = run_simulation(tasks, params, policy, warmup_frac=config.warmup_frac, collect_series=True)

print(f"policy {policy.kind}, weight {policy.v_param:g} per bit")
print(f"slots simulated            {metrics.horizon_slots}")
print(f"arrivals / completions     {metrics.arrivals} / {metrics.completions}")
print(f"still queued or in service {metrics.arrivals - metrics.completions}")
print(f"mean data per task         {avg_data_per_task(metrics) / 1e6:.2f} Mbit")
print(f"mean queue length          {avg_queue_length(metrics):.3f} tasks")

# two delay views: the queueing-law estimate from the mean queue, and the
# measured arrival-to-completion time of post-warmup tasks
law = little_delay(metrics, config.arrival_prob, config.slot_seconds)
measured = mean_delay_slots(metrics) * config.slot_seconds
print(f"waiting time (queue law)   {law * 1e3:.0f} ms")
print(f"measured time in system    {measured * 1e3:.0f} ms")
print(f"queue diverging?           {metrics.infeasibility_flag}")
print(f"drift inequality breaks    {metrics.drift_violations}")
