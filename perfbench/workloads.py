"""The benchmark's workloads: one experiment command each, sized from the seed.

Every workload is a fixed operating point; the workload seed only picks the
simulation seeds the command runs (``seed * 100 + i``), so the same seed
gives the same config and, the simulator being deterministic, the same CSV.
This module imports neither numpy nor mecsched, so the parent process that
spawns the measured children stays small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# The seed whose CSV digests are stored in digests.json.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    command: str  # "simulate", "sweep" or "analyze"
    fields: dict = field(default_factory=dict)  # ExperimentConfig overrides
    n_seeds: int = 1
    samples: int = 0  # Monte Carlo tasks, analyze only
    unit: str = "slots"  # what units_per_s counts


WORKLOADS = {
    # The paper's headline point (mixed regime), where the decision layer
    # does the most work; several seeds, as a lockstep engine would batch.
    "simulate_mixed": Workload(
        command="simulate",
        fields={"policy": "lyapunov", "arrival_prob": 0.4, "v_param": 1e-6, "horizon_slots": 15000},
        n_seeds=3,
    ),
    # The infeasible regime: the queue grows to about two thousand live
    # tasks and sampling is the largest layer.
    "sweep_overload": Workload(
        command="sweep",
        fields={
            "policy": "lyapunov",
            "arrival_prob": 0.8,
            "horizon_slots": 10000,
            "sweep_axis": "v_param",
            "sweep_values": [0.0, 1e-7, 1e-6],
        },
        n_seeds=2,
    ),
    # Bypasses engine and policy: sampling and slot counts only.
    "analyze_mc": Workload(command="analyze", samples=50000, unit="samples"),
}


def config_fields(workload: Workload, seed: int) -> dict:
    """``ExperimentConfig`` keyword arguments for one workload seed."""
    return {**workload.fields, "seeds": [seed * 100 + i for i in range(workload.n_seeds)]}


def operations(workload: Workload) -> int:
    """Operations one command performs: simulation runs, or one analyze call."""
    if workload.command == "analyze":
        return 1
    return workload.n_seeds * len(workload.fields.get("sweep_values") or [None])


def work_units(workload: Workload) -> int:
    """Simulated slots (simulate, sweep) or Monte Carlo samples (analyze)."""
    if workload.command == "analyze":
        return workload.samples
    return operations(workload) * workload.fields["horizon_slots"]
