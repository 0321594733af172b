"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration file, override, or run setup is invalid."""


class ContractViolation(RuntimeError):
    """A run broke an invariant of its own bookkeeping: task conservation
    (every arrival completed, still queued or in service at the horizon)."""


class MetricUndefined(ValueError):
    """A metric has no defined value for this run, e.g. data per task
    when no task was ever scheduled."""
