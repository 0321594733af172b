"""Experiment configuration: defaults, file parsing, validation.

Config files are line oriented ``key = value`` text; blank lines and
``#`` comments are ignored.  The keys are the field names of
:class:`ExperimentConfig`, with three exceptions: the key ``lambda`` sets
the ``arrival_prob`` field (``lambda`` is reserved in Python),
``warmup_frac`` is no key (the CLI sets it with ``--warmup-frac``), and
neither is ``sources``.  Config lines, ``--set`` items and ``--seeds`` all
reach a field through :func:`set_key`, which records in ``sources`` where
each key was last set and fails at once on an unknown key or bad text.
:meth:`ExperimentConfig.validate` checks ranges once, on the finished
config, so a file need not be valid on its own.  Both errors name the source.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

from .catalog import MAX_CONTENTS, ContentCatalog
from .dynamics import SystemParams
from .errors import ConfigError
from .policy import POLICY_KINDS, PolicySpec
from .workload import WorkloadConfig

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "parse_int",
    "parse_list",
    "apply_overrides",
    "set_key",
    "build_system",
]

SWEEP_AXES = ("cache_m", "f_local_hz", "v_param", "rate_bps")


@dataclass
class ExperimentConfig:
    """One experiment's parameters.  Defaults reproduce the reference
    operating point used throughout the test suite."""

    n_contents: int = 1000
    zipf_alpha: float = 0.8
    tau_bits: float = 5e6
    cache_m: int = 50
    slot_seconds: float = 0.2
    arrival_prob: float = 0.4
    w_cycles_per_bit: float = 1.0
    f_local_hz: float = 1e9
    f_mec_hz: float = 1e10
    rate_bps: float = 5e8
    v_param: float = 1e-6
    horizon_slots: int = 100000
    k_min: int = 40
    k_max: int = 60
    policy: str = "lyapunov"
    sweep_axis: Optional[str] = None
    sweep_values: Optional[list[float]] = None
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    warmup_frac: float = 0.1
    # config key -> where it was last set (a file line, a flag); no entry,
    # or None, for a key left at its default or set in code.
    sources: dict[str, Optional[str]] = field(default_factory=dict, compare=False, repr=False)

    def key_error(self, key: str, msg: str) -> ConfigError:
        """A ``ConfigError`` about config key ``key``, naming where it was set."""
        where = self.sources.get(key)
        return ConfigError(f"{where + ': ' if where else ''}config key {key!r}: {msg}")

    def validate(self) -> "ExperimentConfig":
        for key, (name, parse, expected) in _KEYS.items():
            value = getattr(self, name)
            if parse is float and expected and not math.isfinite(value):  # not a list
                raise self.key_error(key, f"must be a finite number, got {value}")
        if not 1 <= self.n_contents <= MAX_CONTENTS:
            raise self.key_error("n_contents", f"must lie in 1..{MAX_CONTENTS}, got {self.n_contents}")
        if not self.zipf_alpha >= 0:
            raise self.key_error("zipf_alpha", f"must be non-negative, got {self.zipf_alpha}")
        if not self.tau_bits > 0:
            raise self.key_error("tau_bits", f"must be positive, got {self.tau_bits}")
        if not 0 <= self.cache_m <= self.n_contents:
            raise self.key_error("cache_m", f"must lie in 0..n_contents, got {self.cache_m}")
        if not self.slot_seconds > 0:
            raise self.key_error("slot_seconds", f"must be positive, got {self.slot_seconds}")
        if not 0 <= self.arrival_prob <= 1:
            raise self.key_error("lambda", f"must lie in [0, 1], got {self.arrival_prob}")
        for key in ("w_cycles_per_bit", "f_local_hz", "f_mec_hz", "rate_bps"):
            if not getattr(self, key) > 0:
                raise self.key_error(key, f"must be positive, got {getattr(self, key)}")
        if not self.v_param >= 0:
            raise self.key_error("v_param", f"must be non-negative, got {self.v_param}")
        if self.horizon_slots < 1:
            raise self.key_error("horizon_slots", f"must be at least 1, got {self.horizon_slots}")
        if self.k_min < 1:
            raise self.key_error("k_min", f"must be at least 1, got {self.k_min}")
        if self.k_max < self.k_min:
            raise self.key_error("k_max", f"must be >= k_min, got {self.k_max} < {self.k_min}")
        if self.policy not in POLICY_KINDS:
            raise self.key_error("policy", f"must be one of {POLICY_KINDS}, got {self.policy!r}")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise self.key_error("sweep_axis", f"must be one of {SWEEP_AXES}, got {self.sweep_axis!r}")
            if not self.sweep_values:
                raise self.key_error("sweep_values", "must be a non-empty list when sweep_axis is set")
            for _, point in sweep_configs(self):
                point.validate()
        if not self.seeds or min(self.seeds) < 0:
            raise self.key_error("seeds", f"must be a non-empty list of non-negative integers, got {self.seeds}")
        if not 0 <= self.warmup_frac < 1:
            # No config key: its flag, when set, names it.
            where = self.sources.get("warmup_frac")
            label = f"{where}:" if where else "warmup_frac"
            raise ConfigError(f"{label} must lie in [0, 1), got {self.warmup_frac}")
        return self


def _set_axis_value(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis == "cache_m":
        if not float(value).is_integer():
            raise config.key_error("sweep_values", f"cache_m values must be integers, got {value}")
        return dataclasses.replace(config, cache_m=int(value))
    return dataclasses.replace(config, **{axis: value})


def sweep_configs(config: ExperimentConfig) -> list[tuple[float, ExperimentConfig]]:
    """Expand a sweep config into (axis value, point config) pairs.  A
    point's axis value, and so its source, is that of ``sweep_values``."""
    axis = config.sweep_axis
    if axis is None:
        raise ConfigError("sweep requested but config sets no sweep_axis")
    sources = {**config.sources, axis: config.sources.get("sweep_values")}
    base = dataclasses.replace(config, sweep_axis=None, sweep_values=None, sources=sources)
    return [(v, _set_axis_value(base, axis, v)) for v in config.sweep_values]


def parse_int(raw: str) -> int:
    """Parse an integer, accepting 1e5-style notation; raises ValueError
    for anything that is not a finite whole number."""
    as_float = float(raw)
    if not as_float.is_integer():
        raise ValueError(f"not a whole number: {raw!r}")
    return int(as_float)


def parse_list(raw: str, parse, where: str) -> list:
    """The comma-separated items of ``raw`` read by ``parse`` (parse_int or
    float), blank ones skipped; bad text raises a ConfigError naming ``where``."""
    try:
        return [parse(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        kind = "integers" if parse is parse_int else "numbers"
        raise ConfigError(f"{where}: expected comma-separated {kind}, got {raw!r}") from None


# field type -> (parser of a value's text, what a parse error says was
# expected; a list's item parser and None, for parse_list).  The types are
# annotation text, as this module defers annotations; a field of a type
# not listed here fails at import.
_PARSERS = {
    "int": (parse_int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "Optional[str]": (str, "text"),
    "list[int]": (parse_int, None),
    "Optional[list[float]]": (float, None),
}

# config key -> (field, parser, expected text): every field is its own key,
# except that ``lambda`` names ``arrival_prob`` and neither ``warmup_frac``
# nor ``sources`` is a key.
_KEYS = {
    ("lambda" if f.name == "arrival_prob" else f.name): (f.name, *_PARSERS[f.type])
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in ("warmup_frac", "sources")
}


def set_key(config: ExperimentConfig, key: str, raw: str, where: str) -> None:
    """Assign config key ``key`` from its text ``raw``, unvalidated, and
    record ``where`` the text came from (a file line, a flag).  Errors name
    that source and the key."""
    if key not in _KEYS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    name, parse, expected = _KEYS[key]
    if expected is None:
        value = parse_list(raw, parse, f"{where}: config key {key!r}")
    else:
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"{where}: config key {key!r}: expected {expected}, got {raw!r}") from None
    setattr(config, name, value)
    config.sources[key] = where


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse ``key = value`` lines into a config, unvalidated."""
    config = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        set_key(config, key, raw, f"{source}:{lineno}")
    return config


def load_config(path) -> ExperimentConfig:
    """Read a config file, unvalidated; missing keys keep their defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` strings (the --set flag) to a config, unvalidated."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        set_key(config, key, raw, f"override {item!r}")
    return config


def build_system(config: ExperimentConfig, catalogs: Optional[dict] = None):
    """Materialise the simulator objects a config describes.

    Returns ``(catalog, capacity, params, workload_cfg, policy)``, where
    ``capacity`` is ``config.cache_m``, the number of most popular ranks
    the device cache holds.  A value the objects reject raises
    :class:`ConfigError`; a catalog rejected after validation (a Zipf
    exponent so large that the tail popularity underflows to zero) names
    ``zipf_alpha`` and where it was set, and a ``k`` span too wide for the
    workload names ``k_max`` and where it was set.
    ``catalogs``, when given, is a memo of catalogs by ``(n_contents,
    zipf_alpha, tau_bits)``: the catalog comes from there, and is built and
    stored there on first use.
    """
    key = (config.n_contents, config.zipf_alpha, config.tau_bits)
    catalog = None if catalogs is None else catalogs.get(key)
    if catalog is None:
        try:
            catalog = ContentCatalog.zipf(*key)
        except ValueError as exc:
            raise config.key_error("zipf_alpha", f"gives a popularity the catalog rejects: {exc}") from exc
        if catalogs is not None:
            catalogs[key] = catalog
    try:
        params = SystemParams(
            slot_seconds=config.slot_seconds,
            cycles_per_bit=config.w_cycles_per_bit,
            f_local_hz=config.f_local_hz,
            f_mec_hz=config.f_mec_hz,
            rate_bps=config.rate_bps,
        )
        policy = PolicySpec(kind=config.policy, v_param=config.v_param)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        workload_cfg = WorkloadConfig(
            arrival_prob=config.arrival_prob,
            k_min=config.k_min,
            k_max=config.k_max,
        )
    except ValueError as exc:
        # Validation has checked all but the k span, which only WorkloadConfig bounds.
        raise config.key_error("k_max", str(exc)) from exc
    return catalog, config.cache_m, params, workload_cfg, policy
