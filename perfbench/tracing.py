"""Outside-in tracing of mecsched's layers.

Each boundary is a public function replaced, at the module attribute its
caller resolves, by a pass-through that records a span (layer name, start,
end, parent span) and hands the result to an optional observer.  Nothing in
the program changes; a boundary whose attribute no longer exists is reported
as absent, and the time it would have taken simply stays in its parent's
self time.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, NamedTuple, Optional

# Layer name -> the (module, attribute) sites its callers resolve.
BOUNDARIES: tuple[tuple[str, tuple[tuple[str, str], ...]], ...] = (
    ("cli.command", (("mecsched.cli", "cmd_simulate"), ("mecsched.cli", "cmd_sweep"), ("mecsched.cli", "cmd_analyze"))),
    ("cli.rows_to_csv", (("mecsched.cli", "rows_to_csv"),)),
    ("config.build_system", (("mecsched.cli", "build_system"), ("mecsched.config", "build_system"))),
    ("engine.run_simulation", (("mecsched.cli", "run_simulation"),)),
    ("policy.decide", (("mecsched.engine", "decide"),)),
    ("dynamics.step", (("mecsched.engine", "step"),)),
    ("workload.sample_task", (("mecsched.engine", "sample_task"),)),
    ("dynamics.transmitted_bits", (("mecsched.policy", "transmitted_bits"), ("mecsched.dynamics", "transmitted_bits"))),
    ("dynamics.slots_local", (("mecsched.dynamics", "slots_local"), ("mecsched.analysis", "slots_local"))),
    ("dynamics.slots_mec", (("mecsched.dynamics", "slots_mec"), ("mecsched.analysis", "slots_mec"))),
    ("analysis.estimate_slot_means", (("mecsched.cli", "estimate_slot_means"),)),
    ("workload.sample_content_indices", (("mecsched.analysis", "sample_content_indices"),)),
)

ROOT = -1  # parent index of a span with no traced caller


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, or ROOT


def passthrough(owner, attr: str, observe: Callable) -> None:
    """Replace ``owner.attr`` by a wrapper that passes each result to ``observe``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(result)
        return result

    setattr(owner, attr, wrapper)


class Tracer:
    """Records one span per call of each installed boundary, in call order.

    ``observers`` maps a layer name to ``f(result, parent_layer)``, called
    after each successful call of that layer; ``parent_layer`` is the layer
    of the enclosing span, or ``None`` at the root.
    """

    def __init__(self, observers: Optional[dict] = None, clock: Callable[[], float] = time.perf_counter):
        self._observers = observers or {}
        self._clock = clock
        self._layers: list[str] = []
        self._ids = array("l")
        self._parents = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [ROOT]
        self._undo: list[tuple] = []
        self.absent: list[str] = []

    def install(self, boundaries=BOUNDARIES, resolve=importlib.import_module) -> None:
        for layer, sites in boundaries:
            found = False
            for module_name, attr in sites:
                owner = resolve(module_name)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(layer, original))
                self._undo.append((owner, attr, original))
                found = True
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _layer_of(self, index: int) -> Optional[str]:
        return None if index == ROOT else self._layers[self._ids[index]]

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        if layer not in self._layers:
            self._layers.append(layer)
        layer_id = self._layers.index(layer)
        observer = self._observers.get(layer)
        ids, parents, starts, ends, stack, clock = (
            self._ids, self._parents, self._starts, self._ends, self._stack, self._clock
        )

        def wrapper(*args, **kwargs):
            index = len(ids)
            ids.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observer is not None:
                observer(result, self._layer_of(stack[-1]))
            return result

        return wrapper

    def spans(self) -> list[Span]:
        layers = self._layers
        return [
            Span(layers[i], s, e, p)
            for i, s, e, p in zip(self._ids, self._starts, self._ends, self._parents)
        ]


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Per layer: (calls, self seconds), where a span's self time is its
    duration minus the durations of its direct children.  Parents must
    precede their children in ``spans``, as they do in call order."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent != ROOT:
            covered[span.parent] += span.end - span.start
    totals: dict[str, tuple[int, float]] = {}
    for span, child_time in zip(spans, covered):
        calls, total = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, total + (span.end - span.start - child_time))
    return totals


# Action flag tuples (local_first, local_second, mec_first, mec_second).
ACTION_NAMES = {
    (0, 0, 0, 0): "idle",
    (1, 0, 0, 0): "first_local",
    (0, 0, 1, 0): "first_mec",
    (1, 0, 0, 1): "split_local_mec",
    (0, 1, 1, 0): "split_mec_local",
}


class ModelCounters:
    """Counts what the traced run decided: actions taken, and the busy
    slots ``step`` assigned to each processor."""

    def __init__(self):
        self.actions = dict.fromkeys(ACTION_NAMES.values(), 0)
        self.busy = {"local": 0, "mec": 0}

    def observers(self) -> dict:
        return {
            "policy.decide": self._on_decide,
            "dynamics.slots_local": lambda n, parent: self._on_slots("local", n, parent),
            "dynamics.slots_mec": lambda n, parent: self._on_slots("mec", n, parent),
        }

    def _on_decide(self, action, parent) -> None:
        name = ACTION_NAMES.get(tuple(action))
        if name is not None:
            self.actions[name] += 1

    def _on_slots(self, processor: str, n_slots: int, parent) -> None:
        if parent == "dynamics.step":
            self.busy[processor] += n_slots


def layer_metrics(stats: dict, counters: ModelCounters, runs: list, absent: list) -> dict:
    """The per-layer table, ``name -> (value, unit)``, for one traced command.

    ``stats`` comes from :func:`self_times`, ``runs`` holds the command's
    ``RunMetrics``.  A layer that never ran reports zero calls and time.
    """
    slots = sum(m.horizon_slots for m in runs)
    peak_queue = max(
        (int(m.queue_len_series.max()) for m in runs if m.queue_len_series is not None and m.queue_len_series.size),
        default=0,
    )
    out: dict = {}

    def ratio(num, den):
        return num / den if den else 0.0

    def layer(name, *, calls=True, self_s=True, us_per_call=False):
        n, seconds = stats.get(name, (0, 0.0))
        if calls:
            out[f"{name}.calls"] = (n, "count")
        if self_s:
            out[f"{name}.self_s"] = (seconds, "s")
        if us_per_call:
            out[f"{name}.us_per_call"] = (ratio(seconds * 1e6, n), "us")
        return n

    decides = layer("policy.decide", us_per_call=True)
    out["policy.decide.nonidle_ratio"] = (ratio(decides - counters.actions["idle"], decides), "ratio")
    for action, count in counters.actions.items():
        out[f"policy.action.{action}"] = (count, "count")
    transmits = layer("dynamics.transmitted_bits")
    out["dynamics.transmitted_bits.calls_per_slot"] = (ratio(transmits, slots), "1/slot")
    layer("dynamics.step")
    layer("dynamics.slots_local")
    layer("dynamics.slots_mec")
    layer("workload.sample_task", us_per_call=True)
    layer("workload.sample_content_indices", us_per_call=True)
    layer("engine.run_simulation")
    out["engine.slots"] = (slots, "count")
    out["engine.drift_violations"] = (sum(m.drift_violations for m in runs), "count")
    out["engine.peak_queue"] = (peak_queue, "count")
    layer("analysis.estimate_slot_means", calls=False)
    layer("config.build_system")
    layer("cli.command", calls=False)
    layer("cli.rows_to_csv", calls=False)
    out["model.local_busy_share"] = (ratio(counters.busy["local"], slots), "ratio")
    out["model.mec_busy_share"] = (ratio(counters.busy["mec"], slots), "ratio")
    out["trace.absent_boundaries"] = (len(absent), "count")
    return out
