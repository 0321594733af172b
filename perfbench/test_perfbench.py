"""Tests of the benchmark's own logic: self time, tracing, output checks.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import ROOT, Span  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("a", 0.0, 10.0, ROOT),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("a", 11.0, 12.0, ROOT),
    ]
    stats = tracing.self_times(spans)
    assert stats["a"] == (2, pytest.approx(5.0 + 1.0))
    assert stats["b"] == (2, pytest.approx(2.0 + 2.0))
    assert stats["c"] == (1, pytest.approx(1.0))
    assert sum(seconds for _, seconds in stats.values()) == pytest.approx(10.0 + 1.0)


def _fake_program():
    """A module whose ``outer`` calls ``inner`` through its module global."""
    module = types.ModuleType("fake_program")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    return module


def _ticking_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_tracer_records_nested_spans_and_observes_parent():
    module = _fake_program()
    seen = []
    tracer = tracing.Tracer(observers={"inner": lambda r, parent: seen.append((r, parent))}, clock=_ticking_clock())
    tracer.install((("outer", (("fake", "outer"),)), ("inner", (("fake", "inner"),))), resolve=lambda _: module)
    assert module.outer(1) == 4
    assert seen == [(2, "outer")]
    assert tracer.spans() == [Span("outer", 0.0, 3.0, ROOT), Span("inner", 1.0, 2.0, 0)]
    assert tracing.self_times(tracer.spans()) == {"outer": (1, 2.0), "inner": (1, 1.0)}
    tracer.uninstall()
    module.outer(1)
    assert len(tracer.spans()) == 2


def test_missing_boundary_is_absent_and_folds_into_parent():
    module = _fake_program()
    tracer = tracing.Tracer(clock=_ticking_clock())
    boundaries = (("outer", (("fake", "outer"),)), ("gone", (("fake", "no_such_function"),)))
    tracer.install(boundaries, resolve=lambda _: module)
    module.outer(1)
    assert tracer.absent == ["gone"]
    assert tracing.self_times(tracer.spans()) == {"outer": (1, 1.0)}
    table = tracing.layer_metrics({}, tracing.ModelCounters(), [], tracer.absent)
    assert table["trace.absent_boundaries"] == (1, "count")
    assert table["policy.decide.calls"] == (0, "count")


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_names = set(tracing.layer_metrics({}, tracing.ModelCounters(), [], [])) | {"trace.overhead_ratio"}
    assert layer_names == {m["name"] for m in spec["per_layer"]}
    child = {"setup_s": 0.2, "units": 10, "wall_s": 1.0, "reference_s": 0.04, "peak_rss_mb": 40.0}
    assert set(run.end_to_end([child])) == {m["name"] for m in spec["end_to_end"]}


@pytest.fixture(scope="module")
def simulated():
    """CSV text and RunMetrics of a small real simulate command."""
    from mecsched import cli
    from mecsched.config import ExperimentConfig

    runs = []
    original = cli.run_simulation
    tracing.passthrough(cli, "run_simulation", runs.append)
    try:
        rows = cli.cmd_simulate(ExperimentConfig(horizon_slots=3000, seeds=[0, 1]).validate())
    finally:
        cli.run_simulation = original
    return cli.rows_to_csv(rows, cli.SIMULATE_COLUMNS), runs


def _doctor(csv_text: str, row: int, column: str, value: str) -> str:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_checker_passes_real_output(simulated):
    csv_text, runs = simulated
    assert checks.check_simulation_rows(csv_text, runs) == [[], []]


@pytest.mark.parametrize(
    "column, value, expected",
    [
        ("avg_data_per_task_bits", "nan", "avg_data_per_task_bits=nan"),
        ("measured_mean_delay_s", "inf", "measured_mean_delay_s=inf"),
        ("completions", "999999", "completions 999999 > arrivals"),
    ],
)
def test_checker_flags_doctored_row(simulated, column, value, expected):
    csv_text, runs = simulated
    report = checks.check_simulation_rows(_doctor(csv_text, 1, column, value), runs)
    assert report[0] == []
    assert any(expected in problem for problem in report[1])


def test_checker_flags_drift_violation_and_missing_row(simulated):
    csv_text, runs = simulated
    broken = types.SimpleNamespace(**{**vars(runs[0]), "drift_violations": 3})
    assert checks.check_simulation_rows(csv_text, [broken, runs[1]])[0] == ["3 drift violations"]
    assert all(checks.check_simulation_rows(csv_text, runs[:1]))


def test_checker_allows_nan_where_metric_is_undefined(simulated):
    csv_text, runs = simulated
    never_scheduled = types.SimpleNamespace(**{**vars(runs[0]), "scheduled_after_warmup": 0})
    doctored = _doctor(csv_text, 0, "avg_data_per_task_bits", "nan")
    assert checks.check_simulation_rows(doctored, [never_scheduled, runs[1]])[0] == []


def test_checker_flags_wrong_digest(simulated):
    csv_text, _ = simulated
    assert checks.check_digest(csv_text, checks.csv_digest(csv_text)) == []
    assert checks.check_digest(_doctor(csv_text, 0, "seed", "7"), checks.csv_digest(csv_text))


def test_analyze_checker_compares_closed_forms():
    from mecsched import analysis, cli
    from mecsched.catalog import zipf_popularity
    from mecsched.config import ExperimentConfig

    cfg = ExperimentConfig(seeds=[0]).validate()
    rows, _ = cli.cmd_analyze(cfg, samples=200)
    csv_text = cli.rows_to_csv(rows, cli.ANALYZE_COLUMNS)
    k_dist = analysis.uniform_k_dist(cfg.k_min, cfg.k_max)
    mec = analysis.expected_mec_bits(cfg.tau_bits, k_dist)
    popularity = zipf_popularity(cfg.n_contents, cfg.zipf_alpha)
    local = analysis.expected_local_bits(cfg.tau_bits, popularity, cfg.cache_m, k_dist)
    assert checks.check_analyze_rows(csv_text, mec, local) == []
    assert checks.check_analyze_rows(csv_text, mec, local + 1.0)
    assert checks.check_analyze_rows(_doctor(csv_text, 0, "local_slot_mean", "nan"), mec, local)
