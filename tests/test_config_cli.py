from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import pytest

from mecsched import _kernel, cli
from mecsched.catalog import MAX_CONTENTS, ContentCatalog
from mecsched.cli import (
    FRONTIER_COLUMNS,
    SIMULATE_COLUMNS,
    SWEEP_COLUMNS,
    build_parser,
    cmd_analyze,
    cmd_frontier,
    cmd_simulate,
    cmd_sweep,
    main,
    rows_to_csv,
)
from mecsched.config import (
    SWEEP_AXES,
    ExperimentConfig,
    apply_overrides,
    build_system,
    load_config,
    parse_config_text,
    sweep_configs,
)
from mecsched.engine import avg_data_per_task, run_simulation
from mecsched.errors import ConfigError
from mecsched.workload import draw_tasks

CONFIG_TEXT = """
# reference point, tweaked
lambda = 0.3          # arrival probability
cache_m = 20
v_param = 1e-7
horizon_slots = 1e4   # scientific notation is fine for integers
seeds = 3, 4
policy = mec_only
"""


def test_parse_config_text_round_trip() -> None:
    config = parse_config_text(CONFIG_TEXT)
    assert config.arrival_prob == 0.3
    assert config.cache_m == 20
    assert config.v_param == 1e-7
    assert config.horizon_slots == 10000
    assert config.seeds == [3, 4]
    assert config.policy == "mec_only"
    # untouched keys keep their defaults
    assert config.n_contents == 1000
    assert config.rate_bps == 5e8


def test_parse_config_error_locations() -> None:
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("bogus_key = 1")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words")
    with pytest.raises(ConfigError, match="line 3|:3:"):
        parse_config_text("\n\nbogus_key = 1")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text("lambda = fast")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config_text("cache_m = 10.5")
    with pytest.raises(ConfigError, match="comma-separated integers"):
        parse_config_text("seeds = 1, two")


def test_load_config_file(tmp_path) -> None:
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    assert load_config(path) == parse_config_text(CONFIG_TEXT)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "missing.cfg")


def test_validation_failures() -> None:
    with pytest.raises(ConfigError, match="'lambda'"):
        ExperimentConfig(arrival_prob=1.5).validate()
    with pytest.raises(ConfigError, match="'cache_m'"):
        ExperimentConfig(cache_m=2000).validate()
    with pytest.raises(ConfigError, match="'policy'"):
        ExperimentConfig(policy="greedy").validate()
    with pytest.raises(ConfigError, match="'seeds'"):
        ExperimentConfig(seeds=[]).validate()
    with pytest.raises(ConfigError, match="'sweep_axis'"):
        ExperimentConfig(sweep_axis="policy", sweep_values=[1.0]).validate()
    with pytest.raises(ConfigError, match="'sweep_values'"):
        ExperimentConfig(sweep_axis="cache_m").validate()
    with pytest.raises(ConfigError, match="'sweep_values'"):
        ExperimentConfig(sweep_axis="cache_m", sweep_values=[10.5]).validate()
    with pytest.raises(ConfigError, match="'v_param'"):
        ExperimentConfig(sweep_axis="v_param", sweep_values=[-1.0]).validate()


def test_apply_overrides() -> None:
    config = ExperimentConfig().validate()
    out = apply_overrides(config, ["lambda=0.2", "cache_m=10"])
    assert out.arrival_prob == 0.2
    assert out.cache_m == 10
    with pytest.raises(ConfigError, match="expected key=value"):
        apply_overrides(config, ["lambda"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(config, ["nope=1"])
    # Ranges are checked once, on the finished config.
    with pytest.raises(ConfigError, match="'lambda'"):
        apply_overrides(config, ["lambda=7"]).validate()


# config key -> (a non-default value's text, the value the field must hold)
KEY_VALUES = {
    "n_contents": ("2e3", 2000),
    "zipf_alpha": ("1.1", 1.1),
    "tau_bits": ("4e6", 4e6),
    "cache_m": ("100", 100),
    "slot_seconds": ("0.1", 0.1),
    "lambda": ("0.3", 0.3),
    "w_cycles_per_bit": ("2", 2.0),
    "f_local_hz": ("2e9", 2e9),
    "f_mec_hz": ("2e10", 2e10),
    "rate_bps": ("1e9", 1e9),
    "v_param": ("1e-7", 1e-7),
    "horizon_slots": ("5e3", 5000),
    "k_min": ("30", 30),
    "k_max": ("70", 70),
    "policy": ("mec_only", "mec_only"),
    "sweep_axis": ("rate_bps", "rate_bps"),
    "sweep_values": ("1e8, 2e8", [1e8, 2e8]),
    "seeds": ("7, 1e2", [7, 100]),
}


def _field(key: str) -> str:
    return "arrival_prob" if key == "lambda" else key


def test_every_key_round_trips_through_file_and_set() -> None:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"warmup_frac", "sources"}
    assert {_field(key) for key in KEY_VALUES} == fields
    from_file = parse_config_text("".join(f"{key} = {text}\n" for key, (text, _) in KEY_VALUES.items()))
    from_set = apply_overrides(ExperimentConfig(), [f"{key}={text}" for key, (text, _) in KEY_VALUES.items()])
    for config in (from_file, from_set):
        for key, (_, expected) in KEY_VALUES.items():
            value = getattr(config, _field(key))
            assert value == expected and type(value) is type(expected), key
            if isinstance(expected, list):
                assert [type(v) for v in value] == [type(v) for v in expected], key


@pytest.mark.parametrize("key", [key for key, (_, value) in KEY_VALUES.items() if not isinstance(value, str)])
def test_parse_errors_name_their_source_and_key(key) -> None:
    with pytest.raises(ConfigError, match=f"^run.cfg:2: config key '{key}': expected "):
        parse_config_text(f"# header\n{key} = x1\n", source="run.cfg")
    with pytest.raises(ConfigError, match=f"^override '{key}=x1': config key '{key}': expected "):
        apply_overrides(ExperimentConfig(), [f"{key}=x1"])


def test_seeds_flag_errors_name_the_flag(capsys) -> None:
    assert main(["simulate", "--seeds", "1,x"]) == 1
    assert capsys.readouterr().err == "error: --seeds: config key 'seeds': expected comma-separated integers, got '1,x'\n"


def test_range_errors_name_where_the_key_was_set(tmp_path, capsys) -> None:
    path = tmp_path / "run.cfg"
    path.write_text("lambda = 0.3\ncache_m = 20\n")
    # The last setting names the source: here a --set item over the file.
    assert main(["simulate", "--config", str(path), "--set", "cache_m=3000"]) == 1
    assert capsys.readouterr().err == (
        "error: override 'cache_m=3000': config key 'cache_m': must lie in 0..n_contents, got 3000\n"
    )
    assert main(["simulate", "--seeds", "-3"]) == 1
    assert capsys.readouterr().err.startswith("error: --seeds: config key 'seeds': must be ")
    # warmup_frac is no config key; the flag names it.
    assert main(["simulate", "--warmup-frac", "1.5"]) == 1
    assert capsys.readouterr().err == "error: --warmup-frac: must lie in [0, 1), got 1.5\n"
    path.write_text("lambda = 0.3\ncache_m = 2000\n")
    message = "config key 'cache_m': must lie in 0..n_contents, got 2000"
    with pytest.raises(ConfigError) as found:
        load_config(path).validate()
    assert str(found.value) == f"{path}:2: {message}"
    # A sweep point's value comes from sweep_values.
    path.write_text("sweep_axis = cache_m\n\nsweep_values = 0, 2000\n")
    with pytest.raises(ConfigError) as found:
        load_config(path).validate()
    assert str(found.value) == f"{path}:3: {message}"
    # A frontier point's cache comes from --m-values, not from --set.
    assert main(["frontier", "--target-delay-s", "0.6", "--set", "cache_m=10", "--m-values", "2000"]) == 1
    assert capsys.readouterr().err == f"error: --m-values: {message}\n"
    # A default value, or one set in code, has no source.
    with pytest.raises(ConfigError) as found:
        ExperimentConfig(cache_m=2000).validate()
    assert str(found.value) == message
    with pytest.raises(ConfigError) as found:
        ExperimentConfig(warmup_frac=1.5).validate()
    assert str(found.value) == "warmup_frac must lie in [0, 1), got 1.5"
    # A Zipf exponent whose tail popularity underflows to zero passes
    # validation; the catalog build names the key and its source.
    underflow = "config key 'zipf_alpha': gives a popularity the catalog rejects: " \
        "popularity entries must be strictly positive"
    assert main(["simulate", "--set", "zipf_alpha=1e300"]) == 1
    assert capsys.readouterr().err == f"error: override 'zipf_alpha=1e300': {underflow}\n"
    path.write_text("lambda = 0.3\nzipf_alpha = 400\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {underflow}\n"
    # So does a k span too wide for the workload, which only it bounds.
    span = "config key 'k_max': k_max - k_min must stay below 2**32 - 1, got"
    assert main(["simulate", "--set", "k_max=5000000000"]) == 1
    assert capsys.readouterr().err == f"error: override 'k_max=5000000000': {span} 4999999960\n"
    path.write_text("k_min = 3\nk_max = 4294967300\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {span} 4294967297\n"


@pytest.mark.parametrize(
    "command, in_file, by_set",
    [
        ("simulate", "n_contents = 10", "cache_m=5"),
        ("sweep", "sweep_axis = v_param", "sweep_values=0,1e-7"),
        ("simulate", "k_min = 100", "k_max=120"),
    ],
)
def test_a_file_can_be_completed_by_set(command, in_file, by_set, tmp_path, capsys) -> None:
    # Each key of the pair is valid only next to the other.  The config is
    # checked once every source is in, so where each key comes from does
    # not matter.
    common = [command, "--seeds", "0", "--set", "horizon_slots=200"]
    key, value = (part.strip() for part in in_file.split("="))
    assert main([*common, "--set", f"{key}={value}", "--set", by_set]) == 0
    all_by_set = capsys.readouterr().out
    path = tmp_path / "run.cfg"
    path.write_text(in_file + "\n")
    assert main([*common, "--config", str(path), "--set", by_set]) == 0
    assert capsys.readouterr().out == all_by_set


def test_sweep_configs_expand() -> None:
    config = ExperimentConfig(sweep_axis="cache_m", sweep_values=[0.0, 50.0, 200.0]).validate()
    points = sweep_configs(config)
    assert [v for v, _ in points] == [0.0, 50.0, 200.0]
    assert [p.cache_m for _, p in points] == [0, 50, 200]
    assert all(p.sweep_axis is None for _, p in points)
    assert all(isinstance(p.cache_m, int) for _, p in points)
    with pytest.raises(ConfigError, match="no sweep_axis"):
        sweep_configs(ExperimentConfig())


def test_build_system_objects() -> None:
    config = ExperimentConfig(cache_m=7, seeds=[9]).validate()
    catalog, capacity, params, workload_cfg, policy = build_system(config)
    assert catalog.n_contents == 1000
    assert capacity == 7
    assert params.rate_bps == 5e8
    assert workload_cfg.k_max == 60
    assert policy.kind == "lyapunov"
    assert policy.v_param == 1e-6


def test_rows_to_csv_layout() -> None:
    rows = [{"a": 1, "b": 2.5, "c": None}, {"a": "x", "b": float("nan"), "c": 0.1}]
    text = rows_to_csv(rows, ["a", "b", "c"])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,nan"
    assert lines[2] == "x,nan,0.1"
    assert text.endswith("\n")


def test_simulate_rows_match_direct_run() -> None:
    config = ExperimentConfig(horizon_slots=2000, seeds=[0, 1], v_param=1e-8).validate()
    rows = cmd_simulate(config)
    assert [r["seed"] for r in rows] == [0, 1]
    assert set(rows[0]) == set(SIMULATE_COLUMNS)
    catalog, capacity, params, workload_cfg, policy = build_system(config)
    tasks = draw_tasks(catalog, capacity, workload_cfg, 2000, seed=0)
    direct = run_simulation(tasks, params, policy, warmup_frac=config.warmup_frac)
    assert rows[0]["avg_data_per_task_bits"] == avg_data_per_task(direct)
    assert rows[0]["arrivals"] == direct.arrivals
    assert rows[0]["policy"] == "lyapunov"


def test_simulate_without_arrivals_writes_nan_for_per_task_metrics(tmp_path) -> None:
    # At lambda = 0 no task arrives, so every per-task average is undefined.
    out = tmp_path / "simulate.csv"
    argv = ["simulate", "--set", "lambda=0", "--set", "horizon_slots=200", "--seeds", "0,1", "--out", str(out)]
    assert main(argv) == 0
    header, *lines = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 2
    for row in rows:
        assert (row["arrivals"], row["completions"]) == ("0", "0")
        for column in ("avg_data_per_task_bits", "little_delay_s", "measured_mean_delay_s"):
            assert row[column] == "nan", column


def test_sweep_rows_and_aggregates() -> None:
    config = ExperimentConfig(
        horizon_slots=1500, seeds=[0, 1], v_param=1e-8,
        sweep_axis="cache_m", sweep_values=[0.0, 100.0],
    ).validate()
    rows = cmd_sweep(config)
    assert len(rows) == 4
    assert set(rows[0]) == set(SWEEP_COLUMNS)
    assert [r["axis_value"] for r in rows] == [0.0, 0.0, 100.0, 100.0]
    assert all(r["sweep_axis"] == "cache_m" for r in rows)
    first_pair = [r["avg_data_per_task_bits"] for r in rows[:2]]
    mean = sum(first_pair) / 2
    assert rows[0]["mean_avg_data_per_task_bits"] == pytest.approx(mean)
    assert rows[0]["mean_avg_data_per_task_bits"] == rows[1]["mean_avg_data_per_task_bits"]


def test_csv_output_is_deterministic() -> None:
    config = ExperimentConfig(horizon_slots=1200, seeds=[0, 1], v_param=1e-8).validate()
    first = rows_to_csv(cmd_simulate(config), SIMULATE_COLUMNS)
    second = rows_to_csv(cmd_simulate(config), SIMULATE_COLUMNS)
    assert first == second


def test_frontier_single_cell() -> None:
    config = ExperimentConfig(
        horizon_slots=4000, seeds=[0], policy="lyapunov", v_param=0.0, arrival_prob=0.2,
    ).validate()
    rows = cmd_frontier(
        config, target_delay_s=0.8, delay_tolerance_s=0.1,
        f_values=[2e9], m_values=[50], rate_lo=1e8, rate_hi=2e10, max_iter=16,
    )
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(FRONTIER_COLUMNS)
    assert row["status"] in ("ok", "floor", "unreachable")
    if row["status"] == "ok":
        assert 1e8 <= row["required_rate_bps"] <= 2e10
        assert abs(row["achieved_delay_s"] - 0.8) <= 0.1


def test_frontier_non_monotone_point_does_not_abort_grid(monkeypatch) -> None:
    # At cache_m=0 the faster radio measures slower (seed noise); that
    # point is reported and the next grid point still runs.
    def fake_delay(point, tables, catalogs) -> float:
        if point.cache_m == 0:
            return 0.5 if point.rate_bps < 1e9 else 0.7
        return 6e8 / point.rate_bps

    monkeypatch.setattr(cli, "_mean_delay_seconds", fake_delay)
    rows = cmd_frontier(
        ExperimentConfig().validate(), target_delay_s=0.6, delay_tolerance_s=0.1,
        f_values=[1e9], m_values=[0, 50], rate_lo=1e8, rate_hi=1e10, max_iter=8,
    )
    bad, good = rows
    assert bad["status"] == "non_monotone"
    assert math.isnan(bad["required_rate_bps"])
    assert bad["probe_runs"] == 2
    assert good["cache_m"] == 50 and good["status"] == "ok"
    assert good["required_rate_bps"] == pytest.approx(1e9)
    assert "non_monotone" in rows_to_csv(rows, FRONTIER_COLUMNS)


def _curve(lo: float, hi: float, mid_at_or_below_1e9: float = math.nan, mid_above_1e9: float = math.nan):
    """Fake across-seed delay by radio rate: the bracket ends 1e8 and 1e10
    give ``lo`` and ``hi``, bisection probes give one of two values."""
    def fake_delay(point, tables, catalogs) -> float:
        rate = point.rate_bps
        if rate == 1e8:
            return lo
        if rate == 1e10:
            return hi
        return mid_at_or_below_1e9 if rate <= 1e9 else mid_above_1e9
    return fake_delay


@pytest.mark.parametrize(
    "curve, max_iter, status, rate, delay, probes",
    [
        pytest.param(_curve(0.5, 0.7), 8, "non_monotone", math.nan, 0.7, 2, id="non_monotone"),
        pytest.param(_curve(2.0, 0.9), 8, "unreachable", math.nan, 0.9, 2, id="unreachable_bracket"),
        pytest.param(_curve(0.4, 0.3), 8, "floor", 1e8, 0.4, 2, id="floor"),
        pytest.param(_curve(0.62, 0.3), 8, "ok", 1e8, 0.62, 2, id="ok_rate_lo"),
        pytest.param(_curve(2.0, 0.68), 8, "ok", 1e10, 0.68, 2, id="ok_rate_hi"),
        # r_hi (0.01 off) is closer than the first midpoint (0.04 off), but
        # the midpoint lies within half the tolerance and is the answer.
        pytest.param(_curve(2.0, 0.59, 0.64), 8, "ok", 1e9, 0.64, 3, id="bisection_hit"),
        pytest.param(_curve(2.0, 0.45, 0.67, 0.45), 2, "ok", 1e9, 0.67, 4, id="exhausted_ok"),
        pytest.param(
            _curve(2.0, 0.35, 0.85, 0.42), 2, "unreachable", math.nan, 0.42, 4, id="exhausted_unreachable"
        ),
    ],
)
def test_frontier_point_exits(monkeypatch, curve, max_iter, status, rate, delay, probes) -> None:
    monkeypatch.setattr(cli, "_mean_delay_seconds", curve)
    (row,) = cmd_frontier(
        ExperimentConfig().validate(), target_delay_s=0.6, delay_tolerance_s=0.1,
        f_values=[1e9], m_values=[50], rate_lo=1e8, rate_hi=1e10, max_iter=max_iter,
    )
    assert row["status"] == status
    if math.isnan(rate):
        assert math.isnan(row["required_rate_bps"])
    else:
        assert row["required_rate_bps"] == pytest.approx(rate)
    assert row["achieved_delay_s"] == delay
    assert row["probe_runs"] == probes


def test_frontier_stops_once_its_bracket_collapses(capsys) -> None:
    # Here the geometric midpoint equals one of the bracket's ends after 55
    # rounds; every later round would rerun a probe already made (3002
    # probes at --max-iter 3000).  The loop ends there, with the answer it
    # had.
    argv = [
        "frontier", "--seeds", "0", "--set", "horizon_slots=2000", "--set", "lambda=0.2", "--set", "v_param=0",
        "--target-delay-s", "0.8", "--tolerance-s", "0.0001", "--f-values", "2e9", "--m-values", "50",
        "--r-bracket", "1e8,2e10", "--max-iter", "3000",
    ]
    assert main(argv) == 0
    header, line = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert int(row["probe_runs"]) <= 64
    assert (row["required_rate_bps"], row["status"], row["achieved_delay_s"]) == (
        "nan", "unreachable", "0.8005494505494506",
    )


def test_frontier_rejects_bad_grid() -> None:
    config = ExperimentConfig().validate()
    with pytest.raises(ConfigError):
        cmd_frontier(config, target_delay_s=-1.0, delay_tolerance_s=0.1,
                     f_values=[1e9], m_values=[50], rate_lo=1e8, rate_hi=1e10)
    with pytest.raises(ConfigError):
        cmd_frontier(config, target_delay_s=0.6, delay_tolerance_s=0.1,
                     f_values=[], m_values=[50], rate_lo=1e8, rate_hi=1e10)
    with pytest.raises(ConfigError):
        cmd_frontier(config, target_delay_s=0.6, delay_tolerance_s=0.1,
                     f_values=[1e9], m_values=[50], rate_lo=1e10, rate_hi=1e8)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--f-values", "0,1e9", "config key 'f_local_hz': must be positive, got 0.0"),
        ("--m-values", "5000", "config key 'cache_m': must lie in 0..n_contents, got 5000"),
        ("--target-delay-s", "0", "target delay must be positive and finite, got 0.0"),
        ("--tolerance-s", "0", "delay tolerance must be positive and finite, got 0.0"),
        ("--r-bracket", "1e9,1e8", "need 0 < rate_lo < rate_hi < inf, got (1000000000.0, 100000000.0)"),
        ("--max-iter", "-1", "bisection rounds must be non-negative, got -1"),
        ("--f-values", ",", "frontier needs a non-empty grid"),
        ("--m-values", ",", "frontier needs a non-empty grid"),
    ],
)
def test_frontier_grid_errors_name_their_flag(flag, value, message, capsys, monkeypatch) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError("frontier started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    assert main(["frontier", "--target-delay-s", "0.6", flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag}: {message}\n"


def test_analyze_reports_regime() -> None:
    config = ExperimentConfig().validate()
    rows, lines = cmd_analyze(config, samples=3000)
    assert len(rows) == 1
    row = rows[0]
    assert row["regime"] in ("local_only_optimal", "mixed", "infeasible")
    assert row["samples"] == 3000
    assert row["mec_bits_mean"] == pytest.approx(250e6, rel=1e-9)
    assert any("regime" in line for line in lines)


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered in divide:RuntimeWarning")
def test_analyze_unfinishable_tasks_mean_overload(tmp_path) -> None:
    # At 1e-300 bit/s no task finishes: the busy-slot means are huge but
    # positive, and the regime is infeasible.
    out = tmp_path / "analyze.csv"
    assert main(["analyze", "--samples", "100", "--set", "rate_bps=1e-300", "--out", str(out)]) == 0
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert row["regime"] == "infeasible"
    assert float(row["mec_slot_mean"]) == float(row["local_slot_mean"]) == 2.0**62


@pytest.mark.parametrize("axis, values", [("cache_m", "0,50,200"), ("f_local_hz", "5e8,2e9"), ("rate_bps", "1e8,1e9")])
def test_analyze_refuses_a_sweep_it_cannot_run(axis, values, tmp_path, capsys, monkeypatch) -> None:
    # analyze's rows vary v alone; any other axis would be dropped silently.
    def no_work(*args, **kwargs):
        raise AssertionError("analyze started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    out = tmp_path / "analyze.csv"
    argv = ["analyze", "--set", f"sweep_axis={axis}", "--set", f"sweep_values={values}", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: override 'sweep_axis={axis}': config key 'sweep_axis': analyze sweeps only 'v_param', got '{axis}'\n"
    )
    assert not out.exists()
    monkeypatch.undo()
    config = ExperimentConfig(sweep_axis="v_param", sweep_values=[1e-7, 1e-6]).validate()
    rows, _ = cmd_analyze(config, samples=200)
    assert [row["v_param"] for row in rows] == [1e-7, 1e-6]


@pytest.fixture
def count_draws(monkeypatch):
    """Record the seed of every task-table draw, and of every run by the
    table it runs."""
    draws: list[int] = []
    seed_of: dict[int, int] = {}
    original = cli.draw_tasks

    def counting(*args, **kwargs):
        seed = args[-1] if len(args) == 5 else kwargs["seed"]
        draws.append(seed)
        table = original(*args, **kwargs)
        seed_of[id(table)] = seed
        return table

    monkeypatch.setattr(cli, "draw_tasks", counting)
    runs: list[int] = []
    original_run = cli.run_simulation

    def recording(tasks, *args, **kwargs):
        runs.append(seed_of[id(tasks)])
        return original_run(tasks, *args, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", recording)
    return draws, runs


@pytest.mark.parametrize(
    "axis, values, n_draws",
    [
        ("v_param", [0.0, 1e-7, 1e-6], 2),
        ("rate_bps", [2e8, 5e8, 2e9], 2),
        ("f_local_hz", [5e8, 1e9, 4e9], 2),
        ("cache_m", [0.0, 50.0, 100.0], 6),
    ],
)
def test_sweep_draws_each_table_once(count_draws, axis, values, n_draws) -> None:
    draws, runs = count_draws
    config = ExperimentConfig(
        horizon_slots=1000, seeds=[0, 1], sweep_axis=axis, sweep_values=values,
    ).validate()
    cmd_sweep(config)
    # Every (value, seed) pair is still its own run, in row order.
    assert runs == [0, 1] * 3
    assert len(draws) == n_draws
    assert draws == [0, 1] * (n_draws // 2)


def test_frontier_draws_each_table_once(count_draws) -> None:
    # The points of one cache value run back to back and share each seed's
    # table, so a 3 x 2 grid draws 2 tables per seed, not 6; the rows keep
    # the f-major order.
    draws, runs = count_draws
    config = ExperimentConfig(
        horizon_slots=3000, seeds=[0, 1], arrival_prob=0.2, v_param=0.0,
    ).validate()
    rows = cmd_frontier(
        config, target_delay_s=0.6, delay_tolerance_s=0.04,
        f_values=[1e9, 2e9, 4e9], m_values=[0, 200], rate_lo=1e8, rate_hi=1e10,
    )
    assert [(row["f_local_hz"], row["cache_m"]) for row in rows] == [
        (f, m) for f in (1e9, 2e9, 4e9) for m in (0, 200)
    ]
    probes = sum(row["probe_runs"] for row in rows)
    assert probes > 2 * len(rows)
    assert len(runs) == 2 * probes
    assert draws == [0, 1, 0, 1]


def test_frontier_bisects_each_distinct_point_once(count_draws) -> None:
    # A value repeated in either list, next to its first use or not, takes
    # the row of its point's one bisection: the repeated grid's CSV is the
    # distinct grid's rows, expanded, with no run or draw beyond them.
    draws, runs = count_draws
    config = ExperimentConfig(horizon_slots=3000, seeds=[0, 1], arrival_prob=0.2, v_param=0.0).validate()

    def frontier(f_values, m_values):
        return cmd_frontier(
            config, target_delay_s=0.6, delay_tolerance_s=0.04,
            f_values=f_values, m_values=m_values, rate_lo=1e8, rate_hi=1e10, max_iter=2,
        )

    distinct = {(row["f_local_hz"], row["cache_m"]): row for row in frontier([1e9, 2e9], [0, 200])}
    draws.clear()
    runs.clear()
    rows = frontier([1e9, 2e9, 1e9], [0, 200, 0])
    expected = [distinct[f, m] for f in (1e9, 2e9, 1e9) for m in (0, 200, 0)]
    assert rows_to_csv(rows, FRONTIER_COLUMNS) == rows_to_csv(expected, FRONTIER_COLUMNS)
    assert len(runs) == 2 * sum(row["probe_runs"] for row in distinct.values())
    assert draws == [0, 1] * 2


def test_simulate_keeps_no_tables(count_draws) -> None:
    draws, runs = count_draws
    cmd_simulate(ExperimentConfig(horizon_slots=500, seeds=[3, 3, 4]).validate())
    assert runs == draws == [3, 3, 4]


@pytest.mark.parametrize("axis", SWEEP_AXES)
def test_sweep_rows_equal_simulate_rows(axis) -> None:
    # However a sweep shares task tables between its values, each of its
    # rows is, column for column and bit for bit, the simulate row of its
    # point and seed.
    default = getattr(ExperimentConfig(), axis)
    config = ExperimentConfig(
        horizon_slots=1500, seeds=[0, 1], sweep_axis=axis, sweep_values=[default, default / 2, default * 2],
    ).validate()
    expected = [row for _, point in sweep_configs(config) for row in cmd_simulate(point)]
    assert [rows_to_csv([row], SIMULATE_COLUMNS) for row in cmd_sweep(config)] == [
        rows_to_csv([row], SIMULATE_COLUMNS) for row in expected
    ]


@pytest.fixture
def capacities_alive_at_draws(monkeypatch):
    """At every task-table draw, record the capacities other than the one
    being drawn of the tables drawn before it that are still alive."""
    drawn: list[tuple[int, weakref.ref]] = []
    alive_at_draws: list[set] = []
    original = cli.draw_tasks

    def tracking(catalog, capacity, *args, **kwargs):
        alive_at_draws.append({held for held, table in drawn if table() is not None} - {capacity})
        table = original(catalog, capacity, *args, **kwargs)
        drawn.append((capacity, weakref.ref(table)))
        return table

    monkeypatch.setattr(cli, "draw_tasks", tracking)
    return alive_at_draws


@pytest.mark.parametrize(
    "command, n_draws",
    [
        (lambda config: cmd_sweep(
            dataclasses.replace(config, sweep_axis="cache_m", sweep_values=[0.0, 50.0, 100.0]).validate()
        ), 6),
        (lambda config: cmd_frontier(
            config, target_delay_s=0.6, delay_tolerance_s=0.04, f_values=[1e9, 4e9],
            m_values=[0, 200], rate_lo=1e8, rate_hi=1e10, max_iter=2,
        ), 4),
    ],
    ids=["sweep_cache_m", "frontier"],
)
def test_no_two_capacities_tables_are_alive_at_once(capacities_alive_at_draws, command, n_draws) -> None:
    # A command drops one capacity's tables before it draws the next's.
    command(ExperimentConfig(horizon_slots=3000, seeds=[0, 1], arrival_prob=0.2, v_param=0.0).validate())
    assert capacities_alive_at_draws == [set()] * n_draws


@pytest.fixture
def count_catalogs(monkeypatch):
    """Record the size of every catalog built."""
    builds: list[int] = []
    original = ContentCatalog.__post_init__

    def counting(self):
        builds.append(len(self.popularity))
        original(self)

    monkeypatch.setattr(ContentCatalog, "__post_init__", counting)
    return builds


@pytest.mark.parametrize(
    "command",
    [
        lambda config: cmd_simulate(config),
        lambda config: cmd_sweep(
            dataclasses.replace(config, sweep_axis="v_param", sweep_values=[0.0, 1e-7, 1e-6]).validate()
        ),
        lambda config: cmd_frontier(
            config, target_delay_s=0.6, delay_tolerance_s=0.04, f_values=[1e9, 4e9],
            m_values=[0, 200], rate_lo=1e8, rate_hi=1e10, max_iter=2,
        ),
    ],
    ids=["simulate", "sweep_v_param", "frontier"],
)
def test_command_builds_the_catalog_once(count_catalogs, command) -> None:
    # Every run of a command (each seed, sweep value and frontier probe)
    # shares the one catalog its (n_contents, zipf_alpha, tau_bits) describe.
    command(ExperimentConfig(horizon_slots=500, seeds=[0, 1], arrival_prob=0.2).validate())
    assert count_catalogs == [1000]


def test_parser_defaults() -> None:
    parser = build_parser()
    args = parser.parse_args(["simulate"])
    assert args.command == "simulate"
    args = parser.parse_args(["frontier", "--target-delay-s", "0.6"])
    assert args.target_delay_s == 0.6
    assert args.tolerance_s == 0.1
    args = parser.parse_args(["sweep", "--set", "lambda=0.2", "--set", "cache_m=10"])
    assert args.overrides == ["lambda=0.2", "cache_m=10"]


def test_main_writes_csv(tmp_path, capsys) -> None:
    out = tmp_path / "run.csv"
    code = main([
        "simulate", "--out", str(out), "--seeds", "0",
        "--set", "horizon_slots=800", "--set", "v_param=1e-8",
    ])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(SIMULATE_COLUMNS)
    assert len(text.splitlines()) == 2


def test_out_into_a_missing_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch) -> None:
    # As with an unreadable --config: one error line and exit 1, before a
    # command runs, not a raw OSError after it.
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    out = tmp_path / "missing" / "x.csv"
    for command in (["simulate"], ["sweep"], ["frontier", "--target-delay-s", "0.6"], ["analyze"]):
        assert main([*command, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out}: no directory {out.parent}\n"
    assert list(tmp_path.iterdir()) == []


def test_out_onto_a_directory_is_refused_before_any_work(tmp_path, capsys, monkeypatch) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    for command in (["simulate"], ["sweep"], ["frontier", "--target-delay-s", "0.6"], ["analyze"]):
        assert main([*command, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: --out {tmp_path}: Is a directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_out_onto_a_full_device_is_one_error_line(capsys) -> None:
    argv = ["simulate", "--seeds", "0", "--set", "horizon_slots=200", "--out", "/dev/full"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --out /dev/full: No space left on device\n"


def test_empty_seeds_flag_is_refused(capsys) -> None:
    assert main(["simulate", "--seeds", ""]) == 1
    assert capsys.readouterr().err.startswith("error: --seeds: config key 'seeds': must be a non-empty list ")


@pytest.mark.parametrize("flag", ["--config", "--out"])
def test_empty_path_flags_are_refused_before_any_work(flag, capsys, monkeypatch) -> None:
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    assert main(["simulate", flag, ""]) == 1
    assert capsys.readouterr() == ("", f"error: {flag}: expected a path, got ''\n")


def test_a_failed_command_leaves_an_existing_out_intact(tmp_path, capsys, monkeypatch) -> None:
    # The output opens before the work, through a temporary file beside the
    # target; build_system then refuses the Zipf exponent.
    out = tmp_path / "existing.csv"
    out.write_bytes(b"kept\r\n")
    opened, original = [], cli.build_system

    def build_system(*args, **kwargs):
        opened.append(sorted(path.name for path in tmp_path.iterdir()))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_system", build_system)
    assert main(["simulate", "--seeds", "0", "--set", "zipf_alpha=5000", "--out", str(out)]) == 1
    assert "'zipf_alpha'" in capsys.readouterr().err
    assert len(opened) == 1 and len(opened[0]) == 2 and "existing.csv" in opened[0]
    assert out.read_bytes() == b"kept\r\n"
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_a_read_only_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch) -> None:
    # open(path, "w") refuses it, so the rename must not replace it.
    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "build_system", no_work)
    out = tmp_path / "read_only.csv"
    out.write_bytes(b"kept\n")
    out.chmod(0o444)
    assert main(["simulate", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --out {out}: Permission denied\n"
    assert out.read_bytes() == b"kept\n"
    assert list(tmp_path.iterdir()) == [out]


def test_a_run_replaces_an_existing_out_whole(tmp_path) -> None:
    out = tmp_path / "existing.csv"
    out.write_text("old\n" * 1000)
    assert main(["simulate", "--seeds", "0", "--set", "horizon_slots=200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SIMULATE_COLUMNS) and len(lines) == 2
    assert list(tmp_path.iterdir()) == [out]


def test_main_stdout_when_no_out(capsys) -> None:
    code = main(["simulate", "--seeds", "0", "--set", "horizon_slots=600", "--set", "v_param=0.0"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == ",".join(SIMULATE_COLUMNS)


def test_cli_runs_keep_no_series(monkeypatch) -> None:
    runs, original = [], cli.run_simulation

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "run_simulation", recording)
    config = ExperimentConfig(horizon_slots=500, seeds=[0]).validate()
    cmd_simulate(config)
    cmd_sweep(dataclasses.replace(config, sweep_axis="cache_m", sweep_values=[0.0, 50.0]).validate())
    cmd_frontier(config, target_delay_s=0.6, delay_tolerance_s=0.1, f_values=[1e9], m_values=[50],
                 rate_lo=1e8, rate_hi=1e10, max_iter=1)
    assert len(runs) >= 5
    assert all(metrics.queue_len_series is None for metrics in runs)


@pytest.mark.parametrize(
    "argv, summary",
    [
        (["analyze", "--samples", "100", "--set", "rate_bps=1e-300"], "arrival rate 0.4"),
        (
            ["simulate", "--set", "horizon_slots=50", "--seeds", "0", "--set", "v_param=0",
             "--set", "rate_bps=1e-300", "--set", "policy=mec_only"],
            "simulate: 1 runs",
        ),
    ],
)
def test_unfinishable_tasks_leave_stderr_to_the_summary(argv, summary, capsys) -> None:
    # Busy-slot counts past every horizon are capped, not warned about.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", os.devnull]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith(summary)


# Rate and slot length of 1e-200: the rate times the slot length underflows
# to 0, so each fetch divides by 0, and a fully cached task's 0 bits make
# 0/0.  Both give durations past every horizon.
_UNDERFLOWING = ["--seeds", "0", "--set", "rate_bps=1e-200", "--set", "slot_seconds=1e-200"]


@pytest.mark.parametrize("loop", ["c", "python"])
@pytest.mark.parametrize(
    "argv, summary",
    [
        (["simulate", "--set", "horizon_slots=200"], "simulate: 1 runs at policy=lyapunov\n"),
        (["analyze", "--samples", "100"], "arrival rate 0.4, cache 50 contents\n"),
    ],
    ids=["simulate", "analyze"],
)
def test_underflowing_divisors_are_capped_without_warnings(loop, argv, summary, monkeypatch, capsys) -> None:
    if loop == "c" and _kernel.lib is None:
        pytest.skip("no C compiler: the compiled kernel is not built")
    if loop == "python":
        monkeypatch.setattr(_kernel, "lib", None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, *_UNDERFLOWING, "--out", os.devnull]) == 0
    err = capsys.readouterr().err
    assert err.startswith(summary)
    assert "Warning" not in err


def test_main_config_error_exit_code(capsys) -> None:
    code = main(["simulate", "--set", "lambda=bogus"])
    assert code == 1
    assert "lambda" in capsys.readouterr().err


def test_a_catalog_too_large_to_rank_names_n_contents(tmp_path, capsys) -> None:
    # A rank table holds at most MAX_CONTENTS contents, so validation
    # refuses a larger catalog, naming the key and where it was set, before
    # the catalog's arrays are allocated.
    limit = f"config key 'n_contents': must lie in 1..{MAX_CONTENTS}, got"
    assert main(["simulate", "--set", "n_contents=1e19"]) == 1
    assert capsys.readouterr().err == f"error: override 'n_contents=1e19': {limit} 10000000000000000000\n"
    path = tmp_path / "huge.cfg"
    path.write_text("lambda = 0.3\nn_contents = 5e18\n")
    assert main(["simulate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}:2: {limit} 5000000000000000000\n"


@pytest.mark.parametrize(
    "command, flag, notation, plain",
    [
        (["analyze", "--seeds", "0"], "--samples", "5e2", "500"),
        (
            [
                "frontier", "--seeds", "0", "--set", "horizon_slots=2000", "--set", "lambda=0.2", "--set", "v_param=0",
                "--target-delay-s", "0.8", "--f-values", "2e9", "--m-values", "50", "--r-bracket", "1e8,2e10",
            ],
            "--max-iter", "3e0", "3",
        ),
    ],
)
def test_integer_flags_read_config_notation(command, flag, notation, plain, tmp_path, capsys) -> None:
    # Like every config integer, --seeds and --m-values, the flag takes
    # 1e3-style notation; a value that is not a whole number is refused
    # with argparse's usage message, which names the flag.
    outs = [tmp_path / "notation.csv", tmp_path / "plain.csv"]
    for value, out in zip((notation, plain), outs):
        assert main([*command, flag, value, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    capsys.readouterr()
    assert main([*command, flag, "2.5"]) == 1
    assert f"error: argument {flag}: invalid parse_int value: '2.5'\n" in capsys.readouterr().err


@pytest.mark.parametrize("message, shown", [("Unable to allocate 7.28 TiB", "Unable to allocate 7.28 TiB"), ("", "out of memory")])
def test_main_out_of_memory_is_a_config_error(monkeypatch, capsys, message, shown) -> None:
    # an input too large to hold, e.g. n_contents=1e12 with cache_m=0
    def build_system(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_system", build_system)
    assert main(["simulate", "--seeds", "0"]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"


def test_main_usage_errors(capsys) -> None:
    assert main(["no_such_command"]) == 1
    assert main(["frontier"]) == 1  # missing --target-delay-s
    assert main(["--help"]) == 0


def test_main_reads_config_file(tmp_path) -> None:
    path = tmp_path / "exp.cfg"
    path.write_text("lambda = 0.3\nhorizon_slots = 700\nv_param = 0\nseeds = 5\n")
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    body = out.read_text().splitlines()[1]
    fields = dict(zip(SIMULATE_COLUMNS, body.split(",")))
    assert fields["seed"] == "5"
    assert fields["lambda"] == "0.3"


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--set", "sweep_axis=cache_m", "--set", "sweep_values=nan"],
        ["sweep", "--set", "sweep_axis=cache_m", "--set", "sweep_values=inf"],
        ["sweep", "--set", "sweep_axis=v_param", "--set", "sweep_values=inf"],
        ["simulate", "--set", "horizon_slots=inf"],
        ["simulate", "--set", "horizon_slots=nan"],
        ["simulate", "--set", "v_param=nan"],
        ["analyze", "--set", "v_param=nan"],
        ["simulate", "--set", "zipf_alpha=nan"],
        ["simulate", "--set", "f_local_hz=inf"],
        # finite, but the tail popularity underflows to zero
        ["simulate", "--set", "zipf_alpha=5000"],
        ["simulate", "--seeds", "0", "--set", "tau_bits=0.3"],
        # a k range wider than the task sampler's 32-bit k draw
        ["simulate", "--seeds", "0", "--set", "tau_bits=1", "--set", "k_min=1", "--set", "k_max=4294967296"],
        ["frontier", "--target-delay-s", "0.6", "--m-values", "1.5"],
        ["frontier", "--target-delay-s", "0.6", "--m-values", "nan"],
        ["frontier", "--target-delay-s", "nan"],
        ["frontier", "--target-delay-s", "0.6", "--r-bracket", "1e8,inf"],
        ["analyze", "--samples", "1"],
        ["simulate", "--seeds=-3"],
        ["simulate", "--set", "seeds=-1"],
        # a zero arrival rate has no feasibility regime to report
        ["analyze", "--set", "lambda=0", "--samples", "500"],
        ["frontier", "--target-delay-s", "0.6", "--max-iter", "-1"],
    ],
)
def test_main_bad_input_is_a_config_error(argv, capsys) -> None:
    # rejected before any simulation runs: exit 1 and a one-line message
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Runs every input of the fuzz below through cli.main in one child capped at
# 2 GB of address space, with warnings as errors, and prints each call's
# argv, exit code (or the exception it raised) and stderr as JSON.
_FUZZ_CHILD = """
import contextlib, io, json, resource, sys, warnings
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from mecsched import cli, config
warnings.simplefilter("error")
values = json.loads(sys.argv[1])
commands = [
    ["simulate", "--seeds", "0", "--set", "horizon_slots=200"],
    ["analyze", "--seeds", "0", "--samples", "100"],
]
calls = [[*command, "--set", f"{key}={value}"] for key in config._KEYS for command in commands for value in values]
calls += [[*commands[0], f"--warmup-frac={value}"] for value in values]
calls += [
    ["sweep", *commands[0][1:], "--set", f"sweep_axis={axis}", "--set", f"sweep_values={value}"]
    for axis in config.SWEEP_AXES for value in values
]
frontier = ["frontier", "--seeds", "0", "--set", "horizon_slots=200", "--max-iter", "3", "--target-delay-s", "1"]
flags = ["--target-delay-s", "--tolerance-s", "--f-values", "--m-values", "--r-bracket", "--max-iter"]
calls += [[*frontier, f"{flag}={value}"] for flag in flags for value in values]
calls += [[*commands[1], "--set", f"k_max={value}"] for value in ("1e6", "1e7", "1e8", "4000000000")]
# Spans whose exact local bits are cheap, a cached catalog's, but whose
# k-span-long tables are not.
calls += [[*commands[1], "--set", f"cache_m={m}", "--set", f"k_max={k}"] for m, k in ((1000, "1e7"), (999, "3e7"))]
results = []
for argv in calls:
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = repr(exc)
    results.append((argv, code, err.getvalue()))
print(json.dumps(results))
"""


def test_every_key_survives_edge_values_in_a_capped_child() -> None:
    # Each config key, and --warmup-frac, takes each edge value through
    # simulate and analyze, each sweep axis takes them as sweep_values, and
    # each frontier flag takes them too.  Every call exits 0 or 1, never
    # runs out of memory, and a refusal is one error line (argparse's usage
    # message for a number flag it cannot parse spans two).  A k span the
    # workload accepts but whose exact local bits or k-span-long tables
    # would take more than about a second, or no memory could hold, fails
    # fast, in one line.
    values = ["0", "-1", "0.5", "1e300", "-1e300", "nan", "inf", "-inf", "x", ""]
    src = Path(cli.__file__).resolve().parent.parent
    threads = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, "PYTHONPATH": str(src), **threads}
    child = subprocess.run(
        [sys.executable, "-c", _FUZZ_CHILD, json.dumps(values)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    sweeps, frontiers, analyses = len(SWEEP_AXES), 6, 6
    assert len(results) == (2 * len(KEY_VALUES) + 1 + sweeps + frontiers) * len(values) + analyses
    argparse_flags = ("--warmup-frac=", "--target-delay-s=", "--tolerance-s=", "--max-iter=")
    for argv, code, err in results:
        assert code in (0, 1), (argv, code, err)
        assert "out of memory" not in err, argv
        if code == 1 and not argv[-1].startswith(argparse_flags):
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    assert [code for _, code, _ in results[-analyses:]] == [1] * analyses
