from __future__ import annotations

import dataclasses
import math

import pytest

from mecsched import cli, engine
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
    ExperimentConfig,
    apply_overrides,
    build_system,
    load_config,
    parse_config_text,
    sweep_configs,
)
from mecsched.engine import avg_data_per_task, run_simulation
from mecsched.errors import ConfigError

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
    with pytest.raises(ConfigError, match="'lambda'"):
        apply_overrides(config, ["lambda=7"])


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
    catalog, cache, params, workload_cfg, policy = build_system(config)
    assert catalog.n_contents == 1000
    assert cache.capacity == 7
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
    catalog, cache, params, workload_cfg, policy = build_system(config)
    direct = run_simulation(
        catalog, cache, params, workload_cfg, policy,
        horizon=2000, seed=0, warmup_frac=config.warmup_frac,
    )
    assert rows[0]["avg_data_per_task_bits"] == avg_data_per_task(direct)
    assert rows[0]["arrivals"] == direct.arrivals
    assert rows[0]["policy"] == "lyapunov"


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
    def fake_delay(point, tables) -> float:
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


@pytest.fixture
def count_draws(monkeypatch):
    """Count task-table draws, whether the command layer or a run makes them."""
    draws: list[int] = []
    original = engine.draw_tasks

    def counting(*args, **kwargs):
        draws.append(args[-1] if len(args) == 5 else kwargs["seed"])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "draw_tasks", counting)
    monkeypatch.setattr(cli, "draw_tasks", counting)
    runs: list[int] = []
    original_run = cli.run_simulation

    def recording(*args, **kwargs):
        runs.append(kwargs["seed"])
        return original_run(*args, **kwargs)

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


def test_frontier_draws_each_table_once_per_grid_point(count_draws) -> None:
    draws, runs = count_draws
    config = ExperimentConfig(
        horizon_slots=3000, seeds=[0, 1], arrival_prob=0.2, v_param=0.0,
    ).validate()
    rows = cmd_frontier(
        config, target_delay_s=0.6, delay_tolerance_s=0.04,
        f_values=[1e9, 4e9], m_values=[0, 200], rate_lo=1e8, rate_hi=1e10,
    )
    probes = sum(row["probe_runs"] for row in rows)
    assert probes > 2 * len(rows)
    assert len(runs) == 2 * probes
    assert draws == [0, 1] * len(rows)


def test_simulate_keeps_no_tables(count_draws) -> None:
    draws, runs = count_draws
    cmd_simulate(ExperimentConfig(horizon_slots=500, seeds=[3, 3, 4]).validate())
    assert runs == draws == [3, 3, 4]


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


def test_main_stdout_when_no_out(capsys) -> None:
    code = main(["simulate", "--seeds", "0", "--set", "horizon_slots=600", "--set", "v_param=0.0"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == ",".join(SIMULATE_COLUMNS)


def test_main_config_error_exit_code(capsys) -> None:
    code = main(["simulate", "--set", "lambda=bogus"])
    assert code == 1
    assert "lambda" in capsys.readouterr().err


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
