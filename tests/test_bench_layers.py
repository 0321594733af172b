"""Smoke tests of ``tools/bench_layers.py``: one small point, the estimate
point with its part count, one-part time and bytes per sample, and the cold
commands, end to end, and the pairing of two checkouts' cold commands."""

from __future__ import annotations

import importlib.util
import json
import os
import runpy
import subprocess
from pathlib import Path

import pytest

from mecsched import _kernel, workload
from mecsched.config import ExperimentConfig, build_system
from mecsched.workload import draw_tasks
from kernel_extremes import Recording

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_layers", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_point_reports_a_small_point(monkeypatch) -> None:
    tool = _load_tool()
    monkeypatch.setattr(tool, "HORIZON", 2000)
    monkeypatch.setattr(tool, "SEEDS", (0,))
    monkeypatch.setattr(tool, "REPEATS", 1)
    # A stand-in for perfbench's reference kernel: two calls, 0.2 s and 0.4 s.
    times = iter((0.2, 0.4))
    reference = {"time_reference": lambda: next(times), "REFERENCE_S": 0.1}
    overrides = {"policy": "lyapunov", "arrival_prob": 0.4}
    point = tool.measure_point(overrides, reference)

    assert set(point) == {
        "draw_us_per_task", "draw_us_per_task_range", "parts", "one_part_draw_us_per_task",
        "one_part_draw_us_per_task_range", "run_us_per_slot", "run_us_per_slot_range", "run_bytes_per_task",
        "tasks", "reference_s", "host_speed",
    }
    catalog, capacity, _, workload_cfg, _ = build_system(ExperimentConfig(horizon_slots=2000, **overrides).validate())
    assert point["tasks"] == draw_tasks(catalog, capacity, workload_cfg, 2000, seed=0).arrival_slot.size
    # At least the two delay arrays, 16 bytes per task.
    assert point["run_bytes_per_task"] >= 16
    assert point["reference_s"] == [0.2, 0.4]
    assert point["host_speed"] == [0.25, 0.5]
    assert point["draw_us_per_task"] > 0 and point["run_us_per_slot"] > 0
    assert point["parts"] == [workload._parts(point["tasks"])]
    low, high = point["one_part_draw_us_per_task_range"]
    assert 0 < low == point["one_part_draw_us_per_task"] == high


def test_measure_estimate_reports_the_analyze_point(monkeypatch) -> None:
    tool = _load_tool()
    monkeypatch.setattr(tool, "ESTIMATE_SAMPLES", 200)
    monkeypatch.setattr(tool, "SEEDS", (0, 1))
    monkeypatch.setattr(tool, "REPEATS", 1)
    times = iter((0.2, 0.4, 0.1))
    reference = {"time_reference": lambda: next(times), "REFERENCE_S": 0.1}
    point = tool.measure_estimate(reference)

    assert set(point) == {
        "estimate_us_per_sample", "estimate_us_per_sample_range", "parts", "one_part_us_per_sample",
        "one_part_us_per_sample_range", "samples", "reference_s", "host_speed",
    }
    assert point["samples"] == 200
    assert point["parts"] == 1
    assert point["reference_s"] == [0.2, 0.4, 0.1]
    assert point["host_speed"] == [0.25, 1.0]
    for key in ("estimate_us_per_sample", "one_part_us_per_sample"):
        low, high = point[f"{key}_range"]
        assert 0 < low <= point[key] <= high


def test_measure_estimate_records_its_parts_and_times_one_part(monkeypatch) -> None:
    # On two CPUs, an estimate of two floors' samples runs on two threads:
    # each repeat asks the kernel for two, then for one for the one-part
    # time.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    tool = _load_tool()
    monkeypatch.setattr(tool, "ESTIMATE_SAMPLES", 2 * workload._PART_FLOOR)
    monkeypatch.setattr(tool, "SEEDS", (0,))
    monkeypatch.setattr(tool, "REPEATS", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    recording = Recording(_kernel.lib)
    monkeypatch.setattr(_kernel, "lib", recording)
    point = tool.measure_estimate({"time_reference": lambda: 0.1, "REFERENCE_S": 0.1})

    assert point["parts"] == 2
    assert [threads for _, threads in recording.calls] == [2, 1] * 3
    assert point["one_part_us_per_sample"] > 0 and point["estimate_us_per_sample"] > 0


def test_measure_estimate_memory_reports_the_estimates_bytes_per_sample(monkeypatch) -> None:
    # At the defaults the compiled estimate holds each count in a byte, 2
    # bytes per sample, beside allocations that do not grow with the
    # samples: on two CPUs, two stamp rows and the rank tables, about 0.6
    # bytes per sample at 50,000 samples.  float64 counts would take 16.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled estimate is not built")
    tool = _load_tool()
    monkeypatch.setattr(tool, "ESTIMATE_SAMPLES", 50_000)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    tool.measure_estimate_memory()  # the first estimate in a process imports numpy.random
    point = tool.measure_estimate_memory()

    assert set(point) == {"estimate_bytes_per_sample"}
    assert 2 <= point["estimate_bytes_per_sample"] <= 3


def test_measure_point_records_its_draws_parts_and_times_one_part(monkeypatch) -> None:
    # On two CPUs, a seed drawing more than two floors' tasks draws on two
    # threads: each repeat asks the kernel for two, then for one for the
    # one-part time.
    if _kernel.lib is None:
        pytest.skip("no C compiler: the compiled draw is not built")
    tool = _load_tool()
    monkeypatch.setattr(tool, "HORIZON", 8 * workload._PART_FLOOR)
    monkeypatch.setattr(tool, "SEEDS", (0,))
    monkeypatch.setattr(tool, "REPEATS", 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    recording = Recording(_kernel.lib)
    monkeypatch.setattr(_kernel, "lib", recording)
    times = iter((0.1, 0.1))
    reference = {"time_reference": lambda: next(times), "REFERENCE_S": 0.1}
    point = tool.measure_point({"policy": "lyapunov", "arrival_prob": 0.4}, reference)

    assert point["tasks"] >= 2 * workload._PART_FLOOR
    assert point["parts"] == [2]
    assert [threads for _, threads in recording.calls] == [2, 1] * 3
    assert point["one_part_draw_us_per_task"] > 0 and point["draw_us_per_task"] > 0


def test_measure_commands_times_the_benchmark_commands_cold(monkeypatch) -> None:
    tool = _load_tool()
    monkeypatch.setattr(tool, "COMMAND_RUNS", 2)
    root = _TOOL.parent.parent
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    times = iter((0.2, 0.4, 0.1, 0.2, 0.4, 0.4))
    reference = {"time_reference": lambda: next(times), "REFERENCE_S": 0.1}
    commands = tool.measure_commands(root, workloads, reference)

    assert list(commands) == ["simulate_mixed", "sweep_overload", "analyze_mc"]
    digests = json.loads((root / "perfbench" / "digests.json").read_text())
    for name, entry in commands.items():
        assert set(entry) == {
            "command_ms", "command_ms_range", "import_numpy_random_ms", "import_numpy_random_ms_range",
            "runs", "csv_sha256", "slot_loop", "word_source", "reference_s", "host_speed",
        }
        assert entry["runs"] == 2
        # The benchmark's command at its default seed (analyze_mc with its
        # samples): its stored CSV digest.
        assert entry["csv_sha256"] == [digests[name]]
        assert entry["slot_loop"] == ["python" if _kernel.lib is None else "c"]
        assert entry["word_source"] == ["python" if _kernel.lib is None else _kernel.word_source(_kernel.lib)]
        for key in ("command_ms", "import_numpy_random_ms"):
            low, high = entry[f"{key}_range"]
            assert 0 < low <= entry[key] <= high
    assert commands["simulate_mixed"]["reference_s"] == [0.2, 0.4]
    assert commands["sweep_overload"]["host_speed"] == [0.5, 1.0]
    assert commands["analyze_mc"]["host_speed"] == [0.25, 0.25]


def test_against_alternates_the_two_checkouts_in_pairs(monkeypatch, tmp_path) -> None:
    # Stand-in children: each records its command and checkout and reports
    # 20 ms on "mine" and 40 ms on "theirs", so every pair's ratio is 0.5.
    tool = _load_tool()
    monkeypatch.setattr(tool, "COMMAND_RUNS", 3)
    mine, theirs = tmp_path / "mine", tmp_path / "theirs"
    started = []

    def child(argv, **kwargs):
        src, command = argv[4], argv[5]
        started.append((command, Path(src).parent.name))
        report = {
            "import_numpy_random_s": 0.01, "command_s": 0.02 if Path(src).parent == mine else 0.04,
            "csv_sha256": "same", "slot_loop": "c", "word_source": "avx512",
        }
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(report) + "\n", stderr="")

    monkeypatch.setattr(tool.subprocess, "run", child)
    workloads = runpy.run_path(str(_TOOL.parent.parent / "perfbench" / "workloads.py"))
    reference = {"time_reference": lambda: 0.1, "REFERENCE_S": 0.1}
    commands = tool.measure_commands(mine, workloads, reference, against=theirs)

    turns = ["mine", "theirs", "theirs", "mine", "mine", "theirs"]
    assert started == [(workloads["WORKLOADS"][name].command, turn) for name in tool.COMMANDS for turn in turns]
    for entry in commands.values():
        assert entry["ratios"] == [0.5, 0.5, 0.5]
        assert (entry["ratio_median"], entry["pairs_won"], entry["runs"]) == (0.5, 3, 3)
        assert (entry["command_ms"], entry["against"]["command_ms"]) == (20.0, 40.0)
        assert entry["against"]["runs"] == 3
        assert entry["csv_sha256"] == entry["against"]["csv_sha256"] == ["same"]
        assert entry["host_speed"] == [1.0, 1.0]


def test_environment_records_the_slot_loop_and_the_word_source() -> None:
    # Entries from hosts or paths that draw their words differently must be
    # told apart.
    environment = _load_tool().environment(_TOOL.parent.parent)
    if _kernel.lib is None:
        assert (environment["slot_loop"], environment["word_source"]) == ("python", "python")
    else:
        assert environment["slot_loop"] == "c"
        assert environment["word_source"] == _kernel.word_source(_kernel.lib) in _kernel.WORD_SOURCES


def test_against_runs_tier1_in_both_checkouts_taking_turns(monkeypatch, tmp_path) -> None:
    # Two --against entries with stand-in measurements: each runs Tier-1
    # once per checkout, the first with this checkout first, the second
    # with the other first, and records both sides.
    tool = _load_tool()
    mine, theirs, out = tmp_path / "mine", tmp_path / "theirs", tmp_path / "bench.json"
    started = []

    def tier1(repo):
        started.append(repo.name)
        return {"wall_s": len(started), "exit_code": 0, "summary": f"{repo.name} passed"}

    monkeypatch.setattr(tool, "tier1", tier1)
    monkeypatch.setattr(tool, "measure_commands", lambda *args: {})
    monkeypatch.setattr(tool, "environment", lambda repo: {"checkout": repo.name})
    monkeypatch.setattr(tool, "checkout", lambda repo: {"checkout": repo.name})
    for _ in range(2):
        tool.main(["--repo", str(mine), "--against", str(theirs), "--out", str(out)])

    assert started == ["mine", "theirs", "theirs", "mine"]
    entries = json.loads(out.read_text())
    assert [entry["tier1"] for entry in entries] == [
        {"wall_s": 1, "exit_code": 0, "summary": "mine passed", "first": "repo",
         "against": {"wall_s": 2, "exit_code": 0, "summary": "theirs passed"}},
        {"wall_s": 4, "exit_code": 0, "summary": "mine passed", "first": "against",
         "against": {"wall_s": 3, "exit_code": 0, "summary": "theirs passed"}},
    ]


def test_entries_record_each_sides_ticks_per_cpu(monkeypatch, tmp_path) -> None:
    # A stand-in /proc/stat that the stand-in children move: each child on
    # "mine" adds 7 user ticks to cpu1 and 2 system ticks to cpu0, each on
    # "theirs" 3 user ticks to cpu0.  cpu2 (not the process's), the total
    # line and nice and idle ticks count for neither side.
    tool = _load_tool()
    monkeypatch.setattr(tool, "COMMAND_RUNS", 2)
    mine, theirs, out, stat = tmp_path / "mine", tmp_path / "theirs", tmp_path / "bench.json", tmp_path / "stat"
    counts = {"cpu0": [10, 4, 5, 900], "cpu1": [20, 4, 1, 900], "cpu2": [30, 4, 2, 900]}

    def write() -> None:
        rows = [f"{cpu} {' '.join(map(str, ticks))} 0 0 0 0 0 0" for cpu, ticks in counts.items()]
        stat.write_text("\n".join(["cpu  60 12 8 2700 0 0 0 0 0 0", *rows, "intr 1 2", ""]))

    def child(argv, **kwargs):
        if Path(argv[4]).parent == mine:
            counts["cpu1"][0] += 7
            counts["cpu0"][2] += 2
        else:
            counts["cpu0"][0] += 3
        for ticks in counts.values():
            ticks[1] += 1
            ticks[3] += 50
        counts["cpu2"][0] += 100
        write()
        report = {
            "import_numpy_random_s": 0.01, "command_s": 0.02, "csv_sha256": "same", "slot_loop": "c",
            "word_source": "avx512",
        }
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(report) + "\n", stderr="")

    write()
    monkeypatch.setattr(tool, "PROC_STAT", stat)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(tool.subprocess, "run", child)
    monkeypatch.setattr(tool, "tier1", lambda repo: {})
    monkeypatch.setattr(tool, "environment", lambda repo: {"checkout": repo.name})
    monkeypatch.setattr(tool, "checkout", lambda repo: {"checkout": repo.name})
    tool.main(["--repo", str(mine), "--against", str(theirs), "--out", str(out)])

    # Two children per command on each side, three commands.
    (entry,) = json.loads(out.read_text())
    assert entry["cpu_ticks"] == {"cpu0": 12, "cpu1": 42}
    assert entry["against"] == {"checkout": "theirs", "cpu_ticks": {"cpu0": 18, "cpu1": 0}}
    # Without the file, nothing is counted.
    monkeypatch.setattr(tool, "PROC_STAT", tmp_path / "missing")
    assert tool.cpu_ticks() == {}
