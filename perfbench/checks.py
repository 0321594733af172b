"""Output checks: each returns, per operation, the list of problems found.

An operation is one simulation run (one CSV row of simulate or sweep) or
one analyze call.  The checks read the CSV text the command produced, so a
value is judged as a user would read it, and use the run's ``RunMetrics``
only to tell where a metric is defined.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

TEXT_COLUMNS = {"policy", "sweep_axis", "regime"}


def csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode("utf-8")).hexdigest()


def _rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_text)))


def _non_finite(row: dict, may_be_undefined: dict) -> list[str]:
    """Numeric columns that are not finite although their metric is defined.
    ``may_be_undefined`` maps a column to whether its metric is undefined."""
    problems = []
    for column, text in row.items():
        if column in TEXT_COLUMNS or may_be_undefined.get(column, False):
            continue
        try:
            value = float(text)
        except ValueError:
            problems.append(f"{column}={text!r} is not a number")
            continue
        if not math.isfinite(value):
            problems.append(f"{column}={text} although the metric is defined")
    return problems


def check_simulation_rows(csv_text: str, runs: list) -> list[list[str]]:
    """Problems per simulate/sweep row; ``runs`` are the ``RunMetrics``
    the command produced, in row order."""
    rows = _rows(csv_text)
    if len(rows) != len(runs):
        problem = f"{len(rows)} CSV rows for {len(runs)} simulation runs"
        return [[problem] for _ in range(max(len(rows), len(runs)))]
    report = []
    for row, run in zip(rows, runs):
        scheduled = run.scheduled_after_warmup > 0
        undefined = {
            "avg_data_per_task_bits": not scheduled,
            "mean_avg_data_per_task_bits": not scheduled,
            "little_delay_s": float(row["lambda"]) <= 0,
            "measured_mean_delay_s": not bool((run.delay_arrival_slots >= run.warmup_slots).any()),
        }
        problems = _non_finite(row, undefined)
        if run.drift_violations != 0:
            problems.append(f"{run.drift_violations} drift violations")
        try:
            if int(row["completions"]) > int(row["arrivals"]):
                problems.append(f"completions {row['completions']} > arrivals {row['arrivals']}")
        except ValueError:
            problems.append("completions or arrivals is not an integer")
        report.append(problems)
    return report


def check_analyze_rows(csv_text: str, mec_bits: float, local_bits: float) -> list[str]:
    """Problems of one analyze call; ``mec_bits`` and ``local_bits`` are the
    closed-form expectations the rows must carry exactly."""
    rows = _rows(csv_text)
    if not rows:
        return ["analyze produced no rows"]
    problems = []
    for row in rows:
        undefined = {
            "optimal_bits": row["regime"] == "infeasible",
            "gap_bound_bits": float(row["v_param"]) == 0,
        }
        problems += _non_finite(row, undefined)
        for column, expected in (("mec_bits_mean", mec_bits), ("local_bits_mean", local_bits)):
            if float(row[column]) != expected:
                problems.append(f"{column}={row[column]} differs from the closed form {expected!r}")
    return problems


def check_digest(csv_text: str, expected: str) -> list[str]:
    actual = csv_digest(csv_text)
    return [] if actual == expected else [f"CSV sha256 {actual} differs from the stored {expected}"]
