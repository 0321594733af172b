"""Byte-identity pins: the SHA-256 of the CSV that short commands write.

For a fixed seed the CSV of ``simulate``, ``sweep``, ``frontier`` and
``analyze`` must not change from one version to the next.  Each case runs
one command end to end through ``main`` (seeds 0 and 1, at most 3,000
slots) and compares the file it writes with the digest recorded for it.
A change that alters a random stream on purpose re-records these digests
and says in CHANGES.md which stream changed and why.
"""

from __future__ import annotations

import hashlib

import pytest

from mecsched.cli import main

_COMMON = ["--seeds", "0,1", "--set", "horizon_slots=3000"]

# name -> (argv without the common options, SHA-256 of the CSV)
CASES = {
    "simulate_lyapunov": (
        ["simulate", "--set", "v_param=1e-7"],
        "0d416acf9d817de0c85102c121892847c45e04573185eda917d7fcf1531966d4",
    ),
    "simulate_mec_only": (
        ["simulate", "--set", "policy=mec_only"],
        "63ae60b72bfe4217fa272357ae712730cd13edf3cd03d209738e37c2fc7595b7",
    ),
    "simulate_local_only": (
        ["simulate", "--set", "policy=local_only", "--set", "lambda=0.3"],
        "f193585b7d9cbe60d331bde5a25fb0aa40302133e6a664406aa28ee1f54a23de",
    ),
    "sweep_v_param": (
        ["sweep", "--set", "lambda=0.8", "--set", "sweep_axis=v_param", "--set", "sweep_values=0,1e-7,1e-6"],
        "ade52e0dd6529ba6b69aecf494cc709485be1262c5ff2624a5f2934d2c558180",
    ),
    "sweep_rate_bps": (
        ["sweep", "--set", "sweep_axis=rate_bps", "--set", "sweep_values=2e8,5e8,2e9"],
        "5039c4d9faa2933d63db49fa27f3715ddb68d48ed3df13b2f5b67705bac73929",
    ),
    "sweep_f_local_hz": (
        ["sweep", "--set", "sweep_axis=f_local_hz", "--set", "sweep_values=5e8,1e9,4e9"],
        "98c3dce514c90e84fdbad418f368da44a07665695e612dfd28b5879773101de8",
    ),
    "sweep_cache_m": (
        ["sweep", "--set", "sweep_axis=cache_m", "--set", "sweep_values=0,50,100"],
        "37aeba868464be818c96295d6b110170c064578e1a92765fbba59e75e38101b9",
    ),
    # Bisection takes 5, 3, 3 and 7 probes at the four grid points.
    "frontier": (
        [
            "frontier", "--target-delay-s", "0.6", "--tolerance-s", "0.04",
            "--f-values", "1e9,4e9", "--m-values", "0,200",
            "--set", "lambda=0.2", "--set", "v_param=0",
        ],
        "9d56d45515ae2ca9486ddea4b0a41b355ce78870927baec13ff6c3ec780d1e4a",
    ),
    "analyze": (
        ["analyze", "--samples", "20000", "--set", "sweep_axis=v_param", "--set", "sweep_values=1e-8,1e-7"],
        "31d0c73df40e9f244c42b4d64c77777a87d27d2d46858b62c95949ba235690a4",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_digest_is_unchanged(name, tmp_path) -> None:
    argv, digest = CASES[name]
    out = tmp_path / f"{name}.csv"
    assert main(argv + _COMMON + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
