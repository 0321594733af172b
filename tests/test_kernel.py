"""The compiled kernel: it is built when it can be, the draw and the slot
loop fall back to Python quietly when it cannot, it caches its build
outside the source tree, and a build with the undefined-behaviour
sanitizer runs the extremes clean."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mecsched import _kernel
from mecsched.catalog import CacheConfig, ContentCatalog
from mecsched.config import ExperimentConfig, build_system
from mecsched.engine import draw_tasks, run_simulation
from mecsched.policy import POLICY_KINDS
from mecsched.workload import K_SPAN_LIMIT, WorkloadConfig, draw_contents, sample_tasks
from fixed_uniforms import pcg64_with_next
from test_engine import _assert_same_metrics

SRC = Path(_kernel.__file__).resolve().parent.parent
_HAS_CC = shutil.which("cc") is not None
needs_cc = pytest.mark.skipif(not _HAS_CC, reason="no C compiler on PATH")


def _source_tree() -> set[str]:
    return {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*")
        if "__pycache__" not in path.parts
    }


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """An empty kernel cache of its own."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "mecsched"


def _fake_compiler(directory: Path, script: str) -> None:
    directory.mkdir(exist_ok=True)
    path = directory / "cc"
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(0o755)


def test_kernel_is_built_when_a_compiler_exists() -> None:
    # A build that broke would fall back silently and hide the speed-up.
    if not _HAS_CC:
        pytest.skip("no C compiler on PATH")
    assert _kernel.lib is not None


@needs_cc
def test_second_load_reuses_the_cached_library(cache, monkeypatch) -> None:
    assert _kernel.load() is not None
    (built,) = cache.glob("slot_loop-*.so")
    stamp = built.stat().st_mtime_ns

    def no_process(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert _kernel.load() is not None
    assert [p.name for p in cache.iterdir()] == [built.name]
    assert built.stat().st_mtime_ns == stamp


@needs_cc
def test_build_writes_nothing_under_src(cache) -> None:
    before = _source_tree()
    assert _kernel.load() is not None
    assert _source_tree() == before
    assert len(list(cache.glob("slot_loop-*.so"))) == 1


def test_missing_compiler_gives_none(cache, tmp_path, monkeypatch) -> None:
    (tmp_path / "bin").mkdir()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert _kernel.load() is None
    assert not cache.exists()


def test_failing_compile_gives_none(cache, tmp_path, monkeypatch, capfd) -> None:
    _fake_compiler(tmp_path / "bin", 'echo "cc: internal error" >&2\nexit 1\n')
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    assert _kernel.load() is None
    # No partial library is left to be loaded next time.
    assert list(cache.iterdir()) == []
    assert capfd.readouterr() == ("", "")


def test_unwritable_cache_gives_none(tmp_path, monkeypatch, capfd) -> None:
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert _kernel.load() is None
    assert capfd.readouterr() == ("", "")


# Runs the command line in a child and exits 3 unless the child loaded the
# kernel or not, as expected.
_CHILD = """
import sys
from mecsched import _kernel, cli
if (_kernel.lib is None) != (sys.argv[1] == "python"):
    sys.exit(3)
sys.exit(cli.main(sys.argv[2:]))
"""


def _simulate(loop: str, env_changes: dict) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_changes}
    argv = [sys.executable, "-c", _CHILD, loop, "simulate", "--seeds", "0,1", "--set", "horizon_slots=3000"]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


@needs_cc
@pytest.mark.parametrize("case", ["no_compiler", "failing_compile", "unwritable_cache"])
def test_fallback_run_is_identical_and_quiet(case, tmp_path) -> None:
    fake_bin = tmp_path / "bin"
    if case == "no_compiler":
        fake_bin.mkdir()
        changes = {"PATH": str(fake_bin), "XDG_CACHE_HOME": str(tmp_path / "xdg")}
    elif case == "failing_compile":
        _fake_compiler(fake_bin, 'echo "cc: internal error" >&2\nexit 1\n')
        changes = {"PATH": str(fake_bin), "XDG_CACHE_HOME": str(tmp_path / "xdg")}
    else:
        (tmp_path / "file").write_text("")
        changes = {"XDG_CACHE_HOME": str(tmp_path / "file")}
    compiled = _simulate("c", {})
    fallback = _simulate("python", changes)
    assert compiled.returncode == 0, compiled.stderr
    assert fallback.returncode == 0, fallback.stderr
    assert fallback.stdout == compiled.stdout
    assert fallback.stderr == compiled.stderr == "simulate: 2 runs at policy=lyapunov\n"


def _has_ubsan() -> bool:
    # cc prints the bare file name when it has no such library.
    found = subprocess.run(["cc", "-print-file-name=libubsan.so"], capture_output=True, text=True)
    return os.path.isabs(found.stdout.strip())


@needs_cc
def test_sanitized_kernel_matches_python_at_the_extremes(cache, monkeypatch) -> None:
    # Built with UBSan, the kernel's draw and loop equal the Python ones on
    # a one-content catalog, a cache of the whole catalog, wide guide
    # buckets, k spans 0 and K_SPAN_LIMIT - 1, and busy counts at the 2**62
    # cap.  A finding ends the whole process; run this test alone with -s
    # to read UBSan's report.
    if not _has_ubsan():
        pytest.skip("no UBSan runtime")
    monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-fsanitize=undefined", "-fno-sanitize-recover=all"))
    sanitized = _kernel.load()
    assert sanitized is not None

    def both(fn) -> list:
        results = []
        for lib in (sanitized, None):
            monkeypatch.setattr(_kernel, "lib", lib)
            results.append(fn())
        return results

    one, steep = ContentCatalog.zipf(1, 0.0, 1.0), ContentCatalog.zipf(50, 3.0, 1.0)
    for catalog, capacity, k_min, k_max in (
        (one, 0, 1, 5), (one, 1, 1, 5), (steep, 0, 3, 66), (steep, 50, 3, 66), (steep, 5, 7, 7),
    ):
        cfg, cache_cfg = WorkloadConfig(0.4, k_min, k_max), CacheConfig.for_catalog(catalog, capacity)
        compiled, python = both(lambda: sample_tasks(np.random.default_rng(1), catalog, cfg, 300, cache_cfg))
        assert [a.tolist() for a in compiled] == [a.tolist() for a in python]
        compiled, python = both(lambda: draw_contents(np.random.default_rng(1), catalog, [0, 1, 3, 40], cache_cfg))
        assert compiled.tolist() == python.tolist()
    # The widest span: a rejected 0, then k = 2 from the word's low half and
    # k = 1 from its high half.
    widest, cache_cfg = WorkloadConfig(0.4, 1, K_SPAN_LIMIT), CacheConfig.for_catalog(steep, 0)
    compiled, python = both(lambda: sample_tasks(pcg64_with_next(1 << 32 | 2, 0), steep, widest, 2, cache_cfg))
    assert compiled[0].tolist() == python[0].tolist() == [2, 1]
    assert compiled[1].tolist() == python[1].tolist()

    for policy in POLICY_KINDS:
        for fields in ({"n_contents": 1, "cache_m": 1}, {"rate_bps": 1e-300}):
            catalog, cache_cfg, params, workload_cfg, spec = build_system(ExperimentConfig(policy=policy, **fields))
            monkeypatch.setattr(_kernel, "lib", sanitized)
            table = draw_tasks(catalog, cache_cfg, workload_cfg, 2000, seed=3)
            compiled, python = both(lambda: run_simulation(table, params, spec, collect_series=True))
            _assert_same_metrics(compiled, python)
