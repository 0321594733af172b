"""The compiled kernel: it is built when it can be, the draw and the slot
loop fall back to Python quietly when it cannot, it caches its build
outside the source tree, builds with the undefined-behaviour and the
address sanitizers run the extremes clean, and the estimate's threads run
clean under the thread sanitizer."""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from mecsched import _kernel
from kernel_extremes import compare_at_the_extremes

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
def test_kernel_calls_no_math_library_function() -> None:
    # The library is not linked against libm, so a ceil or fmin left to it
    # would be a call through the PLT inside the slot loop, resolved from
    # whatever the process loaded.  The kernel makes its own.  Runtime
    # helpers a toolchain may add (names starting "__") are not counted;
    # the estimate's thread start and join are the only library calls.
    nm = shutil.which("nm")
    if _kernel.lib is None or nm is None:
        pytest.skip("no kernel loaded, or no nm to list its symbols")
    listing = subprocess.run([nm, "-D", "--undefined-only", _kernel.lib._name], capture_output=True, text=True)
    assert listing.returncode == 0, listing.stderr
    undefined = [fields[-1] for fields in map(str.split, listing.stdout.splitlines()) if fields[0] == "U"]
    called = sorted(name.split("@")[0] for name in undefined if not name.startswith("__"))
    assert called == ["pthread_create", "pthread_join"]


@needs_cc
def test_kernel_exports_one_entry_per_hot_call_and_the_test_hooks() -> None:
    # The draw, the estimate and the slot loop, one entry each, the rank
    # tables' packer, and the four hooks the tests and tools call: a second
    # entry for a hot call would be a second compiled form to keep equal to
    # the first.
    nm = shutil.which("nm")
    if _kernel.lib is None or nm is None:
        pytest.skip("no kernel loaded, or no nm to list its symbols")
    listing = subprocess.run([nm, "-D", "--defined-only", _kernel.lib._name], capture_output=True, text=True)
    assert listing.returncode == 0, listing.stderr
    defined = {fields[-1] for fields in map(str.split, listing.stdout.splitlines()) if fields}
    assert sorted(name for name in defined if name.startswith("mecsched_")) == [
        "mecsched_count_words", "mecsched_decide", "mecsched_draw_tasks", "mecsched_estimate_slots",
        "mecsched_pack_guide", "mecsched_select_word_source", "mecsched_slot_loop", "mecsched_word_source",
    ]


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
def test_a_fresh_build_removes_only_builds_older_than_30_days(cache) -> None:
    cache.mkdir(parents=True)
    old, recent = (cache / f"slot_loop-{digit * 64}.so" for digit in "01")
    month_ago = time.time() - 31 * 24 * 3600
    for planted in (old, recent):
        planted.write_bytes(b"")
    os.utime(old, (month_ago, month_ago))
    assert _kernel.load() is not None
    assert not old.exists() and recent.exists()
    assert len(list(cache.glob("slot_loop-*.so"))) == 2
    # A cached load removes nothing.
    old.write_bytes(b"")
    os.utime(old, (month_ago, month_ago))
    assert _kernel.load() is not None
    assert old.exists()


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


def _runtime(name: str) -> str | None:
    """The path of cc's sanitizer runtime ``name``, or None."""
    # cc prints the bare file name when it has no such library.
    found = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True, text=True).stdout.strip()
    return found if os.path.isabs(found) else None


@needs_cc
def test_sanitized_kernel_matches_python_at_the_extremes(monkeypatch) -> None:
    # Built with UBSan, into the kernel cache under its own name, so later
    # runs load it without building.  A finding ends the whole process; run
    # this test alone with -s to read UBSan's report.
    if _runtime("libubsan.so") is None:
        pytest.skip("no UBSan runtime")
    monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-fsanitize=undefined", "-fno-sanitize-recover=all"))
    sanitized = _kernel.load()
    assert sanitized is not None
    compare_at_the_extremes(sanitized)


# Loads the kernel built with ASan, from the kernel cache when it is there,
# and runs the extremes on it; exits 3 when the build did not load.
_ASAN_CHILD = """
import sys
from mecsched import _kernel
from kernel_extremes import compare_at_the_extremes
_kernel.FLAGS += ("-fsanitize=address",)
sanitized = _kernel.load()
if sanitized is None:
    sys.exit(3)
compare_at_the_extremes(sanitized)
"""


@needs_cc
def test_address_sanitized_kernel_matches_python_at_the_extremes() -> None:
    # The same extremes on an ASan build, which must be the first library
    # loaded, so it runs in a child started with the runtime preloaded.  A
    # finding fails the child, and its report is in the assertion message.
    runtime = _runtime("libasan.so")
    if runtime is None:
        pytest.skip("no ASan runtime")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join((str(SRC), str(Path(__file__).resolve().parent))),
        "LD_PRELOAD": runtime,
        # Python's own allocations outlive the interpreter by design.
        "ASAN_OPTIONS": "detect_leaks=0",
    }
    child = subprocess.run(
        [sys.executable, "-c", _ASAN_CHILD],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, f"exit {child.returncode}\n{child.stderr}"


def _tsan_program() -> Path:
    """tests/tsan_estimate.c built with ThreadSanitizer, in the kernel
    cache under the SHA-256 of its two sources, its flags and the
    compiler's identity, as the kernel's builds are named; built there
    first if need be.  Skips the test where cc cannot build it."""
    sources = (_kernel.SOURCE, Path(__file__).resolve().parent / "tsan_estimate.c")
    flags = ("-O1", "-g", "-fsanitize=thread", "-pthread")
    cc = os.path.realpath(shutil.which("cc"))
    info = os.stat(cc)
    key = hashlib.sha256(b"".join(source.read_bytes() for source in sources))
    key.update(repr((flags, cc, info.st_size, info.st_mtime_ns)).encode())
    program = _kernel.cache_dir() / f"tsan_estimate-{key.hexdigest()}"
    if program.exists():
        return program
    program.parent.mkdir(parents=True, exist_ok=True)
    # Built beside its final name and renamed, so that a concurrent run
    # never sees a partial program.
    with tempfile.TemporaryDirectory(dir=program.parent) as scratch:
        partial = Path(scratch) / program.name
        build = subprocess.run(
            ["cc", *flags, f"-I{_kernel.SOURCE.parent}", "-o", str(partial), str(sources[1])],
            capture_output=True, text=True, timeout=120,
        )
        if build.returncode != 0:
            pytest.skip(f"cc cannot build with -fsanitize=thread: {build.stderr.strip()[-200:]}")
        os.replace(partial, program)
    return program


@needs_cc
def test_thread_sanitizer_finds_no_race_in_the_estimate() -> None:
    # A standalone program over the kernel's source (tests/tsan_estimate.c),
    # built with ThreadSanitizer, runs the estimate on 2-4 threads in chunks
    # of 1 and 7 samples on each word source and compares each run with a
    # one-thread run.  TSan cannot be preloaded into Python, so the test
    # is a program of its own.  Skipped where cc cannot build it.
    program = _tsan_program()
    env = {**os.environ, "TSAN_OPTIONS": "halt_on_error=1"}
    run = subprocess.run([str(program)], capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 0, f"exit {run.returncode}\n{run.stdout}\n{run.stderr}"
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    label, runs = run.stdout.split()
    assert label == "runs" and int(runs) >= 6, run.stdout
