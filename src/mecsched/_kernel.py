"""Build and load the compiled kernel (``_slot_loop.c``) on first use.

The kernel holds one entry per hot call: the draws of
:mod:`mecsched.workload` (the tasks, and the Monte Carlo estimate's
samples: their ``k`` values, contents and slot counts), which step numpy's
PCG64 themselves from the state the caller passes, and the slot loop of
:mod:`mecsched.engine`; and ``mecsched_pack_guide``, which builds the
rank tables the draws read (:func:`mecsched.catalog.packed_guide`).  The
estimate and the slot loop compute each task's busy-slot count where they
use it.  The estimate stores each count in 1, 2 or 8 bytes, the narrowest
width its caller found to hold the largest count of its mode (2 bytes per
sample at the defaults, 16 at most), and once its samples are counted it
sums each mode's counts, and their squared deviations from the mean, in
numpy's pairwise order, so that the caller takes the means and standard
errors from four numbers.  The task draw's and the estimate's entries
start threads, on one chunk driver: each takes the number of threads to
run on and starts all but one as detached pthreads (the caller's thread
is the other; ``ctypes`` releases the GIL for the call), on Linux each
pinned to a CPU the caller may run on other than its own, so that no
thread waits for the caller's CPU.  They share the tasks in
fixed-size chunks, each placed in the stream by a serial pass that the
caller makes while the threads start, so the result is the same on any
number of threads.  The call returns once every chunk has run; a thread
that starts after that finds no chunk and exits, touching nothing the
caller owns.  ``mecsched_count_words`` runs the task draw's count on
given 64-bit words, for tests.  The draws
take their PCG64 words from one of two sources, which the library chooses
once, when it loads: sixteen AVX-512 lanes on an x86-64 processor that has
AVX-512F and AVX-512DQ, else the scalar step, one word at a time.  Both give the same
words, ranks and end state; :func:`word_source` tells which one a loaded
kernel uses, and ``mecsched_select_word_source`` lets the tests run both.

:func:`load` compiles the C source with the system C compiler into a
per-user cache (:func:`cache_dir`) and loads it through :mod:`ctypes`.
The library's file name is the SHA-256 of the source, the compiler flags
and the compiler's identity (its resolved path, size and modification
time), so a changed source or an upgraded compiler gets a fresh build,
builds with other flags (the tests' sanitized ones) sit beside it, and a
cached library loads without starting the compiler.  A build goes to a
temporary file that is renamed into place, so concurrent first uses
never see a partial file, and nothing is written next to the source.  A
fresh build removes every other file in the cache not modified for 30
days (the kernel's builds and the tests' sanitizer programs); a cached
load removes nothing, so checkouts that share the cache keep each
other's.

When no compiler is found, the build fails or the cache cannot be
written, :func:`load` returns ``None``.  The library is loaded once, at
import, into :data:`lib`; the draw and the engine read that handle at
call time and run their Python paths, with the same results, while it is
``None``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .policy import POLICY_KINDS

SOURCE = Path(__file__).with_name("_slot_loop.c")
# No -ffast-math, and no fused multiply-add: each cost must round as
# Python's does.  -pthread: the draw and the estimate start threads.
FLAGS = ("-O2", "-ffp-contract=off", "-pthread", "-shared", "-fPIC")
# Policy kind -> the C enum (lyapunov 0, mec_only 1, local_only 2).
KIND_CODES = {kind: code for code, kind in enumerate(POLICY_KINDS)}
# mecsched_word_source's codes, by value.
WORD_SOURCES = ("scalar", "avx512")
# A build not modified for this long (30 days) is taken to be unused.
_STALE_S = 30 * 24 * 3600


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel, built first if need be, or ``None``."""
    try:
        found = shutil.which("cc")
        if found is None:
            return None
        cc = os.path.realpath(found)
        info = os.stat(cc)
        key = hashlib.sha256(SOURCE.read_bytes())
        key.update(repr((FLAGS, cc, info.st_size, info.st_mtime_ns)).encode())
        path = cache_dir() / f"slot_loop-{key.hexdigest()}.so"
        if not path.exists():
            _build(cc, path)
            _remove_stale(path)
        lib = ctypes.CDLL(str(path))
        i64, f64 = ctypes.c_int64, ctypes.c_double
        lib.mecsched_decide.argtypes = [ctypes.c_int, f64, i64, i64, i64, f64, f64, f64, f64]
        lib.mecsched_decide.restype = ctypes.c_int
        # The series is a raw pointer: NULL when no series is kept.
        lib.mecsched_slot_loop.argtypes = [
            ctypes.c_int, f64, i64, i64, _array(np.int64), _array(np.float64), _array(np.float64),
            f64, f64, f64, f64, _array(np.int64), _array(np.int64), ctypes.c_void_p,
            _array(np.int64), _array(np.float64),
        ]
        lib.mecsched_slot_loop.restype = None
        # The draws read and write PCG64's state as six uint64 words, and
        # rank through a cdf's packed guide table (uint64), its bucket shift
        # and its rank edges, the three of catalog.packed_guide.  Both take
        # their tasks' count, chunk size and thread count, and one stamp row
        # per thread.  The estimate takes two such triples, the k cdf's and
        # the catalog's, and room for the chunks' offsets, and stores no k
        # value; its two count arrays are unsigned, each with its width in
        # bytes, and it writes four sums, into an array checked to hold four.
        lib.mecsched_draw_tasks.argtypes = [
            _array(np.uint64), i64, i64, ctypes.c_int, i64, ctypes.c_uint32, _array(np.int64), _array(np.uint64),
            ctypes.c_int, _array(np.uint64), i64, i64, _array(np.int64), _array(np.int64),
        ]
        lib.mecsched_draw_tasks.restype = None
        lib.mecsched_count_words.argtypes = [
            i64, _array(np.int64), _array(np.uint64), _array(np.uint64), ctypes.c_int, _array(np.uint64), i64,
            _array(np.int64), _array(np.int64),
        ]
        lib.mecsched_count_words.restype = None
        lib.mecsched_estimate_slots.argtypes = [
            _array(np.uint64), i64, i64, ctypes.c_int, i64, _array(np.uint64), ctypes.c_int, _array(np.uint64),
            _array(np.uint64), ctypes.c_int, _array(np.uint64), i64, i64, _array(np.int64), _array(np.uint64),
            f64, f64, f64, f64, f64, _array(None), ctypes.c_int, _array(None), ctypes.c_int,
            np.ctypeslib.ndpointer(np.float64, shape=(4,), flags="C_CONTIGUOUS"),
        ]
        lib.mecsched_estimate_slots.restype = None
        lib.mecsched_pack_guide.argtypes = [
            _array(np.float64), i64, ctypes.c_int, _array(np.uint64), _array(np.uint64),
        ]
        lib.mecsched_pack_guide.restype = i64
        lib.mecsched_word_source.argtypes = []
        lib.mecsched_word_source.restype = ctypes.c_int
        lib.mecsched_select_word_source.argtypes = [ctypes.c_int]
        lib.mecsched_select_word_source.restype = ctypes.c_int
    except (OSError, RuntimeError, AttributeError):
        return None
    return lib


def cache_dir() -> Path:
    """Where builds go: ``$XDG_CACHE_HOME/mecsched``, else ``~/.cache/mecsched``."""
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "mecsched"


def word_source(kernel: ctypes.CDLL) -> str:
    """Where ``kernel``'s draws take their PCG64 words from: ``"avx512"``,
    sixteen lanes at a time, or ``"scalar"``, one step at a time."""
    return WORD_SOURCES[kernel.mecsched_word_source()]


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")


def _remove_stale(keep: Path) -> None:
    # Every file here is a build: the kernel's, its sanitized variants and
    # the tests' sanitizer programs.
    cutoff = time.time() - _STALE_S
    for old in keep.parent.iterdir():
        try:
            if old != keep and old.stat().st_mtime < cutoff:
                old.unlink()
        except OSError:
            pass


def _build(cc: str, path: Path) -> None:
    # Imported here: a cached load needs neither.
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *FLAGS, "-o", partial, str(SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"{cc} exited with code {done.returncode}")
        os.replace(partial, path)
    except subprocess.SubprocessError as exc:
        raise RuntimeError(str(exc)) from exc
    finally:
        if os.path.exists(partial):
            os.unlink(partial)


# The loaded kernel, or None: the one switch between the compiled paths and
# the Python ones.
lib = load()
