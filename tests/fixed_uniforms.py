"""Generators whose next values are known.

``FixedUniforms(u)`` hands the doubles ``u``, in order, to either content
draw: to the Python one through ``random(k)``, and to the compiled one
through a ``bitgen_t`` (numpy/random/bitgen.h) whose ``next_double`` reads
the same array.  It serves no integers, so it suits
:func:`mecsched.workload.draw_contents`, whose ``k`` values are given; its
integer entry points are null.  ``pcg64_with_next(word, half)`` is a PCG64
generator whose next 32-bit values are chosen, for the ``k`` draw.
"""

from __future__ import annotations

import ctypes
import threading
from types import SimpleNamespace

import numpy as np

from mecsched.workload import draw_contents

_NEXT_UINT64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_NEXT_UINT32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitGen(ctypes.Structure):
    _fields_ = [
        ("state", ctypes.c_void_p),
        ("next_uint64", _NEXT_UINT64),
        ("next_uint32", _NEXT_UINT32),
        ("next_double", _NEXT_DOUBLE),
        ("next_raw", _NEXT_UINT64),
    ]


class FixedUniforms:
    """Serves ``u`` in order; ``used`` counts the uniforms handed out."""

    def __init__(self, u) -> None:
        self.u = np.asarray(u, dtype=np.float64)
        self.used = 0
        # The callback must live as long as the struct that points to it.
        self._next_double = _NEXT_DOUBLE(lambda _state: self.random(1)[0])
        self._bitgen = _BitGen(None, _NEXT_UINT64(), _NEXT_UINT32(), self._next_double, _NEXT_UINT64())
        pointer = ctypes.cast(ctypes.pointer(self._bitgen), ctypes.c_void_p)
        self.bit_generator = SimpleNamespace(
            lock=threading.Lock(), ctypes=SimpleNamespace(bit_generator=pointer)
        )

    def random(self, k: int) -> np.ndarray:
        out = self.u[self.used:self.used + k]
        assert out.size == k, "ran out of fixed uniforms"
        self.used += k
        return out


# PCG64's LCG multiplier: a state s steps to s * multiplier + inc, and the
# stepped state's output is rotr(high ^ low, high >> 58).
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_with_next(word: int, half: int) -> np.random.Generator:
    """A PCG64 generator whose next 32-bit values are ``half``, then the
    low and the high half of ``word``, then its ordinary stream."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    # The state that steps to high 0 (no rotation) and low ``word``.
    state["state"]["state"] = (word - state["state"]["inc"]) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state
    return rng


def _lower_edges(catalog, ranks) -> np.ndarray:
    """For each rank, the smallest uniform the inversion maps to it."""
    return np.concatenate(([0.0], catalog.cdf[:-1]))[np.asarray(ranks, dtype=np.int64) - 1]


def distinct_uncached(catalog, capacity, tasks) -> list[int]:
    """Per task, given as its list of content ranks, the distinct count
    above rank ``capacity`` the content draw makes of it."""
    rng = FixedUniforms(_lower_edges(catalog, [rank for task in tasks for rank in task]))
    counts = draw_contents(rng, catalog, [len(task) for task in tasks], capacity)
    assert rng.used == rng.u.size
    return counts.tolist()
