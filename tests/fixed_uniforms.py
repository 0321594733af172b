"""Generators whose next values are known.

numpy's ``PCG64`` makes each uniform of a 64-bit word ``w`` as ``(w >> 11)
* 2**-53``, and the compiled draw ranks the words themselves.
:func:`count_words` therefore feeds chosen words to either content draw:
to the compiled one through the kernel's ``mecsched_count_words``, which
ranks and counts them as the selected word source's draw does, and to the
Python one as the uniforms ``FixedWords(words).random(k)`` makes of them.
:func:`distinct_uncached` builds the words from the content ranks wanted.
``pcg64_with_next(word, half)`` is a PCG64 generator whose next 32-bit and
64-bit values are chosen.
"""

from __future__ import annotations

import numpy as np

from mecsched import _kernel
from mecsched.workload import draw_contents


class FixedWords:
    """Serves the uniforms of ``words`` in order; ``used`` counts them."""

    def __init__(self, words) -> None:
        self.words = np.asarray(words, dtype=np.uint64)
        self.used = 0

    def random(self, k: int) -> np.ndarray:
        out = self.words[self.used:self.used + k]
        assert out.size == k, "ran out of fixed words"
        self.used += k
        return (out >> np.uint64(11)) * 2.0**-53


def count_words(catalog, capacity, ks, words) -> list[int]:
    """Per task, the distinct count above rank ``capacity`` the content
    draw makes of the words ``words``, task ``i`` taking the next
    ``ks[i]``: in the kernel while it is loaded, else in Python."""
    ks = np.asarray(ks, dtype=np.int64)
    words = np.asarray(words, dtype=np.uint64)
    assert words.size == ks.sum()
    lib = _kernel.lib
    if lib is None:
        return draw_contents(FixedWords(words), catalog, ks, capacity).tolist()
    stamp = np.zeros(catalog.n_contents, dtype=np.int64)
    distinct = np.empty(ks.size, dtype=np.int64)
    lib.mecsched_count_words(
        ks.size, ks, words, catalog.guide, catalog.guide_shift, catalog.edge, capacity, stamp, distinct,
    )
    return distinct.tolist()


# PCG64's LCG multiplier: a state s steps to s * multiplier + inc, and the
# stepped state's output is rotr(high ^ low, high >> 58).
_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def pcg64_with_next(word: int, half: int) -> np.random.Generator:
    """A PCG64 generator whose next 32-bit values are ``half``, then the
    low and the high half of ``word``, then its ordinary stream; its next
    64-bit word, the one ``random()`` makes its next double of, is
    ``word``."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    # The state that steps to high 0 (no rotation) and low ``word``.
    state["state"]["state"] = (word - state["state"]["inc"]) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    state["has_uint32"], state["uinteger"] = 1, half
    rng.bit_generator.state = state
    return rng


def distinct_uncached(catalog, capacity, tasks) -> list[int]:
    """Per task, given as its list of content ranks, the distinct count
    above rank ``capacity`` the content draw makes of it."""
    ranks = np.array([rank for task in tasks for rank in task], dtype=np.int64)
    # Rank r's first word: the draw maps it, and no smaller word, to r.
    first_word = np.concatenate((np.zeros(1, dtype=np.uint64), catalog.edge[:-1])) << np.uint64(11)
    return count_words(catalog, capacity, [len(task) for task in tasks], first_word[ranks - 1])
