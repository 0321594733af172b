"""The draw paths tests compare: the compiled kernel with each word source it
can use on this processor, then the Python reference.

``_kernel.lib`` is the switch between the compiled and the Python paths;
within a kernel, ``mecsched_select_word_source`` switches its draws between
the AVX-512 lanes and the scalar PCG64 step.  :func:`paths` lists the
combinations and :func:`drawing_on` sets one for the duration of a block.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from mecsched import _kernel


def word_sources(kernel) -> list[str]:
    """The word sources ``kernel`` can draw with here, the one it chose
    first."""
    chosen = kernel.mecsched_word_source()
    usable = {_kernel.WORD_SOURCES[kernel.mecsched_select_word_source(code)] for code in (0, 1)}
    kernel.mecsched_select_word_source(chosen)
    return sorted(usable, key=lambda source: source != _kernel.WORD_SOURCES[chosen])


def paths(kernel=None) -> list[tuple]:
    """``(kernel, source)`` for each word source of ``kernel`` (default: the
    loaded kernel), then ``(None, None)``, the Python path."""
    kernel = _kernel.lib if kernel is None else kernel
    compiled = [] if kernel is None else [(kernel, source) for source in word_sources(kernel)]
    return [*compiled, (None, None)]


@contextmanager
def drawing_on(kernel, source):
    """Within the block, ``_kernel.lib`` is ``kernel`` and its draws take
    their words from ``source``; both are restored after it."""
    with mock.patch.object(_kernel, "lib", kernel):
        if kernel is None:
            yield
            return
        chosen = kernel.mecsched_word_source()
        assert _kernel.WORD_SOURCES[kernel.mecsched_select_word_source(_kernel.WORD_SOURCES.index(source))] == source
        try:
            yield
        finally:
            kernel.mecsched_select_word_source(chosen)
