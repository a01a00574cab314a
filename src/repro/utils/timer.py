"""Lightweight wall-clock timing used by the analytics subsystem.

The paper reports *relative* runtime differences between algorithms running
on compressed and original graphs (Fig. 5) and relative compression-routine
costs (§7.4).  Every measured region goes through one clock:
:func:`stopwatch` for a block, :func:`timed_call` for one call.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["Stopwatch", "stopwatch", "timed_call"]


class Stopwatch:
    """Elapsed wall-clock seconds of one measured region.

    ``seconds`` is 0.0 until the :func:`stopwatch` block exits, then holds
    the region's duration.  Shared by the evaluation session and the sweep
    runner so every timing in the codebase goes through one clock.
    """

    __slots__ = ("seconds", "_start")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = time.perf_counter()

    def stop(self) -> float:
        self.seconds = time.perf_counter() - self._start
        return self.seconds


@contextmanager
def stopwatch():
    """Context manager measuring one region: ``with stopwatch() as sw: …``.

    ``sw.seconds`` holds the elapsed wall time after the block (including
    when the block raises, so failure paths can still be accounted).
    """
    sw = Stopwatch()
    try:
        yield sw
    finally:
        sw.stop()


def timed_call(fn, *args, **kwargs):
    """``(result, seconds)`` of one call — the one-shot form of
    :func:`stopwatch`, used wherever a single (output, duration) pair is
    recorded (session baselines, grid cells, runner workers)."""
    with stopwatch() as sw:
        out = fn(*args, **kwargs)
    return out, sw.seconds
