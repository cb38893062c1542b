"""
CPU-speed normalisation.

On a shared two-vCPU machine the same pass of identical work was measured
anywhere from 1.2 s to 2.0 s, with process CPU time equal to wall time: the
vCPU itself runs faster or slower for seconds to minutes at a time.  Raw
seconds from runs minutes apart are then not comparable.  So while a pass
runs, a timer interrupts it every INTERVAL_S and times a fixed reference
slice of pure-Python work (frozensets, tuples, dict updates, no affwgraph
code, garbage collection off) in the same thread.  The slices sample the
speed the pass ran at, and every pass time is rescaled to the speed at
which one slice takes REF_SLICE_S:

    normalised = (wall - time spent in slices) * REF_SLICE_S / mean slice time

The raw wall times and the factor are kept in the run record.  A change
that made the reference slice itself slower or faster (it shares only the
interpreter with affwgraph) would shift every normalised time; compare the
raw times too when a result looks surprising.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REF_SLICE_S = 0.008  # sets the scale only: a slice took 6-10 ms on a 2-vCPU Xeon VM, Python 3.11
INTERVAL_S = 0.15
SLICE_ITERATIONS = 6000
MIN_SLICES = 20
SLICE_SPAN = "bench.speed_slice"  # span name of a slice taken inside a traced pass


def reference_slice() -> float:
    """Seconds one fixed slice of interpreter work takes right now."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        for i in range(SLICE_ITERATIONS):
            key = frozenset((i % 13, i % 7, i % 5))
            row = tuple(sorted((i % 11, i % 3, i % 17)))
            acc[key] = acc.get(key, 0) + row[0] * row[2]
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def factor_from(slices: list[float]) -> float:
    """Multiplier taking seconds measured at the slices' speed to reference speed."""
    return REF_SLICE_S / statistics.fmean(slices)


class SpeedProbe:
    """
    Samples the speed while the with-block runs (SIGALRM, main thread only).
    Slices taken inside the block are counted in `in_block_s` and passed to
    `on_slice(name, start, end)` if given; if the block was too short for
    MIN_SLICES samples, the rest are taken after it.
    """

    def __init__(self, on_slice=None):
        self.slices: list[float] = []
        self.in_block_s = 0.0
        self._on_slice = on_slice
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        elapsed = reference_slice()
        self.slices.append(elapsed)
        self.in_block_s += elapsed
        if self._on_slice is not None:
            self._on_slice(SLICE_SPAN, start, start + elapsed)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.slices) < MIN_SLICES:
            self.slices.append(reference_slice())

    @property
    def factor(self) -> float:
        return factor_from(self.slices)

    def normalise(self, wall: float) -> float:
        """Wall seconds of the block, without the slices, at reference speed."""
        return (wall - self.in_block_s) * self.factor
