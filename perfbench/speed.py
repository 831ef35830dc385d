"""Wall-clock timing corrected for the host's speed at the time.

On a shared virtual machine the same code runs up to twice as slowly for
stretches of seconds to minutes, whoever else is using the physical cores.
While a segment is timed, a short fixed probe that does not touch the library
runs at its start, at its end and every ``TICK_S`` seconds in between (from a
``SIGALRM`` handler, so between two bytecodes of the main thread): a Python
loop of 100-element dot products (the shape of a Gauss-Seidel sweep) and
whole-array passes over a 300 x 300 matrix (the shape of the dendrogram and
projection kernels). The segment's time in reference seconds is its wall time,
less the probes' own time, times the mean of ``PROBE_REF_S / probe time``
over those probes: the time it would take on a host that runs the probe in
``PROBE_REF_S``. A change to the library moves the segment and not the probe,
so it moves the reported time in full.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

clock = time.perf_counter

# Probe time that defines a reference second: about the probe's time on the
# 2-vCPU Xeon host where the benchmark was written (see DESIGN.md).
PROBE_REF_S = 0.001
TICK_S = 0.2

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((100, 100))
_VEC = np.ones(100)
_MAT = _rng.standard_normal((300, 300))


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = clock()
    acc = 0.0
    for i in range(150):
        acc += float(_ROWS[i % 100] @ _VEC)
    acc += float(np.where(_MAT > 0.5, _MAT, np.inf).min()) + float(np.abs(_MAT).sum())
    return clock() - t0


@dataclass
class Timed:
    wall_s: float = 0.0  # probes that ran inside the segment excluded
    ref_s: float = 0.0
    probe_s: float = 0.0  # the probes that ran inside the segment


class SpeedClock:
    """Accumulates wall and reference seconds over probed segments."""

    def __init__(self):
        self._probes: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._probes.append(probe())

    @contextmanager
    def segment(self, into: Timed):
        self._probes = [probe()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = clock()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = clock() - t0
            signal.signal(signal.SIGALRM, previous)
            inside = self._probes[1:]
            self._probes.append(probe())
            wall -= sum(inside)
            speed = sum(PROBE_REF_S / p for p in self._probes) / len(self._probes)
            into.probe_s += sum(inside)
            into.wall_s += wall
            into.ref_s += wall * speed
