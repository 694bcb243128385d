"""Host-speed probe: expresses measured seconds at a fixed reference speed.

On a shared host the same pure-Python code runs up to 40% faster or slower
from one minute to the next, and every task of a run moves with it. The
probe is a fixed integer loop that uses nothing from digitopo, timed between
tasks (never inside one). Every time the benchmark reports is multiplied by

    REFERENCE_S / median(probe times of the same phase)

that is, expressed in seconds of a host on which the probe takes
REFERENCE_S. A change to the package cannot change the probe, so it moves
the reported times exactly as it moves the measured ones; a change in the
host's speed moves the probe and the tasks alike and cancels out.
REFERENCE_S is about the probe's median on a 2-vCPU Xeon at 2.1 GHz (where
it ran 3.9-5.7 ms), so reported times read as seconds on that machine.
"""

from __future__ import annotations

import gc
import statistics
import time

PROBE_LOOP = 50_000
REFERENCE_S = 0.0056
PROBE_EVERY_S = 0.25


def _loop() -> int:
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class HostSpeed:
    """Probe samples of one phase of a run, and the factor they give."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t0)
        if enabled:
            gc.enable()
        self._last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """Multiply measured seconds by this to get reference seconds."""
        return REFERENCE_S / self.median_s()
