"""A clock in calibrated seconds: wall time corrected for the host's current speed.

On a shared host the speed of one vCPU swings by up to 2x in regimes that
last one to a few seconds, and the two vCPUs swing independently, so no
second process can watch for it. While the clock runs, an interval timer
interrupts the measured thread every PROBE_INTERVAL_S; the handler times a
fixed pure-Python probe loop and scales the wall time since the previous
probe by PROBE_NOMINAL_S over that probe's time. The probes' own time is left
out. Calibrated seconds are thus seconds at the speed at which the probe takes
PROBE_NOMINAL_S; the scale is fixed, so they compare across runs and commits.
"""

from __future__ import annotations

import signal
import time

PROBE_INTERVAL_S = 0.02
PROBE_NOMINAL_S = 0.0002


def probe() -> None:
    """Fixed work like the program's element codes: decode, split, int, zfill,
    join, encode, dict store. It tracks the program's speed within about 3%,
    where a plain integer loop drifts by 6%."""
    code = b"01,02,03;4"
    table = {}
    for i in range(60):
        head, j = code.decode("ascii").split(";")
        parts = [(int(c) * 7 + i) % 31 for c in head.split(",")]
        code = (",".join(str(x).zfill(2) for x in parts) + ";" + str((int(j) + 1) % 5)).encode("ascii")
        table[code] = i


class CalibratedClock:
    """Context manager; `now()` reads calibrated seconds since it was entered."""

    def __init__(self):
        self._calibrated = 0.0
        self._last = 0.0
        self._scale = 1.0
        self._generation = 0
        self._previous_handler = None

    def _probe(self, *_):
        began = time.perf_counter()
        probe()
        ended = time.perf_counter()
        self._calibrated += (began - self._last) * self._scale
        self._scale = PROBE_NOMINAL_S / (ended - began)
        self._last = ended
        self._generation += 1

    def __enter__(self) -> "CalibratedClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        self._last = time.perf_counter()
        self._probe()
        self._calibrated = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def now(self) -> float:
        while True:
            generation = self._generation
            value = self._calibrated + (time.perf_counter() - self._last) * self._scale
            if generation == self._generation:
                return value
