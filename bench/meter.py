"""Machine-speed meter for a shared host.

A fixed probe is timed twenty times a second from a SIGALRM handler,
so it also runs inside long ops (the handler runs between bytecodes of the
op).  An op's time is then rescaled by how fast the probe ran around it:
on a shared 2-vCPU machine the same op ran up to 1.5x slower for seconds to
minutes at a time, and a probe that only runs between ops cannot see what
happened during an 8-s op.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# The probe's time on the reference machine when it is fast, so a rescaled
# op time is the op's time at that speed.
PROBE_NOMINAL_S = 0.00025
# Probe samples within WINDOW_S of an op's ends set its speed.
WINDOW_S = 0.25

_A = np.linspace(0.0, 1.0, 256)


def probe() -> None:
    """A fixed mix of interpreter and small-array numpy work (about 0.3 ms)."""
    total = 0
    for k in range(1500):
        total += k * k % 7
    a = _A
    for _ in range(20):
        a = np.sort(np.sin(a) + 1e-3)


class SpeedMeter:
    """Probe start times and durations, from start() to stop()."""

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.t: list[float] = []
        self.dt: list[float] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.t.append(t0)
        self.dt.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old if self._old is not None else signal.SIG_DFL)

    def _window(self, a: float, b: float) -> list[float]:
        lo, hi = bisect.bisect_left(self.t, a), bisect.bisect_right(self.t, b)
        return self.dt[lo:hi]

    def rescale(self, t0: float, t1: float) -> float:
        """The op that ran from t0 to t1, less the probes inside it, at the
        nominal probe speed: scaled by PROBE_NOMINAL_S over the median probe
        within WINDOW_S of the op."""
        inside = sum(self._window(t0, t1))
        near = self._window(t0 - WINDOW_S, t1 + WINDOW_S) or self.dt
        return (t1 - t0 - inside) * PROBE_NOMINAL_S / statistics.median(near)
