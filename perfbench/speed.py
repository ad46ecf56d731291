"""Op time at a fixed host speed.

The shared machine this benchmark was written on switches between a fast
and a slow state, about 1.9x apart, every few seconds, and an op of a few
seconds straddles several switches.  Process CPU time slows down as much
as wall time, so neither can tell slow code from a slow host.

`SpeedClock` measures the host's speed while the op runs.  A timer signal
interrupts the timed code every INTERVAL seconds, and the handler times
BURST iterations of a fixed Fraction loop.  The loop is independent of
the package, so its time follows the host alone.  The clock reports the
op's wall time without the bursts, and that time scaled to the host's
reference speed: each interval counts REFERENCE_BURST_S / burst time of
its seconds.  The reference is the fast state of the machine the bounds
were set on; on a uniformly faster host both the op and the bursts speed
up, so scaled times compare across hosts as well.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.02
BURST = 50
REFERENCE_BURST_S = 3.4e-4


def fraction_loop(iterations: int) -> float:
    """Seconds taken by a fixed Fraction loop that never touches the package."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for _ in range(iterations):
        x = (x * Fraction(7, 5) + 1) / Fraction(3, 2)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000 + 1)
    return time.perf_counter() - start


class SpeedClock:
    """Context manager: wall_s and scaled_s of the code run inside it."""

    def __init__(self):
        self.bursts = []
        self.wall_s = self.scaled_s = 0.0

    def _tick(self, signum, frame):
        self.bursts.append(fraction_loop(BURST))

    def __enter__(self):
        self.bursts = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        # The first burst fires at once, so even a short span has one.
        signal.setitimer(signal.ITIMER_REAL, 1e-4, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - sum(self.bursts)
        self.scaled_s = self.wall_s * self.speed()
        return False

    def speed(self) -> float:
        """Mean host speed over the span, 1.0 being the reference."""
        if not self.bursts:
            return 1.0
        return sum(REFERENCE_BURST_S / b for b in self.bursts) / len(self.bursts)

    def report(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "scaled_s": self.scaled_s,
            "speed": self.speed(),
            "bursts_s": sum(self.bursts),
        }


def scale_child(wall: float, report: dict) -> float:
    """Scale the wall time of a child process whose clock gave `report`.

    The child's start-up before its clock started is counted at the mean
    speed the clock measured; the bursts are taken out.
    """
    outside = wall - report["wall_s"] - report["bursts_s"]
    return report["scaled_s"] + outside * report["speed"]
