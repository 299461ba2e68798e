"""Hold the load back while the host's CPU is contended.

On a shared virtual machine the CPU runs the same code up to ~2×
slower while a neighbour competes for the physical core, in phases of
a fraction of a second to tens of seconds. A run's median then depends
on how much of it fell into such phases. :class:`QuietGate` probes the
interpreter's speed before every operation and, while the probe reads
slower than the fastest probe of the run by more than ``TOLERANCE``,
waits before the next operation is sent. Measured operations are never
altered, repeated or dropped; only the moment they start is chosen, and
the waits are excluded from every measured interval and reported. The
waits may take at most ``SHARE`` of the time since the gate was made,
and ``MOST_WAIT_S`` in all, so the gate spends its waiting evenly over
a run, and a host that stays contended is measured as it is.
"""

from __future__ import annotations

import math
import time

__all__ = ["QuietGate"]

#: a probe this much slower than the run's fastest reads contended
TOLERANCE = 1.3
#: seconds to wait before probing a contended host again
PAUSE_S = 0.02
#: most share of the run so far that the waits may take
SHARE = 0.6
#: most seconds the waits may take in all, so that a run on a host that
#: stays contended still ends well within its time limit
MOST_WAIT_S = 40.0
#: seconds :meth:`QuietGate.calibrate` probes for
CALIBRATE_S = 0.3


def _probe_work() -> int:
    """A fixed ~0.5 ms of pure-Python work (arithmetic, dicts, strings)."""
    table: dict[str, int] = {}
    for i in range(1500):
        table[f"k{i % 97}"] = table.get(f"k{i % 97}", 0) + i * i
    return sum(table.values())


class QuietGate:
    """Wait between operations while the host reads contended."""

    def __init__(self) -> None:
        #: fastest probe of the run so far (ms)
        self.best_ms = math.inf
        #: seconds spent inside :meth:`calibrate` and :meth:`settle`
        self.waited = 0.0
        self.probes = 0
        self._born = time.perf_counter()

    def probe(self) -> float:
        """The fastest of three probe runs, in ms."""
        best = math.inf
        for _ in range(3):
            started = time.perf_counter()
            _probe_work()
            best = min(best, (time.perf_counter() - started) * 1e3)
        self.probes += 1
        self.best_ms = min(self.best_ms, best)
        return best

    def calibrate(self) -> None:
        """Probe for ``CALIBRATE_S`` to find the host's uncontended
        speed."""
        started = time.perf_counter()
        while time.perf_counter() - started < CALIBRATE_S:
            self.probe()
        self.waited += time.perf_counter() - started

    def settle(self) -> None:
        """Return once the host reads uncontended, or once the waits
        reach their share."""
        started = time.perf_counter()
        while self.probe() > TOLERANCE * self.best_ms:
            now = time.perf_counter()
            if self.waited + now - started >= min(
                    SHARE * (now - self._born), MOST_WAIT_S):
                break
            time.sleep(PAUSE_S)
        self.waited += time.perf_counter() - started
