"""Host-speed probes, to rescale measured times to one reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, with no steal time shown, so
CPU time drifts as much as wall time does.  A `HostClock` therefore runs
a small fixed pure-Python kernel (`probe_kernel`, which calls no opgroth
code) every `PERIOD_S` seconds from a SIGALRM handler, and at the start
and end of whatever it times.  A stretch of time in which the kernel
took ``p`` seconds is scaled by ``REF_PROBE_S / p``: the time the same
work would have taken on a host where the kernel takes `REF_PROBE_S`.
A slower program reads slower, a slower host does not.

The kernel does what opgroth's checkers do most: hash tuples, look them
up in a dict and build new tuples.  Its own time is taken out of every
interval it interrupts.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

# A typical time of one `probe_kernel` call inside a pass on the
# reference host (2-vCPU x86-64 KVM guest, Python 3.11.7), where the
# median of a run ranged 1.7-3.2 ms.  It is fixed: every scaled time in
# this benchmark is a time at the host speed it stands for.
REF_PROBE_S = 2.0e-3
PERIOD_S = 0.25

_rng = random.Random(20240401)
_TABLE = {(_rng.randrange(1 << 20), i): i for i in range(256)}
_KEYS = list(_TABLE)


def probe_kernel() -> int:
    # small enough to stay in cache, so that the program's own memory
    # footprint does not change the probe's time
    table, acc = _TABLE, 0
    for _ in range(32):
        seen = {}
        for key in _KEYS:
            value = table[key]
            a, b = key
            new = (b, a & 255)
            seen[new] = seen.get(new, 0) + value
            acc += len(new)
    return acc


class HostClock:
    """Probes of host speed, and times rescaled by them."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, duration), perf_counter seconds
        self._busy = False
        probe_kernel()  # first call: specialise the byte code before any probe counts

    def probe(self) -> None:
        if self._busy:  # an alarm inside an explicit probe: that probe counts
            return
        self._busy = True
        # a collection inside the probe would time the program's heap
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_kernel()
        self.probes.append((start, time.perf_counter() - start))
        if collecting:
            gc.enable()
        self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.probe()

    def start(self) -> None:
        """Probe now, then every PERIOD_S seconds until `stop`."""
        self.probe()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def probe_time(self, start: float, end: float) -> float:
        """Time spent in probes that began in [start, end)."""
        return sum(d for t, d in self.probes if start <= t < end)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference speed over host speed around [start, end): the mean of REF_PROBE_S / p.

        It takes the probes that began in the stretch or within one period
        of it, so that a short stretch still averages a few; a stretch with
        none that near uses the last probe before it and the first after it.
        """
        inside = [d for t, d in self.probes if start - PERIOD_S <= t < end + PERIOD_S]
        if not inside:
            before = [d for t, d in self.probes if t < start][-1:]
            after = [d for t, d in self.probes if t >= end][:1]
            inside = before + after
        return statistics.fmean(REF_PROBE_S / d for d in inside)

    def scaled(self, start: float, end: float) -> float:
        """The time from `start` to `end`, less probe time, at the reference host speed."""
        return (end - start - self.probe_time(start, end)) * self.factor(start, end)
