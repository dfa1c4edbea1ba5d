"""Scale measured times to a reference speed of the machine.

On a shared host the same work runs at different speeds: a process's CPU
runs fast or slow in stretches of a fraction of a second to minutes,
depending on what else the host runs, and its own CPU time grows as fast as
wall time in both.  A stretch can outlast a whole run, so no median taken
inside one run removes it.

``SpeedProbe`` measures the machine's speed while the work runs.  A timer
signal interrupts the work every ``INTERVAL`` seconds; its handler, on the
same thread and core, times a fixed pure-Python loop (dict, list and integer
work, like gclab's) and records how long it took.  ``scaled`` turns one
timed step into seconds at the reference speed:

    (step time - probe time inside it) * (REFERENCE_S / mean probe time) ** elasticity

where the mean is over the probes taken inside the step, or the last
``MIN_PROBES`` probes when the step was too short to hold that many.
``REFERENCE_S`` is the loop's time on the fast stretches of the 2-core
machine the benchmark was written on, so scaled figures read as seconds
there.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.025        # seconds between probes
REFERENCE_S = 6.0e-4    # the probe loop's time at the reference speed
MIN_PROBES = 8
LOOP = 3000


def probe_loop() -> int:
    table: dict[int, int] = {}
    cells = [0] * 64
    acc = 0
    for i in range(LOOP):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + 1
        cells[i & 63] += key
        acc ^= key
    return acc + len(table) + cells[7]


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        probe_loop()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> "SpeedProbe":
        for _ in range(MIN_PROBES):  # probes to scale the first steps by
            self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def scaled(self, t0: float, t1: float, elasticity: float = 1.0) -> float:
        """The step timed from ``t0`` to ``t1`` (``time.perf_counter``), in
        seconds at the reference speed.  ``elasticity`` is how the step's log
        time follows the probe's: 1 for interpreted work, less for work that
        waits on memory, which a slow stretch slows less."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.times[lo:hi]
        work = t1 - t0 - sum(inside)
        probes = inside if len(inside) >= MIN_PROBES else self.times[max(0, hi - MIN_PROBES):hi]
        return work * (REFERENCE_S * len(probes) / sum(probes)) ** elasticity

    def summary(self) -> dict:
        times = sorted(self.times)
        n = len(times)
        return {"probes": n, "probe_s_median": times[n // 2], "probe_s_p10": times[n // 10],
                "probe_s_p90": times[(9 * n) // 10], "reference_s": REFERENCE_S}
