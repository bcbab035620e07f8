"""How fast a shared host runs while a timed piece of work runs.

On a shared virtual machine the speed of the host drifts by 10 to 30 % over
seconds, in process CPU time as much as in wall time.  A fixed reference task
timed next to the work does not see the same host: the drift is faster than
the gap.  So the task is run *inside* the work, from a SIGALRM handler in the
measuring thread itself, every ``REFERENCE_INTERVAL_S``: each run meets the
host in the state the work around it meets, and the mean of its times over
the work is the host's mean slowness during it.  A time scaled by
``REFERENCE_S / mean`` is the time at a fixed nominal host speed.

The task is the benchmark's own code and calls nothing in the lab.  The
garbage collector is off while it runs, so its time does not depend on how
many objects the lab holds.  It costs about 0.5 % of the work's time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_S = 0.0005          # nominal seconds of one reference task
REFERENCE_INTERVAL_S = 0.1    # how often the task runs inside timed work
WARM_UP_RUNS = 50


class HostSpeed:
    """Samples the reference task's time while a ``with`` block runs."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.index = np.random.default_rng(0).integers(0, 64, size=4000)
        self.table = np.zeros(64)
        self.samples: list[float] = []
        for _ in range(WARM_UP_RUNS):
            self._task()

    def _task(self) -> None:
        """Fixed work of the kinds the lab does: dict counting and a numpy scatter-add."""
        counts: dict[int, int] = {}
        for i in range(3000):
            key = (i * 7) & 255
            counts[key] = counts.get(key, 0) + i
        self.np.add.at(self.table, self.index, 1.0)

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._task()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> HostSpeed:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # work shorter than one interval: sample right after it
            self.sample()

    def mean(self) -> float:
        return statistics.mean(self.samples)


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference task took ``reference``, at nominal host speed."""
    return seconds * REFERENCE_S / reference
