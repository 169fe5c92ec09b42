"""Host-speed monitor: scales command times to a reference CPU speed.

On a shared host the speed of a virtual CPU changes every few seconds, by up
to 1.8 times, and every process on it slows together, so raw wall times of
the same command spread by a third between runs.  The benchmark therefore
runs each command pinned to one CPU, and a ``Monitor`` thread pinned to the
same CPU times a small fixed kernel every ``INTERVAL_S`` while the command
runs.  The kernel is timed in thread CPU time, which leaves out the time the
command itself holds the CPU but takes in the host's slowdown.  A command's
``slowdown`` is its mean kernel time over ``REFERENCE_S``.

The kernel is a pure bytecode loop and never changes with divtim.  Its time
tracks the host's state closely (a log-log correlation of 0.97-0.99 with
divtim commands on a 2-vCPU Intel Xeon virtual machine), but divtim slows
more steeply than the kernel: as ``slowdown ** gamma`` with gamma 1.4-2.1,
depending on the command.  So ``fit_gamma`` estimates gamma from the
repetitions of each command within a run, and ``at_reference`` divides a
wall time by ``slowdown ** gamma``: the time the command would have taken
with the host at its reference speed.
"""

from __future__ import annotations

import math
import threading
import time

LOOP = 4000
INTERVAL_S = 0.01
# Median kernel time on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_S = 0.0003
# gamma is shrunk toward GAMMA_PRIOR, as if the run held extra repetitions
# whose log slowdowns spread by PRIOR_WEIGHT in sum of squares; a run whose
# slowdowns hardly vary keeps about the prior.
GAMMA_PRIOR = 1.6
PRIOR_WEIGHT = 0.05
GAMMA_RANGE = (0.5, 3.0)


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum of it."""
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


EXPECTED = kernel()


def time_kernel() -> float:
    """Thread CPU time of one kernel run, in seconds."""
    start = time.thread_time()
    result = kernel()
    elapsed = time.thread_time() - start
    if result != EXPECTED:
        raise RuntimeError(f"calibration kernel returned {result}, expected {EXPECTED}")
    return elapsed


class Monitor:
    """Samples the kernel time on this CPU until stopped.

    Use as a context manager around a command.  Sampling runs once at entry
    and exit too, so a short command still gets a reading.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append(time_kernel())

    def __enter__(self) -> "Monitor":
        self.samples.append(time_kernel())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(time_kernel())

    @property
    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / REFERENCE_S


def fit_gamma(points: list[tuple[object, float, float]]) -> float:
    """Exponent of wall time in slowdown, from ``(group, wall_s, slowdown)``.

    Repetitions of one group (the same command on the same input) differ
    only by the host's state, so the fit is the least-squares slope of
    log wall time on log slowdown within groups, shrunk toward GAMMA_PRIOR.
    """
    groups: dict[object, list[tuple[float, float]]] = {}
    for group, wall, slowdown in points:
        groups.setdefault(group, []).append((math.log(slowdown), math.log(wall)))
    sxx = sxy = 0.0
    for pairs in groups.values():
        mx = sum(x for x, _ in pairs) / len(pairs)
        my = sum(y for _, y in pairs) / len(pairs)
        sxx += sum((x - mx) ** 2 for x, _ in pairs)
        sxy += sum((x - mx) * (y - my) for x, y in pairs)
    gamma = (sxy + PRIOR_WEIGHT * GAMMA_PRIOR) / (sxx + PRIOR_WEIGHT)
    return min(max(gamma, GAMMA_RANGE[0]), GAMMA_RANGE[1])


def at_reference(wall_s: float, slowdown: float, gamma: float) -> float:
    """Wall time scaled to the host's reference speed."""
    return wall_s / slowdown ** gamma
