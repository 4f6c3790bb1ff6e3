"""Host-speed probe: a fixed pure-Python loop timed next to the work.

Virtual CPUs on a shared host change speed by tens of percent within seconds,
and not in step with each other, which would bury a change in the program
under host noise.  :class:`SpeedProbe` times :func:`probe_loop` where the
work runs and when it runs, and host times are then scaled to a reference
speed: an interval is multiplied by ``REFERENCE_S`` over the median probe
timing taken during it.  The loop depends on nothing in the program under
test.  cold-predict probes between its requests, on the requesting thread,
while no program code runs; validation-sweep probes inside both pool
workers, after every chunk.  serve-mixed reports host time as measured: a
probe on the daemon would compete for the GIL with the handler and client
threads, so it would time the program's own work too, and probes taken
while no request was in flight did not narrow the spread between runs.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time

#: Probe timing that defines the reference speed (its usual length on an
#: idle 2-vCPU virtual machine).
REFERENCE_S = 0.010


def probe_loop() -> tuple[float, float]:
    """(``time.monotonic()`` at start, seconds taken) of a fixed workload."""
    t = time.monotonic()
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    x = 0.0
    for i in range(40_000):
        d[i & 1023] = x
        x += (i * 0.5) / (1 + (i & 7))
    return t, time.perf_counter() - t0


class SpeedProbe:
    """Probe timings of one measured phase."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time the loop once on the calling thread."""
        self.samples.append(probe_loop())

    def typical(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Median probe timing between two ``time.monotonic()`` stamps,
        widened to the whole phase when fewer than three fall inside."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < 3:
            inside = [d for _t, d in self.samples]
        return statistics.median(inside) if inside else REFERENCE_S

    def scale(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Factor converting a host time measured in [t0, t1] to reference speed."""
        return REFERENCE_S / self.typical(t0, t1)

    def scaled(self, t0: float, t1: float, step: float = 2.0) -> float:
        """The interval [t0, t1] at reference speed, summed over slices of
        ``step`` s, each scaled by the probes inside it."""
        total, t = 0.0, t0
        while t < t1:
            end = min(t + step, t1)
            total += (end - t) * self.scale(t, end)
            t = end
        return total


#: Seconds between two probes of a :class:`ProbeProcess`.
EVERY_S = 0.2


class ProbeProcess:
    """A separate interpreter probing every ``EVERY_S`` s until stopped.

    It shares no interpreter lock with the program, so its timings follow
    the host and not the program's own work."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def stop(self) -> SpeedProbe:
        """End the process, wait for it, and return its probe timings."""
        try:
            out, _err = self.proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _err = self.proc.communicate()
        probe = SpeedProbe()
        for line in out.splitlines():
            t, dt = line.split()
            probe.samples.append((float(t), float(dt)))
        return probe


def _probe_until_stdin_closes() -> None:
    samples = []
    while not select.select([sys.stdin], [], [], EVERY_S)[0]:
        samples.append(probe_loop())
    sys.stdout.write("".join(f"{t!r} {dt!r}\n" for t, dt in samples))


if __name__ == "__main__":
    _probe_until_stdin_closes()
