"""DRAM calibration microbenchmark and the Ψ/Φ fits (paper Section V-D).

The paper determines two empirical formulas on the target machine with a
"specially designed microbenchmark" that generates controlled DRAM traffic:

- ``Ψₜ`` (Eq. 6): per-thread *achieved* DRAM traffic when ``t`` identical
  threads run together, as a function of the single-thread traffic δ.  The
  paper fits a linear form for t = 2 and logarithmic forms for t ≥ 4.
- ``Φ`` (Eq. 7): CPU stall cycles per DRAM access as a function of achieved
  per-thread traffic, fit as a power law ``ω = a·δᵇ`` (the paper reports
  ``101481·δ^−0.964``).

This module reruns that methodology on the *simulated* machine: sweep the
LLC-miss intensity of a probe kernel, run it at each requested thread count,
measure traffic and stall-per-miss from the simulated counters, and fit the
same functional forms with least squares.  Below ``min_traffic_mbs`` the
formulas are not applied (paper assumption 5 / the δ ≥ 2000 MB/s guard) and
the burden factor is pinned to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.errors import CalibrationError
from repro.obs import get_metrics
from repro.simhw.dram import DramModel, SegmentDemand, segment_rates
from repro.simhw.machine import MachineConfig
from repro.simos import Compute, Join, SimKernel, Spawn
from repro.validate.invariants import get_checker


@dataclass(frozen=True)
class MicrobenchSample:
    """One measured point of the calibration sweep."""

    n_threads: int
    mpi: float
    serial_traffic_mbs: float
    per_thread_traffic_mbs: float
    stall_per_miss: float


@dataclass
class PsiFit:
    """Ψₜ parameters: linear (t=2 style) or logarithmic (t≥4 style)."""

    n_threads: int
    form: str  # "linear" | "log"
    a: float
    b: float

    def total_traffic(self, delta: float) -> float:
        """Predicted *total* traffic of t threads given serial traffic δ."""
        if self.form == "linear":
            return self.a * delta + self.b
        return self.a * np.log(max(delta, 1e-9)) + self.b

    def per_thread(self, delta: float) -> float:
        """δᵗ — Eq. 6 divides the total by t."""
        value = self.total_traffic(delta) / self.n_threads
        # The formulas "may return nonsensical numbers when δ is small"
        # (paper); never predict more achieved traffic than demanded.
        return float(min(max(value, 1e-6), delta)) if delta > 0 else 0.0

    def formula(self) -> str:
        """The fitted Eq. 6 line, in the paper's notation."""
        if self.form == "linear":
            return (
                f"delta_{self.n_threads} = ({self.a:.3f} * delta + {self.b:.0f})"
                f" / {self.n_threads}"
            )
        return (
            f"delta_{self.n_threads} = ({self.a:.0f} * ln(delta) + {self.b:.0f})"
            f" / {self.n_threads}"
        )


@dataclass
class PhiFit:
    """Φ parameters: ω = a·δᵇ (stall cycles per miss vs per-thread MB/s)."""

    a: float
    b: float
    floor: float  # uncontended stall (never predict below it)

    #: Sanity ceiling on predicted stall (cycles per miss); degenerate fits
    #: cannot produce astronomical numbers.
    MAX_STALL = 1e7

    def stall_per_miss(self, delta_t: float) -> float:
        """ωₜ = Φ(δₜ), floored at the uncontended stall and sanity-capped."""
        if delta_t <= 0:
            return self.floor
        import math

        # Compute in log space to survive degenerate (near-vertical) fits.
        log_value = math.log(self.a) + self.b * math.log(delta_t)
        if log_value > math.log(self.MAX_STALL):
            return self.MAX_STALL
        return float(max(math.exp(log_value), self.floor))

    def formula(self) -> str:
        """The fitted Eq. 7 power law, in the paper's notation."""
        return f"omega_t = {self.a:.0f} * (delta_t)^{self.b:.3f}"


@dataclass
class CalibrationResult:
    """Fitted Ψ per thread count plus Φ and the validity threshold."""

    machine: MachineConfig
    psi: dict[int, PsiFit]
    phi: PhiFit
    min_traffic_mbs: float
    samples: list[MicrobenchSample] = field(default_factory=list)
    #: Instructions per probe thread the samples were measured with.
    instructions: float = 50_000_000.0

    def predict_per_thread_traffic(self, delta: float, n_threads: int) -> float:
        """δᵗ = Ψₜ(δ) with interpolation for uncalibrated thread counts."""
        if n_threads <= 1:
            return delta
        if n_threads in self.psi:
            return self.psi[n_threads].per_thread(delta)
        keys = sorted(self.psi)
        if not keys:
            raise CalibrationError("no Ψ fits available")
        if n_threads < keys[0]:
            lo = 1
            lo_val = delta
        else:
            lo = max(k for k in keys if k <= n_threads)
            lo_val = self.psi[lo].per_thread(delta)
        his = [k for k in keys if k >= n_threads]
        if not his:
            return self.psi[keys[-1]].per_thread(delta)
        hi = min(his)
        hi_val = self.psi[hi].per_thread(delta)
        if hi == lo:
            return lo_val
        w = (n_threads - lo) / (hi - lo)
        return lo_val * (1 - w) + hi_val * w

    def predict_stall(self, delta_t: float) -> float:
        """ωₜ = Φ(δₜ) (Eq. 5)."""
        return self.phi.stall_per_miss(delta_t)

    def summary(self) -> str:
        """All fitted formulas, one per line."""
        lines = [f"Calibration on {self.machine.n_cores}-core machine "
                 f"(valid for delta >= {self.min_traffic_mbs:.0f} MB/s):"]
        for t in sorted(self.psi):
            lines.append("  " + self.psi[t].formula())
        lines.append("  " + self.phi.formula())
        return "\n".join(lines)


# ------------------------------------------------------------- measurement


def _sample(
    machine: MachineConfig,
    n_threads: int,
    mpi: float,
    instructions: float,
    elapsed: float,
) -> MicrobenchSample:
    """The counters one probe run reads, given its elapsed cycles."""
    cpu_cycles = instructions
    misses = instructions * mpi
    base = cpu_cycles + misses * machine.base_miss_stall
    seconds = machine.cycles_to_seconds(elapsed)
    per_thread_traffic = misses * machine.line_size / seconds / 1e6
    stall = (elapsed - cpu_cycles) / misses if misses > 0 else 0.0
    serial_seconds = machine.cycles_to_seconds(base)
    serial_traffic = misses * machine.line_size / serial_seconds / 1e6
    return MicrobenchSample(
        n_threads=n_threads,
        mpi=mpi,
        serial_traffic_mbs=serial_traffic,
        per_thread_traffic_mbs=per_thread_traffic,
        stall_per_miss=stall,
    )


def _run_probe(
    machine: MachineConfig, n_threads: int, mpi: float, instructions: float
) -> MicrobenchSample:
    """Run ``n_threads`` identical probe kernels and measure traffic/stalls.

    Each probe executes ``instructions`` at CPI$ = 1 with ``mpi``
    LLC misses per instruction (the paper's microbenchmark controls the LLC
    miss ratio while pinning L1/L2 behaviour).  This is the full DES run:
    calibration uses it only where the closed form does not apply
    (:func:`_closed_form_applies`); tests and ``repro check`` use it as the
    parity oracle of :func:`_closed_form_probes`.
    """
    misses = instructions * mpi
    base = instructions + misses * machine.base_miss_stall

    kernel = SimKernel(machine)

    def probe():
        yield Compute(cycles=base, instructions=instructions, llc_misses=misses)

    def master():
        threads = []
        for i in range(n_threads):
            t = yield Spawn(probe(), name=f"probe{i}")
            threads.append(t)
        for t in threads:
            yield Join(t)

    kernel.spawn(master(), name="mb-master")
    elapsed = kernel.run()
    return _sample(machine, n_threads, mpi, instructions, elapsed)


def _closed_form_applies(machine: MachineConfig, n_threads: int) -> bool:
    """Whether a probe of ``n_threads`` threads runs uncontended for cores.

    With at most one probe per core and free context switches, every probe
    segment starts at time 0 and keeps its core to the end, so each socket
    runs one fixed demand set and the DES outcome is one DRAM solve per
    socket.  More threads than cores queue and get preempted; a switch cost
    lands on the probe that takes over the spawning thread's core."""
    return n_threads <= machine.n_cores and machine.context_switch_cycles == 0


def _closed_form_probes(
    machine: MachineConfig,
    probes: Sequence[tuple[int, float]],
    instructions: float,
) -> list[MicrobenchSample]:
    """Answer ``(n_threads, mpi)`` probes with one batched DRAM solve.

    Every probe must satisfy :func:`_closed_form_applies`.  The kernel
    places the ``t`` probe threads on ``t`` consecutive cores (``1..t``,
    wrapping to core 0 once the spawning thread joins).  Under the
    interleaved socket mapping any ``t`` consecutive cores spread over the
    sockets alike, and the sockets have equal peaks, so cores ``0..t-1``
    give the same per-socket counts.  A socket hosting ``c`` probes runs
    ``c`` identical segments of memory fraction ``f`` and demand ``d``
    (:func:`segment_rates`, as the kernel rates them).  One
    :meth:`DramModel.solve_batch` over every ``(probe, socket)`` lane —
    padded to the widest socket — gives each socket's stall multiplier
    ``k``; the socket finishes at ``base·(1 − f + f·k)`` and the probe at
    its slowest socket.  Matches :func:`_run_probe` to the last ulp or two
    (the DES re-rates the survivors of a same-time completion).
    """
    pool = DramModel(
        machine, peak_bytes_per_sec=machine.dram_peak_bytes_per_sec_per_socket
    )
    lane_probe: list[int] = []
    lane_count: list[int] = []
    lane_f: list[float] = []
    lane_d: list[float] = []
    lane_base: list[float] = []
    for i, (n_threads, mpi) in enumerate(probes):
        misses = instructions * mpi
        base = instructions + misses * machine.base_miss_stall
        f, d = segment_rates(machine, base, misses)
        per_socket = [0] * machine.n_sockets
        for core in range(n_threads):
            per_socket[machine.socket_of(core)] += 1
        for count in per_socket:
            if count:
                lane_probe.append(i)
                lane_count.append(count)
                lane_f.append(f)
                lane_d.append(d)
                lane_base.append(base)
    count = np.asarray(lane_count)
    f = np.asarray(lane_f)
    d = np.asarray(lane_d)
    occupied = np.arange(int(count.max(initial=0)))[None, :] < count[:, None]
    k, _ = pool.solve_batch(
        np.where(occupied, f[:, None], 0.0), np.where(occupied, d[:, None], 0.0)
    )
    inv = get_checker()
    if inv.enabled:
        for j in range(len(k)):
            demands = [SegmentDemand(lane_f[j], lane_d[j])] * lane_count[j]
            inv.check_dram_cap(
                pool, demands, float(k[j]), where="microbench.closed_form"
            )
    elapsed = np.zeros(len(probes))
    np.maximum.at(elapsed, lane_probe, np.asarray(lane_base) * (1.0 - f + f * k))
    return [
        _sample(machine, n_threads, mpi, instructions, float(elapsed[i]))
        for i, (n_threads, mpi) in enumerate(probes)
    ]


def _measure(
    machine: MachineConfig,
    probes: Sequence[tuple[int, float]],
    instructions: float,
) -> list[MicrobenchSample]:
    """Every ``(n_threads, mpi)`` probe's sample, in order: the closed form
    answers all it applies to in one batch, the DES kernel the rest."""
    fast = [p for p in probes if _closed_form_applies(machine, p[0])]
    closed = dict(zip(fast, _closed_form_probes(machine, fast, instructions)))
    metrics = get_metrics()
    metrics.inc("microbench.probes.closed_form", float(len(fast)))
    metrics.inc("microbench.probes.des", float(len(probes) - len(fast)))
    return [
        closed[p] if p in closed else _run_probe(machine, *p, instructions)
        for p in probes
    ]


#: The measured fields of a :class:`MicrobenchSample`.
_SAMPLE_FIELDS = ("serial_traffic_mbs", "per_thread_traffic_mbs", "stall_per_miss")


def verify_calibration(
    cal: CalibrationResult, quick: bool = False, rel_tol: float = 1e-9
) -> tuple[int, list[str]]:
    """Re-run a calibration's probes on the DES kernel and compare.

    ``quick`` re-verifies every MPI point at one and two threads and at the
    full core count; otherwise every probe.  Returns ``(probes checked,
    mismatch messages)``; a mismatch is any sample field off by more than
    ``rel_tol`` relative.
    """
    machine = cal.machine
    keep = {1, 2, machine.n_cores}
    checked = 0
    mismatches: list[str] = []
    for sample in cal.samples:
        if quick and sample.n_threads not in keep:
            continue
        oracle = _run_probe(machine, sample.n_threads, sample.mpi, cal.instructions)
        checked += 1
        for name in _SAMPLE_FIELDS:
            got = getattr(sample, name)
            want = getattr(oracle, name)
            if abs(got - want) > rel_tol * max(abs(want), 1e-300):
                mismatches.append(
                    f"t={sample.n_threads} mpi={sample.mpi:.6g} {name}: "
                    f"{got!r} vs DES {want!r}"
                )
    return checked, mismatches


def calibrate_memory_model(
    machine: MachineConfig,
    thread_counts: Sequence[int] = (2, 4, 8, 12),
    mpi_points: Iterable[float] = (),
    instructions: float = 50_000_000.0,
    min_traffic_mbs: float = 2000.0,
    phi_min_serial_traffic_mbs: float = 2000.0,
) -> CalibrationResult:
    """Run the calibration sweep and fit Ψₜ and Φ (Eqs. 6 and 7).

    ``min_traffic_mbs`` is the paper's "only when δ ≥ 2000 MB/s" validity
    guard: sections below it get burden 1 and calibration points below it
    are excluded from the Ψ fits.  ``phi_min_serial_traffic_mbs`` applies
    the same guard to the Φ fit — below it the achieved-traffic/stall
    relation lives in the uncontended regime and would flatten the fit.
    """
    # Counted so sweep tests can assert the Ψ/Φ microbenchmark ran exactly
    # once per prophet (shared calibration on both the in-process and the
    # pooled sweep path), not once per grid point.
    get_metrics().inc("memmodel.calibrations")
    if not mpi_points:
        # Sweep miss intensity from light to streaming-bound.
        mpi_points = np.geomspace(5e-4, 0.12, 18)
    thread_counts = sorted({t for t in thread_counts if t >= 2})
    if not thread_counts:
        raise CalibrationError("need at least one thread count >= 2")

    probes = [
        (t, float(mpi)) for mpi in mpi_points for t in [1, *thread_counts]
    ]
    samples = _measure(machine, probes, instructions)
    serial_by_mpi = {s.mpi: s for s in samples if s.n_threads == 1}

    # -- fit Ψ per thread count -------------------------------------------------
    psi: dict[int, PsiFit] = {}
    for t in thread_counts:
        xs, ys = [], []
        for s in samples:
            if s.n_threads != t:
                continue
            serial = serial_by_mpi[s.mpi]
            if serial.serial_traffic_mbs < min_traffic_mbs:
                continue
            xs.append(serial.serial_traffic_mbs)
            ys.append(s.per_thread_traffic_mbs * t)  # total achieved traffic
        if len(xs) < 3:
            raise CalibrationError(
                f"too few calibration points ({len(xs)}) for t={t}; "
                f"lower min_traffic_mbs or widen mpi_points"
            )
        x = np.asarray(xs)
        y = np.asarray(ys)
        if t == 2:
            a, b = np.polyfit(x, y, 1)
            psi[t] = PsiFit(n_threads=t, form="linear", a=float(a), b=float(b))
        else:
            a, b = np.polyfit(np.log(x), y, 1)
            psi[t] = PsiFit(n_threads=t, form="log", a=float(a), b=float(b))

    # -- fit Φ over the *contended* achieved-traffic/stall pairs -----------------
    # Single-thread points live in a different regime (stall grows mildly
    # with traffic); the burden model evaluates Φ at per-thread-under-
    # contention traffic, so the fit uses the multi-thread sweep, like the
    # paper's microbenchmark that "controls the number of threads".
    xs, ys = [], []
    for s in samples:
        if s.n_threads < 2 or s.stall_per_miss <= 0:
            continue
        serial = serial_by_mpi[s.mpi]
        if serial.serial_traffic_mbs < phi_min_serial_traffic_mbs:
            continue
        xs.append(s.per_thread_traffic_mbs)
        ys.append(s.stall_per_miss)
    if len(xs) < 4:
        raise CalibrationError("too few points to fit Φ")
    # Fit ln ω = m·ln δ + c, i.e. ω = e^c · δ^m.
    slope, intercept = np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)
    phi = PhiFit(
        a=float(np.exp(intercept)),
        b=float(slope),
        floor=machine.base_miss_stall,
    )

    return CalibrationResult(
        machine=machine,
        psi=psi,
        phi=phi,
        min_traffic_mbs=min_traffic_mbs,
        samples=samples,
        instructions=instructions,
    )
