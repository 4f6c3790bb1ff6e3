"""cold-predict: one-shot ``repro predict <wl> --no-real`` requests.

Each request builds a fresh 12-core machine and prophet, drops the section
memo, then profiles, calibrates, attaches burdens and predicts FF+SYN at
threads 2..12 with the workload's registered schedule and paradigm.  One
caller sends the requests back to back in whole passes over the eight
Fig. 12 workloads, each pass a seeded permutation.
"""

from __future__ import annotations

import time

from common import Outcome, close, median, quantile
from inputs import CORES, THREADS, cold_order, grid_key, registered
from probe import REFERENCE_S, SpeedProbe

from repro import ParallelProphet
from repro.core.executor import clear_section_memo
from repro.simhw.machine import MachineConfig
from repro.workloads import get_workload

#: The tail percentile needs ten samples beyond it.
MIN_REQUESTS = 100
STAGES = ("profile", "calibrate", "attach", "predict")


class ColdPredict:
    name = "cold-predict"

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.workloads = {
            name: (get_workload(name), paradigm, schedule)
            for name, paradigm, schedule in registered()
        }

    def request(self, name: str, recorder=None, rid=None) -> tuple[dict, object]:
        """One cold request; returns its stage times and its report."""
        wl, paradigm, schedule = self.workloads[name]
        root = recorder.request("bench.request", rid) if recorder else None
        t0 = time.perf_counter()
        prophet = ParallelProphet(machine=MachineConfig(n_cores=CORES))
        clear_section_memo()
        t1 = time.perf_counter()
        profile = prophet.profile(wl.program)
        t2 = time.perf_counter()
        prophet.calibration(THREADS)
        t3 = time.perf_counter()
        prophet.attach_burdens(profile, THREADS)
        t4 = time.perf_counter()
        report = prophet.predict(
            profile,
            threads=THREADS,
            paradigm=paradigm,
            schedules=[schedule],
            methods=("ff", "syn"),
        )
        t5 = time.perf_counter()
        if root is not None:
            recorder.end_request(root)
        stages = {
            "total": t5 - t0,
            "profile": t2 - t1,
            "calibrate": t3 - t2,
            "attach": t4 - t3,
            "predict": t5 - t4,
        }
        return stages, report

    def measure(self, seconds: float, min_ops: int = MIN_REQUESTS, recorder=None,
                passes=None) -> Outcome:
        """Whole passes until ``seconds`` passed and ``min_ops`` were sent
        (or exactly ``passes`` passes).  A host-speed probe samples before
        each request, on this thread."""
        out = Outcome()
        probe = out.extra["probe"] = SpeedProbe()
        split: dict[str, list[dict]] = {name: [] for name in self.workloads}
        out.extra["stages"] = split
        reports = out.extra["reports"] = []
        n_names = len(self.workloads)
        order = cold_order(self.seed, 10_000 // n_names)
        out.begin()
        start = time.perf_counter()
        i = 0
        while True:
            done_passes = i // n_names
            if passes is not None:
                if done_passes >= passes:
                    break
            elif i % n_names == 0 and i >= min_ops and (
                time.perf_counter() - start >= seconds
            ):
                break
            name = order[i]
            probe.sample()
            try:
                stages, report = self.request(name, recorder, rid=i)
            except Exception as exc:  # counted, never fatal
                out.attempted += 1
                out.fail(f"{name}: {type(exc).__name__}: {exc}")
                i += 1
                continue
            out.attempted += 1
            out.op(stages["total"])
            stages["rid"] = i
            split[name].append(stages)
            reports.append((name, report))
            i += 1
        out.end()
        return out

    def check(self, out: Outcome) -> None:
        """Every FF/SYN answer against the recorded eager-oracle table.

        The answers do not depend on the seed (it only orders the
        requests), so the table covers every seed."""
        for name, report in out.extra.pop("reports"):
            _wl, paradigm, schedule = self.workloads[name]
            ref = self.refs["grid"][grid_key(name, paradigm, CORES, schedule)]
            if len(report.estimates) != 2 * len(THREADS):
                out.fail(f"{name}: {len(report.estimates)} estimates")
                continue
            for est in report.estimates:
                want = ref[est.method][THREADS.index(est.n_threads)]
                if not close(est.speedup, want):
                    out.fail(f"{name} {est.method}/t={est.n_threads}: {est.speedup!r} != {want!r}")
                    break

    def end_to_end(self, out: Outcome) -> dict[str, float]:
        """Scaled to the probe's reference speed."""
        lat, wall = out.scaled(out.extra["probe"])
        return {
            "throughput_per_s": len(lat) / wall,
            "latency_p50_ms": 1e3 * quantile(lat, 0.5),
            "latency_tail_ms": 1e3 * quantile(lat, 0.9),
        }

    def report_lines(self, out: Outcome) -> list[str]:
        """The per-workload stage split (profile/calibrate/attach/predict)."""
        probe = out.extra["probe"]
        lines = [
            f"host speed: {len(probe.samples)} probes, median {probe.typical():.5f} s "
            f"against the {REFERENCE_S} s reference; throughput and latencies below "
            "the 'metrics:' line are scaled to the reference speed",
            f"cold_predict_p50_s {quantile(out.latencies, 0.5):.4f} s; "
            f"cold_predict_p90_s {quantile(out.latencies, 0.9):.4f} s "
            f"(n={len(out.latencies)}, host time as measured)",
            "stage split, median seconds per request (share of the request):",
            f"  {'workload':<14}{'n':>4}{'total':>9}"
            + "".join(f"{s:>16}" for s in STAGES),
        ]
        for name, rows in out.extra["stages"].items():
            if not rows:
                continue
            total = median([r["total"] for r in rows])
            cells = []
            for stage in STAGES:
                m = median([r[stage] for r in rows])
                cells.append(f"{m:>9.4f} ({m / total:4.0%})")
            lines.append(f"  {name:<14}{len(rows):>4}{total:>9.4f}" + "".join(cells))
        ft = out.extra["stages"].get("npb_ft")
        if ft:
            total = median([r["total"] for r in ft])
            cal = median([r["calibrate"] for r in ft])
            lines.append(
                f"npb_ft first fact: calibration {cal:.3f} s of {total:.3f} s "
                f"({cal / total:.0%}), REAL excluded, threads 2..12, no profiler; "
                "ROADMAP cProfile figure: 0.23 s of 0.47 s (49%), REAL included, "
                "threads 2,4,8,12"
            )
        return lines
