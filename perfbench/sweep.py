"""validation-sweep: the paper's evaluation as one offline batch.

One ``BatchPredictor(jobs=2).run`` call per round evaluates FF, SYN and
REAL at every grid point of two parts:

- part one: random Test1/Test2 programs (locks, nesting), the same for
  every seed and taken in a seeded order, under
  ``static,1``/``static``/``dynamic,1`` at threads 4, 8 and 12, memory
  model off (Figs. 9-11);
- part two: the eight registered workloads at threads 2..12 with their
  schedules, memory model on (Fig. 12).

Profiling and calibration happen in set-up.  Every round starts from an
empty section memo, so all rounds do the same work.  Round times are scaled
to the reference speed of :mod:`probe` by probes taken inside the pool
workers, after every chunk each of them runs: slices of each round are
scaled by the probes of both workers inside them, as cold-predict's
requests are by its own probes.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from common import Outcome, close, median, reset_program_state
from inputs import (
    CORES,
    THREADS,
    grid_key,
    random_order,
    random_programs,
    random_tasks,
    registered,
    registered_tasks,
)
from probe import REFERENCE_S, SpeedProbe, probe_loop

import repro.core.batch as batch_module
from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTaskFailure, _run_taskset
from repro.obs import get_metrics
from repro.simhw.machine import MachineConfig
from repro.workloads import get_workload

JOBS = 2
#: Rounds per run, at least: one round varies by about 10% with host speed.
MIN_ROUNDS = 2
#: Registry entries the probed chunks add to their snapshots: a gauge
#: ``bench.probe.<time.monotonic() at its start>`` per probe timing, and the
#: counter ``bench.probe.s`` of time spent probing.
PROBE = "bench.probe."


def _probed_taskset(*args, **kwargs):
    """The batch engine's chunk entry point, followed by a host-speed probe.

    Runs in the pool worker that takes the chunk.  The probe reaches the
    parent in the chunk's registry snapshot, which the engine merges."""
    results, snapshot = _run_taskset(*args, **kwargs)
    t, dt = probe_loop()
    if snapshot is not None:
        snapshot["gauges"][f"{PROBE}{t!r}"] = dt
        counted = snapshot["counters"]
        counted[PROBE + "s"] = counted.get(PROBE + "s", 0.0) + dt
    return results, snapshot


class ValidationSweep:
    name = "validation-sweep"
    pool = True

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs

    def setup(self) -> None:
        self.prophet = ParallelProphet(machine=MachineConfig(n_cores=CORES))
        self.profiles = {}
        programs = random_programs()
        for i in random_order(self.seed):
            name, program = programs[i]
            self.profiles[name] = self.prophet.profile(program)
        for name, _paradigm, _schedule in registered():
            self.profiles[name] = self.prophet.profile(get_workload(name).program)
        self.prophet.calibration(THREADS)
        names = [n for n in self.profiles if n.startswith("rand")]
        # Registered part first: the pool takes chunks in order, so the
        # longest ones (ompscr_lu's static,1 REAL points) start at once
        # instead of leaving one worker to finish them alone.
        self.registered = registered_tasks()
        self.tasks = self.registered + random_tasks(names)

    def round(self, tasks=None):
        """One cold batch over ``tasks`` (default: the whole grid)."""
        reset_program_state()
        predictor = BatchPredictor(self.prophet, jobs=JOBS)
        # The engine looks its chunk entry point up at call time; forked
        # pool workers inherit the probed one.
        batch_module._run_taskset = _probed_taskset
        try:
            return predictor.run(tasks or self.tasks, self.profiles, on_error="collect")
        finally:
            batch_module._run_taskset = _run_taskset

    def measure(self, seconds: float, min_ops: int = MIN_ROUNDS, recorder=None,
                passes=None) -> Outcome:
        """Whole rounds until ``seconds`` passed and ``min_ops`` ran (or
        exactly ``passes``).  Each round's host time, less the workers'
        probe time, is also kept scaled to the reference speed (left as
        it is if the workers were not forked from this process and so did
        not probe)."""
        out = Outcome()
        rounds = out.extra["rounds"] = []
        scaled = out.extra["scaled"] = []
        probe = out.extra["probe"] = SpeedProbe()
        out.begin()
        start = time.perf_counter()
        while True:
            if passes is not None:
                if len(rounds) >= passes:
                    break
            elif len(rounds) >= min_ops and time.perf_counter() - start >= seconds:
                break
            root = recorder.request("bench.round", len(rounds)) if recorder else None
            m0 = time.monotonic()
            t0 = time.perf_counter()
            results = self.round()
            dt = time.perf_counter() - t0
            m1 = time.monotonic()
            if root is not None:
                recorder.end_request(root)
            registry = get_metrics()
            taken = [
                (float(name[len(PROBE):]), value)
                for name, value in registry.snapshot()["gauges"].items()
                if name.startswith(PROBE)
            ]
            probe.samples.extend(taken)
            # Each worker probed after each of its chunks; the round's host
            # time is shared between them.
            dt -= registry.counters(prefix=PROBE).get(PROBE + "s", 0.0) / JOBS
            out.op(dt)
            scaled.append(dt * probe.scaled(m0, m1) / (m1 - m0) if taken else dt)
            rounds.append(results)
            out.attempted += len(results)
            for task, outcome in results:
                if isinstance(outcome, SweepTaskFailure):
                    out.fail(str(outcome))
        out.end()
        out.extra["points"] = len(self.tasks)
        return out

    def split_by_method(self) -> dict[str, float]:
        """Wall time of the grid run once per method (FF-only, ...)."""
        walls = {}
        for method in ("ff", "syn", "real"):
            tasks = [replace(task, methods=(method,)) for task in self.tasks]
            t0 = time.perf_counter()
            self.round(tasks)
            walls[method] = time.perf_counter() - t0
        return walls

    # ------------------------------------------------------------- checking

    def check(self, out: Outcome) -> None:
        """Every point against the recorded eager-oracle references: the
        registered part against ``grid``, the random part against
        ``random`` (both seed-independent)."""
        rounds = out.extra.pop("rounds")
        values = [self._values(results) for results in rounds]
        for later in values[1:]:
            if later != values[0]:
                out.fail("rounds disagree")
        if not values:
            return
        answers = values[0]
        n_reg = len(self.registered)
        for task, got in zip(self.registered, answers[:n_reg]):
            if got is None:
                continue
            ref = self.refs["grid"][grid_key(task.workload, task.paradigm, CORES, task.schedule)]
            i = THREADS.index(task.n_threads)
            want = [ref["ff"][i], ref["syn"][i], ref["real"][i]]
            if not all(close(g, w) for g, w in zip(got, want)):
                out.fail(f"{task.workload}/t={task.n_threads}: {got} != {want}")
        unshuffled = random_tasks([name for name, _program in random_programs()])
        recorded = {
            (t.workload, t.schedule, t.n_threads): want
            for t, want in zip(unshuffled, self.refs["random"])
        }
        for task, got in zip(self.tasks[n_reg:], answers[n_reg:]):
            want = recorded[(task.workload, task.schedule, task.n_threads)]
            if got is not None and not all(close(g, w) for g, w in zip(got, want)):
                out.fail(f"{task.workload}/{task.schedule}/t={task.n_threads}: {got} != {want}")
        self._errors(out, answers)

    @staticmethod
    def _values(results) -> list:
        rows = []
        for _task, outcome in results:
            if isinstance(outcome, SweepTaskFailure):
                rows.append(None)
            else:
                by = {e.method: e.speedup for e in outcome}
                rows.append([by["ff"], by["syn"], by["real"]])
        return rows

    @staticmethod
    def _errors(out: Outcome, answers: list) -> None:
        """Mean |pred - REAL| / REAL over the grid (REAL is the simulated
        replay, not hardware: the model is unvalidated against hardware)."""
        ff, syn = [], []
        for row in answers:
            if row is not None:
                ff.append(abs(row[0] - row[2]) / row[2])
                syn.append(abs(row[1] - row[2]) / row[2])
        out.extra["ff_err_mean"] = float(np.mean(ff)) if ff else 0.0
        out.extra["syn_err_mean"] = float(np.mean(syn)) if syn else 0.0

    # ------------------------------------------------------------ reporting

    def end_to_end(self, out: Outcome) -> dict[str, float]:
        """Scaled to the probe's reference speed."""
        lat = out.extra["scaled"]
        return {
            "throughput_per_s": out.extra["points"] * len(lat) / sum(lat),
            "latency_p50_ms": 1e3 * median(lat),
            "latency_tail_ms": 1e3 * max(lat),
        }

    def report_lines(self, out: Outcome) -> list[str]:
        probe = out.extra["probe"]
        points = out.extra["points"] * len(out.latencies)
        lines = [
            f"sweep_points_per_s {points / sum(out.latencies):.3f} points/s "
            f"({points} points in {len(out.latencies)} round(s) of "
            f"{out.extra['points']}, rounds {[round(x, 3) for x in out.latencies]} s, "
            "host time as measured, less the workers' probe time)",
            f"host speed: {len(probe.samples)} probes in the pool workers, median "
            f"{probe.typical():.5f} s against the {REFERENCE_S} s reference; "
            "throughput and latencies below the 'metrics:' line are scaled to the "
            "reference speed",
            f"ff_err_mean {out.extra['ff_err_mean']!r} ratio; "
            f"syn_err_mean {out.extra['syn_err_mean']!r} ratio "
            "(vs simulated REAL replay; unvalidated against hardware)",
        ]
        return lines

