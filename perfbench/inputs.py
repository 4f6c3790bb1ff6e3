"""Seeded inputs of the three workloads and the answer space they draw from.

Everything here is a pure function of ``--seed``: the same seed gives the
same programs, grids and request stream.  The answer space of every
workload is finite and seed-independent (the seed only orders and samples
it), so its reference table covers every seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import SweepTask
from repro.workloads import (
    PAPER_ORDER,
    get_workload,
    random_test1,
    random_test2,
    test1_program,
    test2_program,
)

#: Thread counts of cold-predict and of the registered part of the sweep.
THREADS = tuple(range(2, 13))
#: The paper's 12-core machine; cold-predict and the sweep run on it.
CORES = 12

#: validation-sweep part one: random Test1/Test2 programs (Figs. 9-10),
#: drawn once from this generator seed and ordered by ``--seed``.  Drawn
#: per seed, their total work moved the round time by -10% to +16% from
#: seed to seed, as much as the host noise the bounds have room for.
RANDOM_PROGRAM_SEED = 1
RANDOM_SAMPLES = 100
RANDOM_SCALE = 0.3
RANDOM_SCHEDULES = ("static,1", "static", "dynamic,1")
RANDOM_THREADS = (4, 8, 12)
SWEEP_METHODS = ("ff", "syn", "real")

#: serve-mixed request mix.  Every draw is uniform.  No dynamic schedule
#: and no machine below 12 cores: both route requests through the DES
#: kernel, which this workload is meant to bypass.
SERVE_SHAPES = (12, 16, 24)
SERVE_SCHEDULES = ("static", "static,4", "static,1")
#: A new machine shape arrives every this many requests: the requests that
#: calibrate and profile a new shape (the slowest 1%) then fall at three
#: moments of a run, not all in its first seconds, where the p99 would
#: rest on the host's speed during those seconds alone.
SERVE_SHAPE_EVERY = 300
#: "Most" requests are /predict, "some" /sweep.
SERVE_SWEEP_SHARE = 0.1
#: A measured serve trial hit the response cache on about 11% of requests.
#: Fresh draws already repeat one another about 10% of the time (4752
#: distinct /predict requests, fewer while not every shape has arrived),
#: so repeats add 1%.
SERVE_REPEAT_SHARE = 0.01
#: Repeats re-send one of this many most recent requests, fewer than the
#: default response cache holds (256), so a repeat finds its answer there.
SERVE_REPEAT_WINDOW = 200
SERVE_METHODS = ("ff", "syn")
#: The stream is drawn once from this generator seed, and ``--seed`` shuffles
#: it within blocks of ``SERVE_SHUFFLE_BLOCK`` requests: shapes still arrive
#: at the same moments, and a run (1000 requests, ten whole blocks) sends the
#: same requests for every seed.  Drawn per seed, the few slow requests that
#: own the p99 changed with the seed: seed 7's p99 was 55-58% above seed 5's
#: in two ten-run sets.
SERVE_STREAM_SEED = 1
SERVE_SHUFFLE_BLOCK = 100


def registered() -> list[tuple[str, str, str]]:
    """(name, paradigm, schedule) of the eight Fig. 12 workloads."""
    out = []
    for name in PAPER_ORDER:
        wl = get_workload(name)
        out.append((name, wl.paradigm, wl.schedule))
    return out


def cold_order(seed: int, passes: int) -> list[str]:
    """``passes`` seeded permutations of the eight workloads, concatenated."""
    rng = np.random.default_rng([seed, 1])
    order: list[str] = []
    for _ in range(passes):
        order.extend(PAPER_ORDER[i] for i in rng.permutation(len(PAPER_ORDER)))
    return order


def random_programs() -> list[tuple[str, object]]:
    """Alternating Test1/Test2 programs with locks and nesting, the same
    for every seed."""
    rng = np.random.default_rng([RANDOM_PROGRAM_SEED, 2])
    programs = []
    for i in range(RANDOM_SAMPLES):
        if i % 2 == 0:
            program = test1_program(random_test1(rng, scale=RANDOM_SCALE))
        else:
            program = test2_program(random_test2(rng, scale=RANDOM_SCALE))
        programs.append((f"rand{i:03d}", program))
    return programs


def random_order(seed: int) -> list[int]:
    """The seeded order in which the sweep takes the random programs."""
    rng = np.random.default_rng([seed, 2])
    return [int(i) for i in rng.permutation(RANDOM_SAMPLES)]


def random_tasks(names: list[str]) -> list[SweepTask]:
    """Part one: every schedule × thread count, memory model off."""
    return [
        SweepTask(name, schedule, t, SWEEP_METHODS, "omp", False)
        for name in names
        for schedule in RANDOM_SCHEDULES
        for t in RANDOM_THREADS
    ]


def registered_tasks() -> list[SweepTask]:
    """Part two: the eight workloads at threads 2..12, memory model on."""
    return [
        SweepTask(name, schedule, t, SWEEP_METHODS, paradigm, True)
        for name, paradigm, schedule in registered()
        for t in THREADS
    ]


def serve_stream(seed: int, n: int) -> list[tuple[str, dict]]:
    """``n`` (route, payload) requests, a share repeating recent ones, in a
    seeded order."""
    rng = np.random.default_rng([SERVE_STREAM_SEED, 3])
    stream: list[tuple[str, dict]] = []
    for _ in range(n):
        if stream and rng.random() < SERVE_REPEAT_SHARE:
            window = stream[-SERVE_REPEAT_WINDOW:]
            stream.append(window[int(rng.integers(len(window)))])
            continue
        cores = int(rng.choice(SERVE_SHAPES[: 1 + len(stream) // SERVE_SHAPE_EVERY]))
        schedule = str(rng.choice(SERVE_SCHEDULES))
        k = int(rng.integers(1, 3))
        threads = sorted(int(t) for t in rng.choice(THREADS, size=k, replace=False))
        payload = {
            "threads": threads,
            "schedules": [schedule],
            "methods": list(SERVE_METHODS),
            "cores": cores,
        }
        if rng.random() < SERVE_SWEEP_SHARE:
            size = int(rng.integers(2, 5))
            picks = rng.choice(len(PAPER_ORDER), size=size, replace=False)
            payload["workloads"] = sorted(PAPER_ORDER[i] for i in picks)
            stream.append(("/sweep", payload))
        else:
            payload["workload"] = PAPER_ORDER[int(rng.integers(len(PAPER_ORDER)))]
            stream.append(("/predict", payload))
    order = np.random.default_rng([seed, 3])
    shuffled = []
    for pos in range(0, n, SERVE_SHUFFLE_BLOCK):
        block = stream[pos : pos + SERVE_SHUFFLE_BLOCK]
        shuffled.extend(block[int(k)] for k in order.permutation(len(block)))
    return shuffled


def serve_space() -> list[tuple[str, str, int, str]]:
    """Every (workload, paradigm, cores, schedule) a serve reply can hold.

    A single-workload /predict uses the workload's registered paradigm; a
    multi-workload /sweep uses "omp" for all of them."""
    space = []
    for name, paradigm, _schedule in registered():
        for p in dict.fromkeys((paradigm, "omp")):
            for cores in SERVE_SHAPES:
                for schedule in SERVE_SCHEDULES:
                    space.append((name, p, cores, schedule))
    return space


def grid_key(workload: str, paradigm: str, cores: int, schedule: str) -> str:
    return f"{workload}|{paradigm}|{cores}|{schedule}"
