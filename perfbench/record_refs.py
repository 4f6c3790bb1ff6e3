"""Record the reference answers the output check compares against.

Run from the repository root (takes a few minutes)::

    python3 perfbench/record_refs.py

Every value comes from the eager oracle: ``BatchPredictor(backend="eager")``
starting from an empty section memo.  Re-record only when a change is meant
to move the simulated answers; a change that only speeds code up must leave
them within 1e-9 relative.

- ``grid``: FF and SYN at threads 2..12 for every (workload, paradigm,
  cores, schedule) a cold-predict request or a serve reply can hold, under
  a calibration covering threads 2..12; REAL for the validation-sweep's
  registered part.  Seed-independent.
- ``random``: FF, SYN and REAL of every part-one grid point of the
  validation-sweep, its programs in their unshuffled order.  Seed-independent.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from inputs import (  # noqa: E402
    CORES,
    THREADS,
    grid_key,
    random_programs,
    random_tasks,
    registered,
    serve_space,
)

from repro import ParallelProphet  # noqa: E402
from repro.core.batch import BatchPredictor, SweepTask  # noqa: E402
from repro.core.executor import clear_section_memo  # noqa: E402
from repro.simhw.machine import MachineConfig  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

REFS = HERE / "refs" / "answers.json"
JOBS = 2


def _digits(x: float) -> float:
    """12 significant digits: far inside the 1e-9 check, in fewer bytes."""
    return float(f"{x:.12g}")


def _eager(prophet, tasks, profiles) -> list[dict[str, float]]:
    clear_section_memo()
    results = BatchPredictor(prophet, jobs=JOBS, backend="eager").run(tasks, profiles)
    return [{e.method: e.speedup for e in ests} for _task, ests in results]


def record_grid() -> dict:
    real_keys = {grid_key(n, p, CORES, s) for n, p, s in registered()}
    grid: dict[str, dict[str, list[float]]] = {}
    by_cores: dict[int, list] = {}
    for entry in serve_space():
        by_cores.setdefault(entry[2], []).append(entry)
    for cores, entries in sorted(by_cores.items()):
        prophet = ParallelProphet(machine=MachineConfig(n_cores=cores))
        prophet.calibration(THREADS)
        names = sorted({name for name, *_ in entries})
        profiles = {name: prophet.profile(get_workload(name).program) for name in names}
        tasks = []
        for name, paradigm, _c, schedule in entries:
            key = grid_key(name, paradigm, cores, schedule)
            methods = ("ff", "syn", "real") if key in real_keys else ("ff", "syn")
            tasks.extend(
                SweepTask(name, schedule, t, methods, paradigm, True) for t in THREADS
            )
        answers = _eager(prophet, tasks, profiles)
        for task, got in zip(tasks, answers):
            row = grid.setdefault(
                grid_key(task.workload, task.paradigm, cores, task.schedule), {}
            )
            for method, value in got.items():
                row.setdefault(method, []).append(_digits(value))
        print(f"cores={cores}: {len(tasks)} grid points", flush=True)
    return grid


def record_random() -> list[list[float]]:
    prophet = ParallelProphet(machine=MachineConfig(n_cores=CORES))
    profiles = {name: prophet.profile(program) for name, program in random_programs()}
    tasks = random_tasks(list(profiles))
    return [
        [_digits(got["ff"]), _digits(got["syn"]), _digits(got["real"])]
        for got in _eager(prophet, tasks, profiles)
    ]


def main() -> int:
    t0 = time.perf_counter()
    refs = {"grid": record_grid(), "random": record_random()}
    print(f"random part: {len(refs['random'])} grid points", flush=True)
    REFS.parent.mkdir(exist_ok=True)
    with open(REFS, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFS.relative_to(HERE.parent)} in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
