#!/usr/bin/env python
"""Gate CI on the regression floors recorded in ``BENCH_sweep.json``.

``run_all.py`` already exits nonzero when a floor is breached during the
run that produced the record; this checker re-asserts the committed (or
freshly generated) record itself, so a bench job can fail fast on an
artifact regression without re-running the benches::

    python benchmarks/check_floors.py [path/to/BENCH_sweep.json]

Floors checked:

- columnar sweep speedup ≥ its recorded ``threshold`` (10x);
- exploration envelope coverage == 100%;
- serve cold/warm speedup ≥ its recorded ``threshold`` (5x).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check(record: dict) -> list[str]:
    """Every floor violation in ``record``, as human-readable lines."""
    failures = []
    speedup, floor = record["speedup"], record["threshold"]
    if speedup < floor:
        failures.append(f"columnar sweep speedup {speedup:.1f}x < floor {floor:.0f}x")
    coverage = record["explore"]["coverage"]
    if coverage != 1.0:
        failures.append(f"envelope coverage {coverage:.0%} != 100%")
    serve = record.get("serve")
    if serve is None:
        failures.append("no 'serve' record; regenerate with benchmarks/run_all.py")
    elif serve["speedup"] < serve["threshold"]:
        failures.append(
            f"serve warm speedup {serve['speedup']:.1f}x "
            f"< floor {serve['threshold']:.0f}x"
        )
    return failures


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
    path = Path(argv[0]) if argv else default
    record = json.loads(path.read_text())
    failures = check(record)
    for line in failures:
        print(f"FLOOR BREACH: {line}", file=sys.stderr)
    if not failures:
        print(f"{path.name}: all regression floors hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
