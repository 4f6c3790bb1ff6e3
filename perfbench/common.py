"""Shared helpers: statistics, memory, result stamps and counter reads."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Run records and trace files (listed in the root .gitignore).
OUT_DIR = ROOT / ".perfbench_out"

#: Relative tolerance of every answer check: the eager-parity bound.
REL_TOL = 1e-9


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics.  Cold-predict latencies
    cluster by workload, so a plain sample quantile often falls in the gap
    between two clusters and jumps with single requests; this estimate
    moves smoothly across it."""
    if not values:
        return 0.0
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def peak_rss_mb(pool: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child when the
    workload runs a worker pool (read before any set-up interpreter is
    started, so the children are the pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool else 0
    return (own + kids) / 1024.0


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def counters() -> dict[str, float]:
    from repro.obs import get_metrics

    return get_metrics().counters()


def reset_program_state() -> None:
    """Zero the metrics registry and drop the process-wide replay memo, so
    every counter read afterwards is a per-phase delta from a cold state."""
    from repro.core.executor import clear_section_memo
    from repro.obs import get_metrics

    get_metrics().reset()
    clear_section_memo()


@dataclass
class Outcome:
    """What one measured phase produced."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: ``time.monotonic()`` at the start and end of the phase.
    t_start: float = 0.0
    t_end: float = 0.0
    #: Per-operation latencies (s) in completion order, and the
    #: ``time.monotonic()`` at which each ended.
    latencies: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    #: Human-readable mismatch or failure descriptions (first few kept).
    problems: list[str] = field(default_factory=list)
    #: Workload-specific figures printed with the result.
    extra: dict[str, Any] = field(default_factory=dict)

    def begin(self) -> None:
        self.t_start = time.monotonic()

    def end(self) -> None:
        self.t_end = time.monotonic()
        self.wall_s = self.t_end - self.t_start

    def op(self, latency: float) -> None:
        self.latencies.append(latency)
        self.ends.append(time.monotonic())

    def scaled(self, probe, window: float = 1.0) -> tuple[list[float], float]:
        """Latencies and wall time at the probe's reference speed.

        Each latency is scaled by the probes within ``window`` s of it; the
        wall time is summed over slices of ``2 * window`` s, each scaled by
        the probes inside it."""
        lat = [
            dt * probe.scale(end - dt - window, end + window)
            for dt, end in zip(self.latencies, self.ends)
        ]
        return lat, probe.scaled(self.t_start, self.t_end, 2 * window)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def source_digest() -> str:
    """SHA-256 over the program sources, a commit stand-in outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout's own git repository, or "unknown"."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_history(record: dict[str, Any]) -> None:
    """Keep every run: one JSON line appended per run, never overwritten."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
