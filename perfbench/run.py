"""End-to-end benchmark of the Parallel Prophet reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload cold-predict --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` runs the workload twice on the same seed, untraced then with
every layer call wrapped in a span, and reports per-layer metrics from the
traced pass plus the tracing overhead between the two.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each run is also appended to ``.perfbench_out/history.jsonl``
with its seed, commit, nproc and Python/numpy versions.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("cold-predict", "validation-sweep", "serve-mixed")
#: Extra fresh interpreters timed through set-up; setup_s is the median.
SETUP_REPEATS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Parallel Prophet end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def make_workload(name: str, seed: int, refs: dict):
    if name == "cold-predict":
        from cold import ColdPredict

        return ColdPredict(seed, refs)
    if name == "validation-sweep":
        from sweep import ValidationSweep

        return ValidationSweep(seed, refs)
    from serve import ServeMixed

    return ServeMixed(seed, refs)


def timed_setups(args: argparse.Namespace) -> list[float]:
    """Set-up time of fresh interpreters, each started and waited for."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return fail(f"{name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
        print()
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    refs_path = HERE / "refs" / "answers.json"
    if not refs_path.is_file():
        return fail(f"missing reference answers {refs_path}")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from common import append_history, stamp

    with open(refs_path) as fh:
        refs = json.load(fh)
    wl = make_workload(args.workload, args.seed, refs)
    try:
        wl.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = measure_traced if args.trace else measure_plain
        outcome, metrics, lines = run(wl, args, setup_s)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    record = stamp(args.workload, args.seed, args.seconds, args.trace)
    print(f"stamp: {json.dumps(record, sort_keys=True)}")
    for line in lines:
        print(line)
    if outcome.problems:
        print(f"failures ({outcome.failed} of {outcome.attempted}):")
        for problem in outcome.problems:
            print(f"  {problem}")
    units = layers.UNITS
    print("metrics:")
    for name, value in metrics.items():
        print(f"  {name:<36} {value!r} {units[name]}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    append_history({**record, **result, "report": lines})
    print(json.dumps(result))
    return 0


def measure_plain(wl, args, setup_s):
    """End-to-end metrics, nothing patched."""
    import layers
    from common import counters, median, peak_rss_mb, reset_program_state

    reset_program_state()
    outcome = wl.measure(args.seconds)
    rss = peak_rss_mb(pool=getattr(wl, "pool", False))
    counted = counters()
    wl.check(outcome)
    setups = [setup_s] + timed_setups(args)
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": rss,
        **wl.end_to_end(outcome),
    }
    lines = [
        f"workload {wl.name}: {outcome.attempted} operations in {outcome.wall_s:.3f} s, "
        f"fail_rate {outcome.failed / max(1, outcome.attempted)!r} ratio "
        f"({outcome.failed} failed of {outcome.attempted} attempted)",
        f"setup_s samples {[round(s, 4) for s in setups]} s",
        *wl.report_lines(outcome),
        *layers.counter_lines(counted),
    ]
    return outcome, metrics, lines


def measure_traced(wl, args, setup_s):
    """Untraced pass, then the same work traced; per-layer metrics."""
    import layers
    from common import OUT_DIR, reset_program_state
    from spans import SpanRecorder

    size = layers.TRACE_SIZE[wl.name]
    reset_program_state()
    plain = wl.measure(args.seconds, passes=size)
    wl.check(plain)
    if hasattr(wl, "start_server"):
        wl.start_server()
    recorder = SpanRecorder()
    recorder.install()
    try:
        reset_program_state()
        traced = wl.measure(args.seconds, passes=size, recorder=recorder)
        totals = recorder.totals()
        counted = layers.program_counters(wl, traced)
    finally:
        recorder.uninstall()
    split = wl.split_by_method() if hasattr(wl, "split_by_method") else None
    wl.check(traced)
    overhead = (traced.wall_s / max(1, traced.attempted)) / (
        plain.wall_s / max(1, plain.attempted)
    ) - 1.0
    metrics, lines = layers.per_layer(
        wl, traced, recorder.spans, totals, counted, split, overhead
    )
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    recorder.write_chrome_trace(str(trace_file))
    lines.insert(0, f"spans written to {trace_file.relative_to(ROOT)} "
                    f"({len(recorder.spans)} in this process)")
    plain.failed += traced.failed
    plain.problems += traced.problems
    plain.attempted += traced.attempted
    return plain, metrics, lines


if __name__ == "__main__":
    sys.exit(main())
