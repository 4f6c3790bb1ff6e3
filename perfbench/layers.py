"""Per-layer metrics: span times measured from outside plus the counters the
program already keeps (the ``repro.obs`` registry, ``cache_info()`` and
``GET /stats``), each ratio printed next to its base."""

from __future__ import annotations

from common import counters, median, ratio
from spans import LAYERS, layer_self_times

#: Work done by each traced pass (whole passes, rounds or requests); the
#: untraced pass before it does the same, for the overhead.
TRACE_SIZE = {"cold-predict": 2, "validation-sweep": 1, "serve-mixed": 300}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Registry counters reported as they are.
COUNTERS = (
    "memmodel.calibrations",
    "columnar.hits",
    "columnar.fallbacks",
    "ff.emulations",
    "ff.fast_path.hits",
    "ff.fast_path.misses",
    "ff.nodes_visited",
    "syn.replays",
    "replay.sections",
    "replay.section_memo.hits",
    "replay.section_memo.misses",
    "sim.lock.contended",
    "sim.preemptions",
    "dram.solve.hits",
    "dram.solve.misses",
    "dram.solve.bisections",
    "batch.tasks",
    "batch.task.errors",
    "serve.cache.predictor.misses",
    "serve.cache.profile.misses",
    "serve.queue.rejected",
)

#: hit-rate metric -> (hits counter, misses counter); the attempts are the sum.
RATES = {
    "columnar.hit_rate": ("columnar.hits", "columnar.fallbacks"),
    "replay.section_memo.hit_rate": ("replay.section_memo.hits", "replay.section_memo.misses"),
    "dram.solve.hit_rate": ("dram.solve.hits", "dram.solve.misses"),
    "batch.engine_cache.hit_rate": ("batch.engine_cache.hits", "batch.engine_cache.misses"),
    "serve.cache.response.hit_rate": ("serve.cache.response.hits", "serve.cache.response.misses"),
}

#: Span names whose summed duration is each per-layer time.
SPAN_TIMES = {
    "profiler.profile_s": ("profiler.profile",),
    "microbench.calibrate_s": ("microbench.calibrate",),
    "memmodel.attach_s": ("memmodel.attach",),
    "prophet.predict_s": ("prophet.predict",),
    "ff.s": ("ff.emulate", "columnar.ff_point"),
    "syn.s": ("syn.predict", "columnar.syn_point"),
    "real.s": ("executor.replay.real", "columnar.real_point"),
    "batch.run_s": ("batch.run",),
}

UNITS = dict(END_TO_END_UNITS)
UNITS.update({name: "s" for name in SPAN_TIMES})
UNITS.update({name: "count" for name in COUNTERS})
UNITS.update({name: "ratio" for name in RATES})
UNITS.update(
    {
        "profiler.nodes": "count",
        "serve.compute_ms": "ms",
        "serve.outside_ms": "ms",
        "serve.errors": "count",
        "trace.overhead": "ratio",
    }
)
UNITS.update({f"self_s.{layer}": "s" for layer in LAYERS})
UNITS.update({f"share.{layer}": "ratio" for layer in LAYERS})


def program_counters(wl, out) -> dict[str, float]:
    """Registry counters of the pass, plus the batch engine cache and the
    daemon's own ``GET /stats`` view when the workload has them."""
    counted = counters()
    stats = out.extra.get("stats")
    if stats is not None:
        counted.update(stats["metrics"])
        engines = [p["engines"] for p in stats["cache"]["predictors"].values()]
        counted["batch.engine_cache.hits"] = sum(e["hits"] for e in engines)
        counted["batch.engine_cache.misses"] = sum(e["misses"] for e in engines)
    return counted


def counter_lines(counted: dict[str, float]) -> list[str]:
    lines = ["program counters (per-workload delta):"]
    for name in COUNTERS:
        lines.append(f"  {name:<36} {counted.get(name, 0.0):.0f} count")
    for name, (hits, misses) in RATES.items():
        h, m = counted.get(hits, 0.0), counted.get(misses, 0.0)
        lines.append(
            f"  {name:<36} {ratio(h, m):.4f} ratio ({h:.0f} hits of {h + m:.0f} attempts)"
        )
    return lines


def per_layer(wl, out, spans, totals, counted, split, overhead):
    """Every per-layer metric of a traced pass, and its report lines."""
    metrics: dict[str, float] = {}
    for name, names in SPAN_TIMES.items():
        metrics[name] = sum(totals.get(n, {}).get("total_s", 0.0) for n in names)
    if split is not None:
        # validation-sweep: each method timed from outside on its own grid.
        for method, wall in split.items():
            metrics[f"{method}.s"] = wall
    metrics["profiler.nodes"] = totals.get("profiler.profile", {}).get("count", 0.0)
    for name in COUNTERS:
        metrics[name] = counted.get(name, 0.0)
    for name, (hits, misses) in RATES.items():
        metrics[name] = ratio(counted.get(hits, 0.0), counted.get(misses, 0.0))
    compute = out.extra.get("compute_s", [])
    outside = out.extra.get("outside_s", [])
    metrics["serve.compute_ms"] = 1e3 * median(compute)
    metrics["serve.outside_ms"] = 1e3 * median(outside)
    metrics["serve.errors"] = sum(
        (v for k, v in counted.items() if k.startswith("serve.errors.")), 0.0
    )
    selfs = layer_self_times(totals)
    busy = sum(selfs.values())
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = selfs[layer]
        metrics[f"share.{layer}"] = selfs[layer] / busy if busy else 0.0
    metrics["trace.overhead"] = overhead

    lines = [
        f"traced pass of {wl.name}: {out.attempted} operations in {out.wall_s:.3f} s; "
        f"tracing overhead {overhead:+.2%} per operation against the untraced pass",
        "layer self time (span time minus child spans; share of all span time):",
    ]
    for layer in LAYERS:
        lines.append(
            f"  {layer:<18} {selfs[layer]:>10.4f} s  {metrics[f'share.{layer}']:>6.1%}"
        )
    lines.append("spans (calls, total s, self s):")
    for name in sorted(totals):
        row = totals[name]
        lines.append(
            f"  {name:<26} {row['calls']:>8.0f} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
        )
    if split is not None:
        lines.append(
            "grid split per method, wall s: "
            + ", ".join(f"{m}-only {w:.3f}" for m, w in split.items())
        )
    if wl.name == "cold-predict":
        lines.extend(stage_split_from_spans(spans, out))
    lines.extend(counter_lines(counted))
    if compute:
        lines.append(
            f"serve.compute_ms {metrics['serve.compute_ms']:.3f} ms and serve.outside_ms "
            f"{metrics['serve.outside_ms']:.3f} ms: medians over {len(compute)} computed replies"
        )
    return metrics, lines


def stage_split_from_spans(spans, out) -> list[str]:
    """Each cold-predict workload's stage split as the traced pass saw it:
    the calls made directly under each request's root span."""
    stage_of = {
        "profiler.profile": "profile",
        "microbench.calibrate": "calibrate",
        "memmodel.attach": "attach",
        "prophet.predict": "predict",
    }
    by_rid: dict = {}
    for span in spans:
        if span.name == "bench.request":
            by_rid.setdefault(span.rid, {})["total"] = span.dur
        elif span.parent is not None and span.parent.name == "bench.request":
            stage = stage_of.get(span.name)
            if stage is not None:
                row = by_rid.setdefault(span.rid, {})
                row[stage] = row.get(stage, 0.0) + span.dur
    lines = ["traced stage split, median s per request (share):"]
    for name, rows in out.extra["stages"].items():
        traced = [by_rid[r["rid"]] for r in rows if r["rid"] in by_rid]
        if not traced:
            continue
        total = median([t["total"] for t in traced])
        cells = []
        for stage in ("profile", "calibrate", "attach", "predict"):
            m = median([t.get(stage, 0.0) for t in traced])
            cells.append(f"{stage} {m:.4f} ({m / total:.0%})")
        lines.append(f"  {name:<14} total {total:.4f}: " + ", ".join(cells))
    return lines
