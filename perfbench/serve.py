"""serve-mixed: ``repro serve`` under a closed loop of two clients.

The daemon runs in process with its default ``ServeConfig`` (one worker,
``jobs=1``) on an ephemeral port.  Two client threads share one seeded
request stream and each sends its next request when the previous reply
arrives.  Most requests are ``/predict`` on one workload, some ``/sweep``
over 2-4; each draws a thread subset, a schedule and a machine shape, and a
seeded share repeats a recent request.  A separate interpreter probes the
host's speed while the clients run, and the figures are scaled to the
reference speed of :mod:`probe`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

from common import Outcome, close, quantile, reset_program_state
from inputs import THREADS, grid_key, serve_stream
from probe import REFERENCE_S, ProbeProcess

from repro import ParallelProphet
from repro.serve import ServeConfig, create_server
from repro.simhw.machine import MachineConfig
from repro.workloads import get_workload

CLIENTS = 2
#: The tail percentile needs ten samples beyond it.
MIN_REQUESTS = 1000
#: Enough requests for ten seconds at 200 requests per second.
STREAM_LEN = 2000
#: Seeded share of the answers made under an incomplete calibration that
#: the check recomputes with the library (each costs a predict call).
MIRROR_SHARE = 0.2


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, refs: dict) -> None:
        self.seed = seed
        self.refs = refs
        self.server = None

    def setup(self) -> None:
        self.stream = serve_stream(self.seed, STREAM_LEN)
        self.start_server()

    def start_server(self) -> None:
        """A fresh daemon with empty caches that records, in the order its
        single worker computes them, every grid request and its answer."""
        self.stop()
        reset_program_state()
        self.server = create_server(ServeConfig(port=0, allow_shutdown=False)).start()
        state = self.server.state
        run_grid = state._run_grid
        computed = self.computed = []

        def recording_run_grid(request):
            response = run_grid(request)
            computed.append(response)
            return response

        state._run_grid = recording_run_grid

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def measure(self, seconds: float, min_ops: int = MIN_REQUESTS, recorder=None,
                passes=None) -> Outcome:
        """Requests until ``seconds`` passed and ``min_ops`` were sent (or
        exactly ``passes`` requests)."""
        out = Outcome()
        replies = out.extra["replies"] = []
        lock = threading.Lock()
        cursor = [0]
        out.begin()
        start = time.perf_counter()

        def next_index():
            with lock:
                i = cursor[0]
                if passes is not None:
                    if i >= passes:
                        return None
                elif i >= min_ops and time.perf_counter() - start >= seconds:
                    return None
                if i >= len(self.stream):
                    return None
                cursor[0] = i + 1
                return i

        def client():
            conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=170)
            try:
                while (i := next_index()) is not None:
                    route, payload = self.stream[i]
                    if recorder is not None:
                        payload = {**payload, "bench_rid": i}
                        root = recorder.request("bench.request", i)
                    body = json.dumps(payload)
                    t0 = time.perf_counter()
                    try:
                        conn.request("POST", route, body, {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        data = resp.read()
                        status = resp.status
                    except (OSError, http.client.HTTPException) as exc:
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", self.server.port, timeout=170
                        )
                        status, data = 0, json.dumps({"error": repr(exc)}).encode()
                    dt = time.perf_counter() - t0
                    if recorder is not None:
                        recorder.end_request(root)
                    with lock:
                        out.op(dt)
                        replies.append((i, status, data, dt))
            finally:
                conn.close()

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        prober = ProbeProcess()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            out.end()
        finally:
            out.extra["probe"] = prober.stop()
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=60)
        conn.request("GET", "/stats")
        out.extra["stats"] = json.loads(conn.getresponse().read())
        conn.close()
        out.extra["computed"] = list(self.computed)
        compute, outside = [], []
        for i, status, data, dt in replies:
            out.attempted += 1
            if status != 200:
                out.fail(f"request {i}: HTTP {status} {data[:200]!r}")
                continue
            body = json.loads(data)
            if not body.get("cached"):
                compute.append(body["elapsed_s"])
                outside.append(dt - body["elapsed_s"])
        out.extra["compute_s"] = compute
        out.extra["outside_s"] = outside
        return out

    # ------------------------------------------------------------- checking

    def check(self, out: Outcome) -> None:
        """Every reply against the library's answer for the same grid.

        Each computed answer is compared with the recorded eager-oracle
        table, which is the library's answer under a calibration covering
        threads 2..12.  The daemon calibrates lazily, per machine shape,
        over the thread counts requested so far, so an answer computed
        before that set is complete is compared instead with a library
        prophet that received the same calibration calls in the same
        order.  Replies (fresh or cached) must carry exactly one of the
        answers computed for their request."""
        replies = out.extra.pop("replies")
        computed = out.extra.pop("computed")
        by_request: dict[str, list] = {}
        for response in computed:
            key = json.dumps(response["request"], sort_keys=True)
            by_request.setdefault(key, []).append(response["reports"])
        for i, status, data, _dt in replies:
            if status != 200:
                continue
            body = json.loads(data)
            key = json.dumps(body["request"], sort_keys=True)
            if body["reports"] not in by_request.get(key, []):
                out.fail(f"request {i}: reply differs from every computed answer")
            elif any(r["failures"] for r in body["reports"].values()):
                out.fail(f"request {i}: grid-point failures {body['reports']}")
        rng = np.random.default_rng([self.seed, 5])
        mirror = LibraryMirror(self.refs, keep=lambda: rng.random() < MIRROR_SHARE)
        for response in computed:
            problem = mirror.check(response)
            if problem:
                out.fail(problem)
        out.extra["mirror"] = mirror

    # ------------------------------------------------------------ reporting

    def end_to_end(self, out: Outcome) -> dict[str, float]:
        """Scaled to the probe's reference speed by the median of all the
        run's probes (per-reply windows of probes widened the p99 spread)."""
        factor = out.extra["probe"].scale()
        lat = [dt * factor for dt in out.latencies]
        return {
            "throughput_per_s": len(lat) / (out.wall_s * factor),
            "latency_p50_ms": 1e3 * quantile(lat, 0.5),
            "latency_tail_ms": 1e3 * quantile(lat, 0.99),
        }

    def report_lines(self, out: Outcome) -> list[str]:
        lat = out.latencies
        probe = out.extra["probe"]
        lines = [
            f"host speed: {len(probe.samples)} probes in a separate process, median "
            f"{probe.typical():.5f} s against the {REFERENCE_S} s reference; "
            "throughput and latencies below the 'metrics:' line are scaled to the "
            "reference speed",
            f"serve_rps {len(lat) / out.wall_s:.3f} req/s; serve_p50_ms "
            f"{1e3 * quantile(lat, 0.5):.3f} ms; serve_p99_ms {1e3 * quantile(lat, 0.99):.3f} ms "
            f"(n={len(lat)}, {CLIENTS} closed-loop clients, host time as measured)",
        ]
        mirror = out.extra.get("mirror")
        if mirror is not None:
            lines.append(
                f"output check: every reply against the answers computed for it; "
                f"{mirror.table_checked} computed answers against the table, a seeded "
                f"{mirror.mirror_checked} of the rest against a same-state library prophet"
            )
            moved = [d for d in mirror.drift if d > 1e-9]
            if moved:
                lines.append(
                    f"finding: {mirror.partial} of {len(out.extra['compute_s'])} computed "
                    "replies were made before their machine shape's calibration covered "
                    f"threads 2..12; {len(moved)} of their {len(mirror.drift)} answers "
                    "differ from the answer under the full calibration, by up to "
                    f"{max(moved):.2%} relative: a daemon answer depends on which "
                    "thread counts earlier requests asked for"
                )
        return lines

    def close(self) -> None:
        self.stop()


class LibraryMirror:
    """Library prophets fed the daemon's calibration calls in its order."""

    def __init__(self, refs: dict, keep) -> None:
        self.refs = refs
        #: Decides, per answer made under an incomplete calibration,
        #: whether to recompute it (the calibration calls always run).
        self.keep = keep
        self.prophets: dict[int, ParallelProphet] = {}
        self.profiles: dict[tuple[str, int], object] = {}
        self.table_checked = 0
        self.mirror_checked = 0
        #: Computed replies made under an incomplete calibration, and the
        #: relative distance of each of their answers from the answer under
        #: the full calibration.
        self.partial = 0
        self.drift: list[float] = []

    def check(self, response: dict) -> str:
        request = response["request"]
        cores = request["cores"]
        prophet = self.prophets.get(cores)
        if prophet is None:
            prophet = self.prophets[cores] = ParallelProphet(
                machine=MachineConfig(n_cores=cores)
            )
        prophet.calibration(request["threads"])
        full = set(THREADS) <= set(prophet.calibration_info()["thread_counts"])
        self.partial += not full
        paradigm = response["paradigm"]
        for workload, report in response["reports"].items():
            for est in report["estimates"]:
                ref = self.refs["grid"][grid_key(workload, paradigm, cores, est["schedule"])]
                want = ref[est["method"]][THREADS.index(est["n_threads"])]
                if full:
                    if not close(est["speedup"], want):
                        return (
                            f"{workload}|{cores}|{est['schedule']}|{est['method']}"
                            f"/t={est['n_threads']}: {est['speedup']!r} != {want!r}"
                        )
                else:
                    self.drift.append(abs(est["speedup"] - want) / want)
            if full:
                self.table_checked += 1
                continue
            if not self.keep():
                continue
            self.mirror_checked += 1
            profile = self.profiles.get((workload, cores))
            if profile is None:
                profile = self.profiles[(workload, cores)] = prophet.profile(
                    get_workload(workload).program
                )
            lib = prophet.predict(
                profile,
                threads=request["threads"],
                paradigm=paradigm,
                schedules=request["schedules"],
                methods=tuple(request["methods"]),
            )
            for est, want in zip(report["estimates"], lib.estimates):
                if est["method"] != want.method or not close(est["speedup"], want.speedup):
                    return (
                        f"{workload}|{cores}|{est['schedule']}|{est['method']}"
                        f"/t={est['n_threads']}: {est['speedup']!r} != library "
                        f"{want.speedup!r} under the same calibration"
                    )
        return ""
