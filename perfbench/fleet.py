"""``fleet_local`` and ``fleet_remote``: repeated complete runs of the
paper's Table 2 base case (ten-year mission) to a precision target.

``fleet_local`` runs each fleet the way ``repro simulate --jobs N
--checkpoint --manifest`` does: a fresh spawn pool of ``nproc`` workers
per run, a checkpoint after every shard, a manifest at the end.
``fleet_remote`` runs the same fleets with ``n_jobs=0`` through one
:class:`RemoteWorkerHub` that ``nproc`` ``repro worker`` processes join
once and stay connected to; no checkpoint, a manifest at the end.

Every run's accumulator digest must equal a serial run of the same
(config, seed, precision), computed after the timed window.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from common import HERE, SETUP_REPS, RunContext, peak_rss_mb, start_process, stop_process
from stats import fleet_error_base, median, tail
from tracer import TimedJson, Tracer, durations, load_dump, self_times

import repro.simulation.monte_carlo as monte_carlo_module
import repro.simulation.remote as remote_module
from repro.reporting import write_run_manifest
from repro.simulation.config import RaidGroupConfig
from repro.simulation.executor import PipelinedShardExecutor
from repro.simulation.monte_carlo import MonteCarloRunner
from repro.simulation.remote import DistributedShardExecutor, RemoteWorkerHub
from repro.simulation.streaming import FleetAccumulator, Precision

CONFIG = RaidGroupConfig.paper_base_case()
#: About 136 DDFs per 1,000 groups over ten years: every seed tried
#: converges near 31k groups (~62 shards of 512).
PRECISION = Precision(rel_ci_width=0.06, max_groups=200_000)
#: Distinct per-run seeds a window cycles through; each needs one serial
#: reference run after the window.
RUN_SEEDS = 2


def run_seeds(seed: int) -> List[int]:
    rng = random.Random(seed * 1_000_003 + 17)
    return [rng.randrange(1, 2**31) for _ in range(RUN_SEEDS)]


def digest(accumulator: FleetAccumulator) -> str:
    return hashlib.sha256(
        json.dumps(accumulator.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


class CommitClock:
    """Progress observer: when each shard committed, and its event."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.events: list = []

    def __call__(self, event) -> None:
        self.times.append(time.perf_counter())
        self.events.append(event)


@dataclasses.dataclass
class RunRecord:
    seed: int
    start: float
    end: float
    groups: int = 0
    shards: int = 0
    retries: int = 0
    digest: str = ""
    intervals: List[float] = dataclasses.field(default_factory=list)
    events: list = dataclasses.field(default_factory=list)
    executor: Dict[str, object] = dataclasses.field(default_factory=dict)
    error: Optional[str] = None


def one_run(
    ctx: RunContext,
    run_seed: int,
    hub: Optional[RemoteWorkerHub],
    tracer: Optional[Tracer] = None,
) -> RunRecord:
    local = hub is None
    runner = MonteCarloRunner(
        CONFIG,
        n_groups=PRECISION.max_groups,
        seed=run_seed,
        n_jobs=ctx.nproc if local else 0,
        engine="batch",
    )
    clock = CommitClock()
    record = RunRecord(seed=run_seed, start=time.perf_counter(), end=0.0)
    root = tracer.span("run", root=True) if tracer else contextlib.nullcontext()
    try:
        with root as span:
            if tracer:
                tracer.active_root = span
            streaming = runner.run_streaming(
                until=PRECISION,
                checkpoint_path=ctx.path("fleet.ckpt.json") if local else None,
                observers=(clock,),
                workers=hub,
            )
            with tracer.span("manifest.write") if tracer else contextlib.nullcontext():
                manifest = write_run_manifest(ctx.path("fleet.manifest.json"), streaming)
    except Exception as exc:  # a failed run is one failed op; the window goes on
        record.error = f"{type(exc).__name__}: {exc}"
        record.end = time.perf_counter()
        return record
    finally:
        if tracer:
            tracer.active_root = None
    record.end = time.perf_counter()
    record.groups = streaming.groups
    record.shards = streaming.shards_run
    record.digest = digest(streaming.accumulator)
    record.events = clock.events
    record.executor = dict(manifest["executor"])
    record.retries = int(record.executor.get("shard_retries", 0))
    # The wait for the first commit (pool spawn or handshake) is a cost
    # of the run, seen in groups_per_s and executor.spawn_s; latency is
    # the interval between consecutive commits after it.
    record.intervals = [b - a for a, b in zip(clock.times, clock.times[1:])]
    return record


def window(
    ctx: RunContext,
    seeds: List[int],
    seconds: float,
    hub: Optional[RemoteWorkerHub],
    tracer: Optional[Tracer] = None,
) -> Tuple[List[RunRecord], float]:
    """Whole runs back to back until ``seconds`` have passed; returns the
    runs and the window's wall time (pool spawn and drain included)."""
    runs: List[RunRecord] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(one_run(ctx, seeds[len(runs) % len(seeds)], hub, tracer))
    return runs, time.perf_counter() - start


def end_to_end(runs: List[RunRecord], wall: float) -> Tuple[Dict[str, float], Optional[tuple]]:
    """The window's end-to-end metrics and ``(tail, percentile, n)``."""
    intervals = [i for r in runs for i in r.intervals]
    tail_ms = tail(intervals)
    return {
        "groups_per_s": sum(r.groups for r in runs) / wall,
        "qps": sum(r.shards for r in runs) / wall,
        "latency_p50_ms": median(intervals) * 1e3,
        "latency_tail_ms": tail_ms[0] * 1e3 if tail_ms else 0.0,
    }, tail_ms


def check(runs: List[RunRecord]) -> Tuple[int, List[str]]:
    """Compare every run with a serial run of the same seed; returns the
    number of failed runs and the reasons."""
    references: Dict[int, str] = {}
    problems = []
    failed = 0
    for r in runs:
        if r.error is not None:
            failed += 1
            problems.append(f"run seed {r.seed} raised {r.error}")
            continue
        if r.seed not in references:
            serial = MonteCarloRunner(
                CONFIG, n_groups=PRECISION.max_groups, seed=r.seed, n_jobs=1, engine="batch"
            ).run_streaming(until=PRECISION)
            references[r.seed] = digest(serial.accumulator)
        if r.digest != references[r.seed]:
            failed += 1
            problems.append(f"run seed {r.seed}: digest {r.digest[:12]} != serial {references[r.seed][:12]}")
    return failed, problems


# ----------------------------------------------------------------------
class WorkerFleet:
    """A hub plus ``nproc`` worker processes connected to it."""

    def __init__(self, ctx: RunContext, traced: bool, tag: str) -> None:
        self.hub = RemoteWorkerHub("127.0.0.1:0")
        self.trace_paths: List[str] = []
        self.procs = []
        try:
            for i in range(ctx.nproc):
                if traced:
                    out = ctx.path(f"worker-{tag}-{i}.trace.json")
                    self.trace_paths.append(out)
                    args = [f"{HERE}/worker_entry.py", "--connect", self.hub.address, "--trace-out", out]
                else:
                    args = ["-m", "repro", "worker", "--connect", self.hub.address, "--max-reconnects", "0"]
                self.procs.append(start_process(args, ctx.path(f"worker-{tag}-{i}.log")))
            if not self.hub.wait_for_workers(ctx.nproc, timeout=60.0):
                raise RuntimeError(f"only {self.hub.n_workers()} of {ctx.nproc} workers connected")
        except BaseException:
            self.close()
            raise

    def close(self) -> List[int]:
        """Close the hub (workers exit on the dropped link) and reap them."""
        self.hub.close()
        return [stop_process(p) for p in self.procs]


def connect(ctx: RunContext) -> Tuple[WorkerFleet, float]:
    """Connect an untraced worker fleet :data:`SETUP_REPS` times, keeping
    the last; returns it and the median connect time."""
    times = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        fleet = WorkerFleet(ctx, traced=False, tag=f"u{rep}")
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPS - 1 and any(fleet.close()):
            raise RuntimeError("a repro worker exited with an error after its hub closed")
    return fleet, median(times)


# ----------------------------------------------------------------------
def install_trace(tracer: Tracer) -> None:
    """Wrap the coordinator's layer boundaries in this process."""
    local = threading.local()
    t = tracer
    t.wrap_generator(PipelinedShardExecutor, "outcomes", "executor.next")
    t.wrap_generator(DistributedShardExecutor, "outcomes", "executor.next")
    t.wrap(FleetAccumulator, "add_shard", "streaming.fold")
    t.wrap(
        monte_carlo_module,
        "save_checkpoint",
        "checkpoint.write",
        on_call=lambda rec, args, kw, res: rec.update(bytes=os.path.getsize(args[0])),
    )
    t.wrap(
        RemoteWorkerHub,
        "register",
        "remote.register",
        on_call=lambda rec, args, kw, res: rec.update(epoch=res),
    )

    # Framing: the hub's link threads encode the init frame and decode
    # init_ok and result frames through the module's json global.
    def on_dumps(obj, text, start, end) -> None:
        if obj.get("t") == "init":
            local.init_start = start

    def on_loads(obj, text, start, end) -> None:
        kind = obj.get("t") if isinstance(obj, dict) else None
        if kind == "init_ok" and getattr(local, "init_start", None) is not None:
            t.add_span("remote.init", local.init_start, end)
            local.init_start = None
        elif kind == "result":
            local.decode = (start, len(text), int(obj["index"]), int(obj["epoch"]))

    t.patch(remote_module, "json", TimedJson(on_dumps, on_loads))
    complete = DistributedShardExecutor.complete

    def traced_complete(session, task, chronologies, wall_seconds, **kwargs):
        # A result's decode ends where the link thread hands it over.
        pending = getattr(local, "decode", None)
        if pending is not None and pending[2] == task.index:
            t.add_span(
                "remote.decode",
                pending[0],
                time.perf_counter(),
                epoch=pending[3],
                index=task.index,
                n_groups=task.n_groups,
                bytes=pending[1],
                rtt=kwargs.get("rtt_seconds", 0.0),
                worker=kwargs.get("worker"),
            )
            local.decode = None
        return complete(session, task, chronologies, wall_seconds, **kwargs)

    t.patch(DistributedShardExecutor, "complete", traced_complete)


def layers(
    runs: List[RunRecord],
    tracer: Tracer,
    worker_dumps: List[dict],
    remote: bool,
    nproc: int,
) -> Dict[str, float]:
    """Per-layer metrics of a traced fleet window."""
    ms = 1e3
    spans = tracer.spans
    selfs = self_times(spans)
    events = [e for r in runs for e in r.events]
    out: Dict[str, float] = {}

    worker_spans = [s for d in worker_dumps for s in d["spans"]]
    sims = [s for s in worker_spans if s["name"] == "batch.simulate_shard"]
    if remote:
        busy = [s["end"] - s["start"] for s in sims]
        groups = sum(s["n_groups"] for s in sims)
    else:
        busy = [e.shard_seconds for e in events]
        groups = sum(r.groups for r in runs)
    out["batch.shard_ms_p50"] = median(busy) * ms
    out["batch.groups_per_busy_s"] = groups / sum(busy) if busy else 0.0

    roots = {s["id"]: s for s in spans if s["name"] == "run"}
    first_commit: Dict[int, float] = {}
    for s in spans:
        if s["name"] == "executor.next" and s["trace"] in roots:
            first_commit[s["trace"]] = min(first_commit.get(s["trace"], s["end"]), s["end"])
    out["executor.spawn_s"] = median(t - roots[r]["start"] for r, t in first_commit.items())
    out["executor.commit_wait_ms_p50"] = median(durations(spans, "executor.next")) * ms
    out["executor.commit_lag_ms_p50"] = median(e.commit_lag_seconds for e in events) * ms
    out["executor.queue_depth_mean"] = (
        sum(e.queue_depth for e in events) / len(events) if events else 0.0
    )
    retries = sum(e.shard_retries for e in events)
    out["executor.shard_retries"] = retries
    committed = sum(r.shards for r in runs)
    if remote:
        run_epochs = {s["epoch"] for s in spans if s["name"] == "remote.register" and s["trace"] in roots}
        simulated = sum(1 for s in sims if s.get("epoch") in run_epochs)
    else:
        simulated = committed + retries + sum(
            int(r.executor.get("discarded_in_flight", 0)) for r in runs
        )
    out["executor.useful_ratio"] = committed / simulated if simulated else 0.0

    decodes = [s for s in spans if s["name"] == "remote.decode"]
    encodes = {(s["epoch"], s["index"]): s for s in worker_spans if s["name"] == "remote.encode"}
    sim_by = {(s["epoch"], s["index"]): s for s in sims}
    transport = []
    for d in decodes:
        key = (d["epoch"], d["index"])
        if key in encodes and key in sim_by:
            sim, enc = sim_by[key], encodes[key]
            transport.append(
                d["rtt"]
                - (sim["end"] - sim["start"])
                - (enc["end"] - enc["start"])
                - (d["end"] - d["start"])
            )
    out["remote.encode_ms_p50"] = median(s["end"] - s["start"] for s in encodes.values()) * ms
    out["remote.decode_ms_p50"] = median(selfs.get("remote.decode", [])) * ms
    decoded_groups = sum(d["n_groups"] for d in decodes)
    out["remote.frame_bytes_per_group"] = (
        sum(d["bytes"] for d in decodes) / decoded_groups if decoded_groups else 0.0
    )
    out["remote.rtt_ms_p50"] = median(d["rtt"] for d in decodes) * ms
    out["remote.transport_ms_p50"] = median(transport) * ms
    out["remote.init_ms"] = median(durations(spans, "remote.init")) * ms
    if remote:
        per_worker: "collections.Counter[str]" = collections.Counter()
        for r in runs:
            for name, row in r.executor.get("workers", {}).items():
                per_worker[name] += int(row["shards_committed"])
        shares = sorted(per_worker.values()) + [0] * max(0, nproc - len(per_worker))
        out["remote.worker_share_min"] = min(shares) / committed if committed else 0.0

    out["streaming.fold_ms_p50"] = median(selfs.get("streaming.fold", [])) * ms
    out["checkpoint.write_ms_p50"] = median(selfs.get("checkpoint.write", [])) * ms
    out["checkpoint.bytes"] = median(s["bytes"] for s in spans if s["name"] == "checkpoint.write")
    out["manifest.write_ms"] = median(selfs.get("manifest.write", [])) * ms
    return out


# ----------------------------------------------------------------------
def run(ctx: RunContext) -> dict:
    remote = ctx.workload == "fleet_remote"
    seeds = run_seeds(ctx.seed)
    fleet = None
    setup_repeat = 0.0
    worker_exits: List[int] = []
    try:
        if remote:
            fleet, setup_repeat = connect(ctx)
        setup_s = ctx.import_s + setup_repeat
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        runs, wall = window(ctx, seeds, seconds, fleet.hub if fleet else None)
        result = {"setup_s": setup_s, "runs": runs, "wall": wall}
        if ctx.trace:
            if fleet is not None:
                worker_exits += fleet.close()
                fleet = WorkerFleet(ctx, traced=True, tag="t")
            tracer = Tracer()
            install_trace(tracer)
            try:
                traced_runs, traced_wall = window(ctx, seeds, seconds, fleet.hub if fleet else None, tracer)
            finally:
                tracer.restore()
            worker_dumps = []
            if fleet is not None:
                worker_exits += fleet.close()
                worker_dumps = [load_dump(p) for p in fleet.trace_paths]
                fleet = None
            per_layer = layers(traced_runs, tracer, worker_dumps, remote, ctx.nproc)
            result["traces"] = {"coordinator": tracer.to_dict(), "workers": worker_dumps}
            untraced_gps = sum(r.groups for r in runs) / wall
            traced_gps = sum(r.groups for r in traced_runs) / traced_wall
            per_layer["trace.overhead_ratio"] = untraced_gps / traced_gps if traced_gps else 0.0
            result["per_layer"] = per_layer
            runs = runs + traced_runs
    finally:
        if fleet is not None:
            worker_exits += fleet.close()
    # Every program process is reaped; read before the serial reference
    # runs below, which are the benchmark's, not the program's.
    rss = peak_rss_mb()
    check_start = time.perf_counter()
    failed_runs, problems = check(runs)
    check_s = time.perf_counter() - check_start
    if any(worker_exits):
        problems.append(f"repro worker exit codes {worker_exits}")
    retries = sum(r.retries for r in runs)
    attempted, failed = fleet_error_base(len(runs), failed_runs, retries)
    metrics, tail_info = end_to_end(result["runs"], result["wall"])
    metrics["setup_s"] = result["setup_s"]
    metrics["peak_rss_mb"] = rss
    report = [
        f"untraced window: {len(result['runs'])} runs, {sum(r.groups for r in result['runs'])} groups "
        f"in {result['wall']:.3f} s; run seeds {seeds}",
        f"run wall p50 {median(r.end - r.start for r in result['runs']):.3f} s; "
        f"latency = interval between consecutive shard commits; tail = "
        + (f"p{tail_info[1]:.2f} of n={tail_info[2]}" if tail_info else "n/a (<11 samples)"),
        f"set-up: import {ctx.import_s:.3f} s"
        + (f" + worker connect {setup_repeat:.3f} s" if remote else "")
        + f" (medians of {SETUP_REPS})",
        f"error_rate {failed}/{attempted} (ops = runs + shard retries)",
        f"serial reference runs and digest checks: {check_s:.3f} s (after the window)",
    ] + [f"CHECK FAILED: {p}" for p in problems]
    return {
        "metrics": metrics,
        "per_layer": result.get("per_layer"),
        "traces": result.get("traces"),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "report": report,
        "detail": {
            "run_seeds": seeds,
            "runs": [
                {"seed": r.seed, "groups": r.groups, "shards": r.shards, "wall_s": r.end - r.start,
                 "digest": r.digest[:16], "error": r.error}
                for r in runs
            ],
        },
    }
