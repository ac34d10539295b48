"""``query``: closed-loop clients against ``repro serve`` over HTTP.

``nproc`` client threads each send their next query when the previous
reply arrives.  The server answers ``Connection: close``, so each client
keeps one :class:`http.client.HTTPConnection` that reconnects per query.
Each client's stream is generated from the seed in blocks of 100 with a
fixed tier mix (:func:`block`), shuffled within the block:

* hot (92 by default): repeats of a primed working set — analytical
  configs the solver memo answers, and Monte Carlo configs the cache
  answers as-is (same confidence) or rescaled (90% instead of 95%
  confidence);
* cold (:data:`COLD_PER_BLOCK`, 8 by default): fresh analytical configs
  (solver), fresh Monte Carlo configs (simulation plus durable cache
  put) and tighter repeats of a primed Monte Carlo config (one more
  shard: cache extend).

Monte Carlo queries ask for a width no 1,024-group fleet reaches, so the
group budget (``max_groups``) decides the answer and every tier above is
a pure function of the stream: a primed entry always holds at least
1,024 groups, and each extend raises one key's budget by one shard.
Each key is extended only by the client that owns it, so extends of one
key never race.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from common import HERE, SETUP_REPS, RunContext, peak_rss_mb, start_process, stop_process
from stats import median, query_error_base, tail
from tracer import load_dump, self_times

from repro.distributions import Weibull
from repro.simulation.config import RaidGroupConfig
from repro.solver import solve
from repro.validation import config_to_dict

MISSION_HOURS = 8_760.0
ANALYTIC_SET = 16
MC_SET = 8
#: Cold queries in every block of 100 a client sends.  No source in the
#: repository states the service's cold rate, so this share is an
#: assumption; README.md reports how the metrics move with it.
COLD_PER_BLOCK = 8
TIERS = ("solver", "solver-cache", "cache", "cache-rescaled", "simulated", "cache-extend", "coalesced")
#: Monte Carlo group budget of a primed or fresh query, and the step of
#: each extend (the service's default shard size).
MC_GROUPS = 1024
EXTEND_STEP = 256
UNREACHABLE_WIDTH = 0.01


def block(cold: int) -> List[Tuple[str, int]]:
    """Queries of each tier in a block of 100 with ``cold`` cold ones.

    The hot queries split evenly between analytical and Monte Carlo
    repeats, as the duplicate-heavy waves (``solver * 10 + mc * 10``) of
    ``serve_mixed_burst`` in ``benchmarks/bench_serve.py`` do; the Monte
    Carlo repeats split evenly between same-confidence and rescaled
    hits.  The cold ones split 3:2:3 into fresh analytical, fresh Monte
    Carlo and extends (an assumption, like the cold share itself).
    """
    hot = 100 - cold
    solver = round(cold * 3 / 8)
    simulated = round(cold * 2 / 8)
    return [
        ("solver-cache", hot // 2),
        ("cache", hot // 4),
        ("cache-rescaled", hot - hot // 2 - hot // 4),
        ("solver", solver),
        ("simulated", simulated),
        ("cache-extend", cold - solver - simulated),
    ]


def analytic_config(scrub_hours: float) -> RaidGroupConfig:
    """Table 2 base case over one year: the transition-matrix tier."""
    return RaidGroupConfig.paper_base_case(
        scrub_characteristic_hours=scrub_hours, mission_hours=MISSION_HOURS
    )


def mc_config(op_scale: float) -> RaidGroupConfig:
    """Wear-out operational life (Weibull shape 2): Monte Carlo only."""
    return RaidGroupConfig(
        n_data=7,
        time_to_op=Weibull(shape=2.0, scale=op_scale),
        time_to_restore=Weibull(shape=2.0, scale=12.0, location=6.0),
        time_to_latent=Weibull(shape=1.0, scale=9_259.0),
        time_to_scrub=Weibull(shape=3.0, scale=168.0, location=6.0),
        mission_hours=MISSION_HOURS,
    )


def body(config: RaidGroupConfig, confidence: Optional[float] = None, groups: int = MC_GROUPS) -> bytes:
    payload: Dict[str, object] = {"config": config_to_dict(config)}
    if confidence is not None:
        payload["precision"] = {
            "rel_ci_width": UNREACHABLE_WIDTH,
            "confidence": confidence,
            "max_groups": groups,
        }
    return json.dumps(payload).encode("utf-8")


class Query:
    __slots__ = ("tier", "body", "key", "config")

    def __init__(self, tier: str, body: bytes, key: str, config: Optional[RaidGroupConfig] = None):
        self.tier = tier  #: the tier that should answer
        self.body = body
        self.key = key  #: analytical config id, or Monte Carlo spec id
        self.config = config  #: kept for analytical queries (answer check)


class Workload:
    """The primed working set and the per-client query streams of a seed."""

    def __init__(self, seed: int, clients: int, cold: int = COLD_PER_BLOCK) -> None:
        self.seed = seed
        self.clients = clients
        self.block = block(cold)
        rng = random.Random(seed)
        self.analytic = [analytic_config(rng.uniform(12.0, 400.0)) for _ in range(ANALYTIC_SET)]
        self.mc = [mc_config(rng.uniform(120_000.0, 240_000.0)) for _ in range(MC_SET)]
        self.analytic_bodies = [body(c) for c in self.analytic]
        self.mc_bodies = [body(c, 0.95) for c in self.mc]
        self.mc_rescaled = [body(c, 0.90) for c in self.mc]

    def priming(self) -> List[Query]:
        return [
            Query("solver", b, f"A{i}", c) for i, (b, c) in enumerate(zip(self.analytic_bodies, self.analytic))
        ] + [Query("simulated", b, f"M{i}@{MC_GROUPS}") for i, b in enumerate(self.mc_bodies)]

    def stream(self, client: int) -> Iterator[Query]:
        rng = random.Random(self.seed * 31 + client + 1)
        owned = [k for k in range(MC_SET) if k % self.clients == client]
        extends = {k: 0 for k in owned}
        fresh = 0
        while True:
            tiers = [tier for tier, n in self.block for _ in range(n)]
            rng.shuffle(tiers)
            for tier in tiers:
                if tier == "solver-cache":
                    i = rng.randrange(ANALYTIC_SET)
                    yield Query(tier, self.analytic_bodies[i], f"A{i}", self.analytic[i])
                elif tier == "cache":
                    i = rng.randrange(MC_SET)
                    yield Query(tier, self.mc_bodies[i], f"M{i}@{MC_GROUPS}")
                elif tier == "cache-rescaled":
                    i = rng.randrange(MC_SET)
                    yield Query(tier, self.mc_rescaled[i], f"M{i}@{MC_GROUPS}/90")
                elif tier == "solver":
                    fresh += 1
                    config = analytic_config(rng.uniform(12.0, 400.0))
                    yield Query(tier, body(config), f"A:{client}:{fresh}", config)
                elif tier == "simulated":
                    fresh += 1
                    config = mc_config(rng.uniform(120_000.0, 240_000.0))
                    yield Query(tier, body(config, 0.95), f"M:{client}:{fresh}")
                elif owned:  # cache-extend of a key this client owns
                    k = rng.choice(owned)
                    extends[k] += 1
                    groups = MC_GROUPS + EXTEND_STEP * extends[k]
                    yield Query(tier, body(self.mc[k], 0.95, groups), f"M{k}@{groups}")


class Sample:
    __slots__ = ("query", "start", "end", "status", "source", "server_s", "answer_id", "error")

    def __init__(self, query: Query, start: float) -> None:
        self.query = query
        self.start = start
        self.end = 0.0
        self.status: Optional[int] = None
        self.source: Optional[str] = None
        self.server_s: Optional[float] = None
        self.answer_id: Optional[str] = None  #: canonical answer, analytical only
        self.error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency(self) -> float:
        return self.end - self.start


def canonical_answer(answer: dict) -> str:
    """An analytical answer without its wall-clock field."""
    return json.dumps({k: v for k, v in answer.items() if k != "elapsed_seconds"}, sort_keys=True)


def send(conn: http.client.HTTPConnection, query: Query) -> Sample:
    sample = Sample(query, time.perf_counter())
    try:
        conn.request("POST", "/query", query.body, {"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        sample.end = time.perf_counter()
        sample.status = response.status
        doc = json.loads(data)
        sample.source = doc.get("source")
        sample.server_s = doc.get("server_seconds")
        if query.config is not None and response.status == 200:
            sample.answer_id = canonical_answer(doc["answer"])
    except (OSError, http.client.HTTPException, ValueError) as exc:
        sample.end = sample.end or time.perf_counter()
        sample.error = f"{type(exc).__name__}: {exc}"
        conn.close()
    return sample


class Server:
    """A ``repro serve`` process started through ``serve_entry.py``."""

    def __init__(self, ctx: RunContext, tag: str, trace_out: Optional[str] = None) -> None:
        args = [f"{HERE}/serve_entry.py", "--cache-dir", ctx.path(f"cache-{tag}")]
        if trace_out:
            args += ["--trace-out", trace_out]
        self.proc = start_process(args, ctx.path(f"server-{tag}.log"), stdout=subprocess.PIPE)
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
            self.port = int(port)
            deadline = time.perf_counter() + 60.0
            while self.get("/healthz") is None:
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get(self, path: str) -> Optional[dict]:
        conn = self.connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return json.loads(response.read()) if response.status == 200 else None
        except (OSError, http.client.HTTPException):
            return None
        finally:
            conn.close()

    def stop(self) -> int:
        """Interrupt ``serve`` (it shuts the service down and, when traced,
        writes its spans), reap the process and return its exit code."""
        code = stop_process(self.proc, signal.SIGINT)
        self.proc.stdout.close()
        return code


def prime(server: Server, workload: Workload) -> Tuple[List[Sample], float]:
    """Send the working set once; returns the samples and the time taken."""
    start = time.perf_counter()
    conn = server.connection()
    try:
        return [send(conn, q) for q in workload.priming()], time.perf_counter() - start
    finally:
        conn.close()


def closed_loop(server: Server, workload: Workload, seconds: float) -> Tuple[List[Sample], float]:
    """``clients`` closed-loop clients for ``seconds``; returns every
    sample and the wall time until the last reply."""
    per_client: List[List[Sample]] = [[] for _ in range(workload.clients)]
    start = time.perf_counter()
    deadline = start + seconds

    def client(i: int) -> None:
        conn = server.connection()
        stream = workload.stream(i)
        out = per_client[i]
        try:
            while time.perf_counter() < deadline:
                out.append(send(conn, next(stream)))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [s for out in per_client for s in out], time.perf_counter() - start


def source_counts(stats: dict) -> Dict[str, int]:
    return {k: int(v["count"]) for k, v in stats["service"]["by_source"].items()}


class Session:
    """One booted, primed server and the queries it has answered.

    Untraced, a server is booted (process start to /healthz) and primed
    :data:`SETUP_REPS` times, each with its own empty cache, and the last
    one is kept; ``setup_s`` is the median of boot plus priming."""

    def __init__(self, ctx: RunContext, workload: Workload, tag: str, trace_out: Optional[str] = None):
        reps = 1 if trace_out else SETUP_REPS
        boots, primes = [], []
        for rep in range(reps):
            start = time.perf_counter()
            server = Server(ctx, f"{tag}{rep}", trace_out)
            boots.append(time.perf_counter() - start)
            try:
                primed, prime_s = prime(server, workload)
                primes.append(prime_s)
                if rep == reps - 1:
                    self.before = server.get("/stats")
                elif server.stop() != 0:
                    raise RuntimeError("repro serve exited with an error on SIGINT")
            except BaseException:
                server.stop()
                raise
        self.server, self.primed = server, primed
        self.boot_s, self.prime_s = median(boots), median(primes)
        self.setup_s = median(b + p for b, p in zip(boots, primes))
        self.samples: List[Sample] = []
        self.wall = 0.0
        self.after: Optional[dict] = None
        self.exit_code: Optional[int] = None

    def measure(self, workload: Workload, seconds: float) -> None:
        self.samples, self.wall = closed_loop(self.server, workload, seconds)
        self.after = self.server.get("/stats")

    def close(self) -> None:
        self.exit_code = self.server.stop()

    def tiers(self) -> Dict[str, int]:
        before, after = source_counts(self.before), source_counts(self.after)
        return {t: after.get(t, 0) - before.get(t, 0) for t in TIERS}

    def end_to_end(self) -> Tuple[Dict[str, float], Optional[tuple]]:
        """The window's end-to-end metrics and ``(tail, percentile, n)``."""
        latencies = [s.latency for s in self.samples if s.ok]
        groups = self.after["jobs"]["groups_simulated"] - self.before["jobs"]["groups_simulated"]
        tail_ms = tail(latencies)
        return {
            "groups_per_s": groups / self.wall,
            "qps": len(latencies) / self.wall,
            "latency_p50_ms": median(latencies) * 1e3,
            "latency_tail_ms": tail_ms[0] * 1e3 if tail_ms else 0.0,
        }, tail_ms


def check(sessions: List[Session]) -> Tuple[Dict[int, bool], List[str]]:
    """Per-sample pass/fail (by ``id``) and run-level problems."""
    problems: List[str] = []
    ok: Dict[int, bool] = {}
    reference: Dict[str, str] = {}
    configs: Dict[str, RaidGroupConfig] = {}
    for session in sessions:
        for s in session.primed + session.samples:
            ok[id(s)] = s.ok
            if s.ok and s.answer_id is not None:
                configs.setdefault(s.query.key, s.query.config)
    for key, config in configs.items():
        reference[key] = canonical_answer(solve(config, horizon_hours=MISSION_HOURS).to_dict())
    for session in sessions:
        wrong = 0
        for s in session.primed + session.samples:
            if s.answer_id is not None and s.answer_id != reference[s.query.key]:
                ok[id(s)] = False
                wrong += 1
        if wrong:
            problems.append(f"{wrong} analytical answers differ from an in-process solve()")
        bad = [s for s in session.primed + session.samples if not s.ok]
        if bad:
            problems.append(f"{len(bad)} queries failed, first: {bad[0].error or bad[0].status}")
        if session.exit_code != 0:
            problems.append(f"repro serve exited with code {session.exit_code}")
        sent = len(session.primed) + len(session.samples)
        service = session.after["service"]
        by_source = sum(source_counts(session.after).values())
        if not (by_source == service["requests"] == sent):
            problems.append(
                f"/stats per-source counts sum to {by_source}, requests {service['requests']}, sent {sent}"
            )
        expected = {
            s.query.key for s in session.primed + session.samples if s.query.tier in ("simulated", "cache-extend")
        }
        started = session.after["jobs"]["simulations_started"]
        if started != len(expected):
            problems.append(
                f"jobs.simulations_started {started} != {len(expected)} distinct Monte Carlo specs to simulate"
            )
    return ok, problems


def layers(session: Session, dump: dict, untraced_qps: float) -> Dict[str, float]:
    """Per-layer metrics of a traced session."""
    ms = 1e3
    spans = dump["spans"]
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    kernels = [s for s in spans if s["name"] == "batch.kernel"]
    busy = sum(s["end"] - s["start"] for s in kernels)
    out["batch.shard_ms_p50"] = median(selfs.get("batch.kernel", [])) * ms
    out["batch.groups_per_busy_s"] = sum(s["n_groups"] for s in kernels) / busy if busy else 0.0
    folds = len(selfs.get("streaming.fold", []))
    out["executor.useful_ratio"] = folds / len(kernels) if kernels else 0.0
    out["streaming.fold_ms_p50"] = median(selfs.get("streaming.fold", [])) * ms
    out["checkpoint.write_ms_p50"] = median(selfs.get("checkpoint.write", [])) * ms
    out["checkpoint.bytes"] = median(s["bytes"] for s in spans if s["name"] == "checkpoint.write")
    answered = [s for s in session.samples if s.ok and s.server_s is not None]
    out["server.parse_ms_p50"] = median(selfs.get("server.parse", [])) * ms
    out["server.request_ms_p50"] = median(s.server_s for s in answered) * ms
    out["http.overhead_ms_p50"] = median(s.latency - s.server_s for s in answered) * ms
    out["fingerprint.ms_p50"] = median(selfs.get("fingerprint", [])) * ms
    out["classify.ms_p50"] = median(selfs.get("classify", [])) * ms
    out["solve.ms_p50"] = median(selfs.get("solve", [])) * ms
    out["solve.calls"] = len(selfs.get("solve", []))
    out["cache.lookup_ms_p50"] = median(selfs.get("cache.lookup", [])) * ms
    out["cache.put_ms_p50"] = median(selfs.get("cache.put", [])) * ms
    tiers = session.tiers()
    lookups = sum(tiers[t] for t in ("cache", "cache-rescaled", "cache-extend", "simulated", "coalesced"))
    out["cache.hit_ratio"] = (tiers["cache"] + tiers["cache-rescaled"]) / lookups if lookups else 0.0
    out["cache.evictions"] = session.after["cache"]["evictions"]
    runs = [s for s in spans if s["name"] == "jobs.run"]
    out["jobs.queue_wait_ms_p50"] = median(s["queue_wait"] for s in runs if s["queue_wait"] is not None) * ms
    out["jobs.run_ms_p50"] = median(s["end"] - s["start"] for s in runs) * ms
    jobs_before, jobs_after = session.before["jobs"], session.after["jobs"]
    out["jobs.simulations_started"] = jobs_after["simulations_started"] - jobs_before["simulations_started"]
    out["jobs.coalesced"] = jobs_after["coalesced"] - jobs_before["coalesced"]
    traced_qps = len(answered) / session.wall
    out["trace.overhead_ratio"] = untraced_qps / traced_qps if traced_qps else 0.0
    return out


def run(ctx: RunContext) -> dict:
    workload = Workload(ctx.seed, ctx.nproc, ctx.cold_per_block)
    sessions: List[Session] = []
    try:
        main = Session(ctx, workload, "u")
        sessions.append(main)
        seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
        main.measure(workload, seconds)
        main.close()
        per_layer = dump = None
        if ctx.trace:
            trace_out = ctx.path("server.trace.json")
            traced = Session(ctx, workload, "t", trace_out)
            sessions.append(traced)
            traced.measure(workload, seconds)
            traced.close()
            dump = load_dump(trace_out)
            untraced_qps = main.end_to_end()[0]["qps"]
            per_layer = layers(traced, dump, untraced_qps)
    finally:
        for session in sessions:
            if session.server.proc.poll() is None:
                session.close()
    # Read before the in-process solve() checks, which are not the program's.
    rss = peak_rss_mb()
    ok, problems = check(sessions)
    attempted, failed = query_error_base(ok.values())
    metrics, tail_info = main.end_to_end()
    metrics["setup_s"] = ctx.import_s + main.setup_s
    metrics["peak_rss_mb"] = rss
    tiers = main.tiers()
    answered = sum(tiers.values())
    mismatched = sum(1 for s in main.samples if s.ok and s.source != s.query.tier)
    report = [
        f"queries {len(main.samples)} in {main.wall:.3f} s by {workload.clients} closed-loop clients; "
        f"set-up medians of {SETUP_REPS}: import {ctx.import_s:.3f} s, boot {main.boot_s:.3f} s, "
        f"priming {main.prime_s:.3f} s, boot + priming {main.setup_s:.3f} s",
        "block of 100: " + ", ".join(f"{t} {n}" for t, n in workload.block),
        "tiers: " + ", ".join(f"{t} {n} ({n / max(1, answered):.2%})" for t, n in tiers.items()),
        f"answers from another tier than the stream expects: {mismatched}",
        "latency tail = " + (f"p{tail_info[1]:.2f} of n={tail_info[2]}" if tail_info else "n/a (<11 samples)"),
        f"error_rate {failed}/{attempted} (ops = queries, priming included)",
    ] + [f"CHECK FAILED: {p}" for p in problems]
    return {
        "metrics": metrics,
        "per_layer": per_layer,
        "traces": {"server": dump},
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "report": report,
        "detail": {
            "block": dict(workload.block),
            "tiers": tiers,
            "tier_mismatches": mismatched,
            "import_s": ctx.import_s,
            "boot_s": main.boot_s,
            "prime_s": main.prime_s,
        },
    }
