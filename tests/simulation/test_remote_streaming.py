"""TCP remote-worker backend: framing, determinism, chaos, drain.

The distributed executor's contract mirrors the local pipelined one:
distributing shards over remote TCP workers never changes numbers, only
wall-clock.  A ``run_streaming`` fleet spread over loopback workers must
be bit-identical to the serial run — for fixed-size and convergence-
stopped fleets, through checkpoint/resume, and across worker loss (a
shard lost to a dropped connection is reseeded from its index and
retried, charged against ``max_retries`` exactly like a local pool
break).
"""

import hashlib
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ParameterError, SimulationError
from repro.simulation import Precision, RaidGroupConfig
from repro.simulation.executor import ShardTask, shard_plan, simulate_shard
from repro.simulation.monte_carlo import MonteCarloRunner, _seed_state
from repro.simulation.remote import (
    DistributedShardExecutor,
    FrameReader,
    RemoteWorkerHub,
    chronology_from_dict,
    chronology_to_dict,
    parse_endpoint,
    run_worker,
    send_frame,
)
from tests.simulation.test_parallel_streaming import (
    CRASH_DIR_ENV,
    crash_once_worker,
)

SHARD = 32
N_GROUPS = 160


def canonical(streaming) -> str:
    return json.dumps(streaming.accumulator.to_dict(), sort_keys=True)


def make_runner(engine: str, **overrides) -> MonteCarloRunner:
    config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
    kwargs = dict(n_groups=N_GROUPS, seed=11, engine=engine)
    kwargs.update(overrides)
    return MonteCarloRunner(config, **kwargs)


@pytest.fixture
def hub():
    hub = RemoteWorkerHub(heartbeat_timeout=5.0)
    try:
        yield hub
    finally:
        hub.close()


def start_workers(hub, n, **kwargs):
    """``n`` in-thread workers dialed into ``hub``; returns their stop event."""
    stop = threading.Event()
    kwargs.setdefault("heartbeat_interval", 0.2)
    for _ in range(n):
        threading.Thread(
            target=run_worker, args=(hub.address,), kwargs={"stop": stop, **kwargs},
            daemon=True,
        ).start()
    assert hub.wait_for_workers(n, timeout=15.0)
    return stop


class TestWireFormat:
    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:8790") == ("127.0.0.1", 8790)
        with pytest.raises(ValueError):
            parse_endpoint("no-port")
        with pytest.raises(ValueError):
            parse_endpoint("host:not-a-number")

    def test_chronology_codec_roundtrips_bit_identically(self):
        """JSON floats round-trip exactly, so a chronology survives the
        wire byte-identical — the property the whole backend rests on."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(3))
        task = ShardTask(index=0, group_offset=0, n_groups=64)
        originals = simulate_shard(config, root_state, "batch", task)
        assert any(c.ddf_times for c in originals) or True  # codec must not assume DDFs
        for original in originals:
            wire = json.loads(json.dumps(chronology_to_dict(original)))
            decoded = chronology_from_dict(wire)
            assert decoded == original

    def test_frame_reader_handles_partial_and_coalesced_frames(self):
        left, right = socket.socketpair()
        try:
            lock = threading.Lock()
            reader = FrameReader(right)
            # Two frames in one send, the second split mid-payload.
            payload_a = json.dumps({"t": "a"}).encode()
            payload_b = json.dumps({"t": "b", "x": 1}).encode()
            blob = (
                struct.pack("!I", len(payload_a))
                + payload_a
                + struct.pack("!I", len(payload_b))
                + payload_b
            )
            left.sendall(blob[:-3])
            assert reader.read(timeout=2.0) == {"t": "a"}
            assert reader.read(timeout=0.05) is None  # frame b incomplete
            left.sendall(blob[-3:])
            assert reader.read(timeout=2.0) == {"t": "b", "x": 1}
            send_frame(left, lock, {"t": "c"})
            assert reader.read(timeout=2.0) == {"t": "c"}
            left.close()
            with pytest.raises(ConnectionError):
                reader.read(timeout=2.0)
        finally:
            right.close()

    def test_oversized_frame_is_rejected(self):
        left, right = socket.socketpair()
        try:
            reader = FrameReader(right)
            left.sendall(struct.pack("!I", 2**31))
            with pytest.raises(ConnectionError, match="exceeds cap"):
                reader.read(timeout=2.0)
        finally:
            left.close()
            right.close()


class TestDistributedDeterminism:
    """Acceptance: >=2 loopback TCP workers are bit-identical to serial."""

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_fixed_size_bit_identical(self, engine, hub, tmp_path):
        serial_ckpt = str(tmp_path / "serial.ckpt")
        dist_ckpt = str(tmp_path / "dist.ckpt")
        serial = make_runner(engine).run_streaming(
            shard_size=SHARD, checkpoint_path=serial_ckpt
        )
        stop = start_workers(hub, 2)
        events = []
        distributed = make_runner(engine, n_jobs=1).run_streaming(
            shard_size=SHARD,
            checkpoint_path=dist_ckpt,
            workers=hub,
            observers=(events.append,),
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        assert distributed.groups == serial.groups == N_GROUPS
        assert distributed.executor_stats["mode"] == "distributed"
        # Checkpoints agree on everything but wall clock.
        a = json.load(open(serial_ckpt))
        b = json.load(open(dist_ckpt))
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b
        # Per-worker telemetry: every committed shard is attributed, and
        # the manifest carries a per-worker breakdown.
        workers = distributed.executor_stats["workers"]
        assert sum(w["shards_committed"] for w in workers.values()) == len(
            shard_plan(0, 0, N_GROUPS, SHARD)
        )
        assert all(event.shard_worker for event in events)

    def test_remote_workers_actually_commit_shards(self, hub):
        """With no local pool at all, every shard travels the wire."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        stop = start_workers(hub, 2)
        distributed = make_runner("batch", n_jobs=0).run_streaming(
            shard_size=SHARD, workers=hub
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        workers = distributed.executor_stats["workers"]
        assert "local" not in workers
        assert sum(w["shards_committed"] for w in workers.values()) == 5
        assert all(w["mean_rtt_seconds"] > 0.0 for w in workers.values())

    def test_convergence_stop_drains_in_flight_remote_shards(self, hub):
        until = Precision(rel_ci_width=2.0, min_groups=64)
        serial = make_runner("batch", n_groups=512, seed=5).run_streaming(
            until=until, shard_size=64
        )
        stop = start_workers(hub, 2)
        distributed = make_runner(
            "batch", n_groups=512, seed=5, n_jobs=0
        ).run_streaming(until=until, shard_size=64, workers=hub)
        stop.set()
        assert serial.stop_reason == distributed.stop_reason == "converged"
        assert serial.groups == distributed.groups
        assert canonical(distributed) == canonical(serial)

    def test_interrupt_resume_distributed_bit_identical(self, hub, tmp_path):
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        path = str(tmp_path / "run.ckpt")
        stop = start_workers(hub, 2)
        interrupted = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, checkpoint_path=path, stop_after_shards=2, workers=hub
        )
        assert interrupted.stop_reason == "interrupted"
        resumed = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, checkpoint_path=path, resume_from=path, workers=hub
        )
        stop.set()
        assert resumed.stop_reason == "fixed"
        assert resumed.groups == N_GROUPS
        assert canonical(resumed) == reference

    def test_ephemeral_hub_from_bind_string(self):
        """``workers="host:port"`` opens a run-owned hub; with nobody
        dialed in the local pool still completes the plan (and the hub is
        closed with the run)."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        distributed = make_runner("batch", n_jobs=1).run_streaming(
            shard_size=SHARD, workers="127.0.0.1:0"
        )
        assert canonical(distributed) == canonical(serial)
        assert distributed.executor_stats["mode"] == "distributed"
        assert list(distributed.executor_stats["workers"]) == ["local"]


class TestChaos:
    def test_worker_killed_mid_shard_is_reseeded(self, hub):
        """A fake worker that accepts a task and dies: its shard is
        abandoned back to the queue, charged one retry, and completed by
        a surviving worker — result bit-identical.  The fake is the only
        connected worker when the run starts, so it is guaranteed to
        claim (and take down) the first shard."""
        reference = canonical(make_runner("batch").run_streaming(shard_size=SHARD))
        died = threading.Event()
        threading.Thread(
            target=_die_after_first_task, args=(hub.address, died), daemon=True
        ).start()
        assert hub.wait_for_workers(1, timeout=15.0)
        holder = {}

        def _run():
            holder["result"] = make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )

        run_thread = threading.Thread(target=_run, daemon=True)
        run_thread.start()
        assert died.wait(timeout=15.0)  # the lone worker died holding a shard
        stop = start_workers(hub, 1)  # the survivor completes the plan
        run_thread.join(timeout=120.0)
        stop.set()
        assert not run_thread.is_alive()
        distributed = holder["result"]
        assert canonical(distributed) == reference
        assert distributed.executor_stats["shard_retries"] >= 1

    def test_coordinator_side_socket_drop_mid_run(self, hub):
        """Chaos hook: the hub hard-closes a worker's socket mid-run; the
        worker's claimed shard is retried and the worker itself
        reconnects with backoff — completion stays bit-identical."""
        reference = canonical(
            make_runner("batch", n_groups=320).run_streaming(shard_size=SHARD)
        )
        stop = start_workers(hub, 2)
        dropped = threading.Event()

        def _drop_one_mid_run():
            # Wait until a session is live, then sever one worker.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                stats = hub.stats()
                if stats["active_session"] and stats["workers"]:
                    if hub.drop(stats["workers"][0]["worker"]):
                        dropped.set()
                        return
                time.sleep(0.01)

        threading.Thread(target=_drop_one_mid_run, daemon=True).start()
        distributed = make_runner("batch", n_groups=320, n_jobs=0).run_streaming(
            shard_size=SHARD, workers=hub
        )
        stop.set()
        assert dropped.is_set()
        assert canonical(distributed) == reference

    def test_retries_exhausted_fails_the_run(self, hub):
        """Losing the same shard past ``max_retries`` raises
        SimulationError — the exact accounting local pool breaks get."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        executor = DistributedShardExecutor(
            config, root_state, "batch", 0, hub=hub, max_retries=1
        )
        plan = shard_plan(0, 0, 2 * SHARD, SHARD)
        outcomes = executor.outcomes(plan)
        killer_done = threading.Event()

        def _keep_losing():
            # Wait for the (lazy) generator to open the session, then
            # claim shards and abandon them until the budget is exhausted.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not executor.accepting():
                time.sleep(0.01)
            while time.monotonic() < deadline and executor.accepting():
                task = executor.claim("chaos", timeout=0.1)
                if task is not None:
                    executor.abandon(task, "chaos monkey")
            killer_done.set()

        threading.Thread(target=_keep_losing, daemon=True).start()
        with pytest.raises(SimulationError, match="was lost"):
            list(outcomes)
        assert killer_done.wait(timeout=20.0)

    def test_drained_shard_is_discarded_not_committed(self, hub):
        """A remote shard still in flight when the consumer closes the
        generator is discarded — never folded into the accumulator."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(11))
        executor = DistributedShardExecutor(
            config, root_state, "batch", 0, hub=hub, max_retries=2
        )
        stop = start_workers(hub, 1)
        plan = shard_plan(0, 0, 3 * SHARD, SHARD)
        outcomes = executor.outcomes(plan)
        first = next(outcomes)
        assert first.task.index == 0
        outcomes.close()  # convergence: drain, discard in-flight
        stop.set()
        assert not executor.accepting()


class TestWorkerRobustness:
    """Regressions: a worker must answer errors over the wire, not die."""

    def test_compiled_init_without_numba_answers_init_err(self, monkeypatch):
        """Regression (high): a worker told to run ``engine="compiled"``
        on a host without numba must reply ``init_err`` — the capability
        check used to call ``compiled_engine_unsupported_reason()``
        without its config argument and crash the worker process with a
        TypeError instead of declining."""
        import repro.simulation.compiled as compiled_module
        from repro.validation.generator import config_to_dict

        monkeypatch.setattr(
            compiled_module, "compiled_kernel_available", lambda: False
        )
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(f"{host}:{port}",),
            kwargs={"stop": stop, "heartbeat_interval": 0.2},
            daemon=True,
        )
        worker.start()
        try:
            conn, _ = listener.accept()
            lock = threading.Lock()
            reader = FrameReader(conn)
            assert _read_tagged(reader, "hello")["v"] == 1
            config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
            constants = {
                "config": config_to_dict(config),
                "root_state": _seed_state(np.random.SeedSequence(7)),
            }
            send_frame(
                conn, lock,
                {"t": "init", "epoch": 1, "engine": "compiled", **constants},
            )
            err = _read_tagged(reader, "init_err")
            assert err["epoch"] == 1
            assert "compiled engine unavailable" in err["reason"]
            # The rejection left the worker alive: the same connection
            # still accepts an engine this host *can* run and serves it.
            send_frame(
                conn, lock,
                {"t": "init", "epoch": 2, "engine": "batch", **constants},
            )
            assert _read_tagged(reader, "init_ok")["epoch"] == 2
            send_frame(
                conn, lock,
                {"t": "task", "epoch": 2, "index": 0,
                 "group_offset": 0, "n_groups": 8},
            )
            result = _read_tagged(reader, "result")
            assert result["index"] == 0 and len(result["chronologies"]) == 8
            conn.close()
        finally:
            stop.set()
            listener.close()
            worker.join(timeout=10.0)

    def test_shard_error_on_worker_fails_run_with_real_error(
        self, hub, monkeypatch
    ):
        """Regression: an exception from ``simulate_shard`` used to kill
        the worker; the coordinator saw only heartbeat timeouts and
        burned retries on a shard that fails identically everywhere.  It
        now travels back as ``task_err`` and fails the run with the real
        cause — and the worker survives."""
        import repro.simulation.remote as remote_module

        def explode(config, root_state, engine, task):
            raise RuntimeError("boom: bad shard")

        monkeypatch.setattr(remote_module, "simulate_shard", explode)
        stop = start_workers(hub, 1)
        with pytest.raises(SimulationError, match="boom: bad shard"):
            make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
        assert hub.n_workers() == 1  # still connected, not crash-looping
        stop.set()

    def test_heartbeating_worker_is_not_dropped_during_init(self):
        """Regression: the init-handshake wait used a fixed deadline that
        heartbeats did not extend, so a live worker still busy finishing
        a long stale shard was dropped with 'worker did not answer init'.
        A worker that heartbeats for 2.5× the timeout before answering
        init must complete the run, with no retries charged."""
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        hub = RemoteWorkerHub(heartbeat_timeout=1.0)
        stop = threading.Event()
        holder = {}
        try:
            threading.Thread(
                target=_slow_init_worker,
                args=(hub.address, 2.5, stop),
                daemon=True,
            ).start()
            assert hub.wait_for_workers(1, timeout=15.0)

            def _run():
                holder["result"] = make_runner("batch", n_jobs=0).run_streaming(
                    shard_size=SHARD, workers=hub
                )

            run_thread = threading.Thread(target=_run, daemon=True)
            run_thread.start()
            run_thread.join(timeout=120.0)
            assert not run_thread.is_alive(), "distributed run did not finish"
        finally:
            stop.set()
            hub.close()
        distributed = holder["result"]
        assert canonical(distributed) == canonical(serial)
        assert distributed.executor_stats["shard_retries"] == 0


class TestNJobsZero:
    """``n_jobs=0`` means "no local shard pool" and is only meaningful
    when remote workers exist to do the simulating."""

    def test_materialized_run_rejects_n_jobs_zero(self):
        with pytest.raises(ParameterError, match="n_jobs=0"):
            make_runner("batch", n_jobs=0).run()

    def test_streaming_without_workers_rejects_n_jobs_zero(self):
        with pytest.raises(ParameterError, match="requires workers="):
            make_runner("batch", n_jobs=0).run_streaming(shard_size=SHARD)


class TestInitBarrier:
    """Remote claims wait until every worker connected when the run
    registered has answered its init (or the heartbeat timeout passed):
    otherwise the first worker to finish its handshake drains a short
    plan before the others can join."""

    def test_no_task_before_every_connected_worker_answered_init(self):
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        hub = RemoteWorkerHub(heartbeat_timeout=5.0)
        log = []
        stop = threading.Event()
        try:
            for name, init_delay in (("fast", 0.0), ("slow", 1.0)):
                threading.Thread(
                    target=_logging_worker,
                    args=(hub.address, name, init_delay, log, stop),
                    daemon=True,
                ).start()
            assert hub.wait_for_workers(2, timeout=15.0)
            distributed = make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
        finally:
            stop.set()
            hub.close()
        assert canonical(distributed) == canonical(serial)
        slow_ok = log.index(("slow", "init_ok"))
        # The fast worker was ready a whole second before the slow one ...
        assert log.index(("fast", "init_ok")) < slow_ok
        # ... yet got its first task only after the slow init_ok.
        fast_tasks = [i for i, entry in enumerate(log) if entry == ("fast", "task")]
        assert fast_tasks and min(fast_tasks) > slow_ok
        assert ("slow", "task") in log


class TestIdleLinkLiveness:
    def test_live_worker_with_nothing_to_claim_stays_connected(self):
        """Regression: a link with nothing to claim polled its socket
        with a zero timeout, which never reads, so a heartbeating worker
        waiting out another worker's long shard was dropped as silent
        after the heartbeat timeout."""
        serial = make_runner("batch", n_groups=SHARD).run_streaming(shard_size=SHARD)
        hub = RemoteWorkerHub(heartbeat_timeout=1.0)
        log = []
        stop = threading.Event()
        try:
            for name in ("a", "b"):
                threading.Thread(
                    target=_logging_worker,
                    args=(hub.address, name, 0.0, log, stop),
                    kwargs={"task_seconds": 2.5},
                    daemon=True,
                ).start()
            assert hub.wait_for_workers(2, timeout=15.0)
            # One shard: one worker holds it for 2.5x the timeout while
            # the other has nothing to claim.
            distributed = make_runner("batch", n_groups=SHARD, n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
            closed_during_run = [entry for entry in log if entry[1] == "closed"]
        finally:
            stop.set()
            hub.close()
        assert canonical(distributed) == canonical(serial)
        assert closed_during_run == []


class TestLocalLaneUnderHub:
    def test_pool_break_under_hub_is_recovered(self, hub, tmp_path, monkeypatch):
        """A local worker process dying while remote workers share the
        queue: the pool lane rebuilds its pool, reseeds the lost shard,
        and the run stays bit-identical to serial."""
        crash_dir = tmp_path / "crashes"
        crash_dir.mkdir()
        monkeypatch.setenv(CRASH_DIR_ENV, str(crash_dir))
        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        stop = start_workers(hub, 1)
        distributed = make_runner("batch", n_jobs=2).run_streaming(
            shard_size=SHARD, workers=hub, _shard_worker=crash_once_worker
        )
        stop.set()
        assert canonical(distributed) == canonical(serial)
        assert distributed.executor_stats["pool_breaks"] >= 1
        assert len(os.listdir(crash_dir)) == 1  # crashed exactly once


class TestSharedQueueStress:
    def test_more_links_than_cores_commit_each_shard_once(self, hub):
        """Four in-thread workers race the consumer for one queue under a
        shortened thread switch interval: every shard is committed once,
        in order, bit-identical to simulating it directly."""
        config = RaidGroupConfig.paper_base_case(mission_hours=8_760.0)
        root_state = _seed_state(np.random.SeedSequence(23))
        plan = shard_plan(0, 0, 24 * 8, 8)
        executor = DistributedShardExecutor(config, root_state, "batch", 0, hub=hub)
        stop = start_workers(hub, 4)
        outcomes = []
        consumer = threading.Thread(
            target=lambda: outcomes.extend(executor.outcomes(plan)), daemon=True
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            consumer.start()
            consumer.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not consumer.is_alive(), "the run did not finish"
        assert [o.task.index for o in outcomes] == list(range(len(plan)))
        for outcome, task in zip(outcomes, plan):
            assert outcome.chronologies == simulate_shard(
                config, root_state, "batch", task
            )
        stats = executor.stats()
        assert stats["shards_committed"] == len(plan)
        assert sum(w["shards_committed"] for w in stats["workers"].values()) == len(
            plan
        )
        assert stats["shard_retries"] == 0


class TestLoopbackSubprocesses:
    """The CI acceptance shape: two real ``repro worker`` OS processes
    dialed into a loopback hub, run digest == serial golden digest."""

    def test_distributed_digest_matches_serial_golden(self, hub):
        import repro

        serial = make_runner("batch").run_streaming(shard_size=SHARD)
        golden = hashlib.sha256(canonical(serial).encode()).hexdigest()

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--connect",
            hub.address,
            "--heartbeat-interval",
            "0.2",
        ]
        procs = [
            subprocess.Popen(
                command, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            for _ in range(2)
        ]
        try:
            assert hub.wait_for_workers(2, timeout=60.0)
            distributed = make_runner("batch", n_jobs=0).run_streaming(
                shard_size=SHARD, workers=hub
            )
        finally:
            for proc in procs:
                proc.kill()
            for proc in procs:
                proc.wait(timeout=30.0)

        digest = hashlib.sha256(canonical(distributed).encode()).hexdigest()
        assert digest == golden
        workers = distributed.executor_stats["workers"]
        assert len(workers) == 2 and "local" not in workers


def _read_tagged(reader, tag, timeout=15.0):
    """Next frame with ``t == tag``, skipping heartbeats and other chatter."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        message = reader.read(timeout=0.25)
        if message is not None and message.get("t") == tag:
            return message
    raise AssertionError(f"no {tag!r} frame arrived within {timeout}s")


def _slow_init_worker(address, delay, stop):
    """Raw-socket worker that heartbeats through ``delay`` seconds before
    answering init (a worker busy finishing a stale shard), then serves
    tasks normally."""
    host, port = parse_endpoint(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    lock = threading.Lock()
    reader = FrameReader(sock)
    from repro.validation.generator import config_from_dict

    config = root_state = None
    engine = "batch"
    epoch = -1
    try:
        send_frame(
            sock, lock, {"t": "hello", "v": 1, "host": "slow", "pid": os.getpid()}
        )
        while not stop.is_set():
            try:
                message = reader.read(timeout=0.25)
            except ConnectionError:
                return
            if message is None:
                continue
            kind = message.get("t")
            if kind == "init":
                deadline = time.monotonic() + delay
                while time.monotonic() < deadline:
                    send_frame(sock, lock, {"t": "hb"})
                    time.sleep(0.2)
                epoch = message["epoch"]
                engine = message["engine"]
                config = config_from_dict(message["config"])
                root_state = message["root_state"]
                send_frame(sock, lock, {"t": "init_ok", "epoch": epoch})
            elif kind == "task":
                task = ShardTask(
                    index=message["index"],
                    group_offset=message["group_offset"],
                    n_groups=message["n_groups"],
                )
                chronologies = simulate_shard(config, root_state, engine, task)
                send_frame(
                    sock,
                    lock,
                    {
                        "t": "result",
                        "epoch": epoch,
                        "index": task.index,
                        "wall_seconds": 0.0,
                        "chronologies": [chronology_to_dict(c) for c in chronologies],
                    },
                )
    except OSError:
        pass
    finally:
        sock.close()


def _logging_worker(address, name, init_delay, log, stop, task_seconds=0.05):
    """Raw-socket worker that answers init after ``init_delay`` seconds,
    takes ``task_seconds`` per shard and heartbeats whenever it waits.
    It appends ``(name, "init_ok")`` to ``log`` just before its init
    answer leaves, ``(name, "task")`` as each task frame arrives, and
    ``(name, "closed")`` if the coordinator drops it."""
    host, port = parse_endpoint(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    lock = threading.Lock()
    reader = FrameReader(sock)
    from repro.validation.generator import config_from_dict

    config = root_state = None
    engine = "batch"
    epoch = -1
    try:
        send_frame(sock, lock, {"t": "hello", "v": 1, "host": name, "pid": 1})
        while not stop.is_set():
            try:
                message = reader.read(timeout=0.2)
            except ConnectionError:
                log.append((name, "closed"))
                return
            if message is None:
                send_frame(sock, lock, {"t": "hb"})
                continue
            kind = message.get("t")
            if kind == "init":
                time.sleep(init_delay)
                epoch = message["epoch"]
                engine = message["engine"]
                config = config_from_dict(message["config"])
                root_state = message["root_state"]
                log.append((name, "init_ok"))
                send_frame(sock, lock, {"t": "init_ok", "epoch": epoch})
            elif kind == "task":
                log.append((name, "task"))
                task = ShardTask(
                    index=message["index"],
                    group_offset=message["group_offset"],
                    n_groups=message["n_groups"],
                )
                chronologies = simulate_shard(config, root_state, engine, task)
                deadline = time.monotonic() + task_seconds
                while time.monotonic() < deadline:
                    send_frame(sock, lock, {"t": "hb"})
                    time.sleep(min(0.2, task_seconds))
                send_frame(
                    sock,
                    lock,
                    {
                        "t": "result",
                        "epoch": epoch,
                        "index": task.index,
                        "wall_seconds": task_seconds,
                        "chronologies": [chronology_to_dict(c) for c in chronologies],
                    },
                )
    except OSError:
        pass
    finally:
        sock.close()


def _die_after_first_task(address, died):
    """Raw-socket worker: handshake, init_ok, accept one task, vanish."""
    host, port = parse_endpoint(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    lock = threading.Lock()
    reader = FrameReader(sock)
    try:
        send_frame(sock, lock, {"t": "hello", "v": 1, "host": "chaos", "pid": 1})
        deadline = time.monotonic() + 15.0
        epoch = None
        while time.monotonic() < deadline:
            try:
                message = reader.read(timeout=0.25)
            except ConnectionError:
                return
            if message is None:
                continue
            if message.get("t") == "init":
                epoch = message["epoch"]
                send_frame(sock, lock, {"t": "init_ok", "epoch": epoch})
            elif message.get("t") == "task":
                return  # die with the shard claimed
    finally:
        sock.close()
        died.set()
