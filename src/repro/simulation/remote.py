"""TCP remote-worker lane of the shard executor.

The spawn-key seed reconstruction (:func:`.executor._child_seed`) makes a
:class:`~repro.simulation.executor.ShardTask` a pure function of its
indices: any process on any host that knows the run constants (config,
root seed state, engine) can simulate any shard and produce byte-identical
chronologies.  This module extends the shard executor past one machine
with *unchanged semantics*:

* :func:`run_worker` — the ``repro worker --connect HOST:PORT`` client
  loop.  It dials the coordinator, announces itself, receives the run
  constants, then pulls shard tasks one at a time (work stealing: a fast
  host simply asks more often), simulating each with its local engine via
  the very same :func:`~repro.simulation.executor.simulate_shard` the
  local lanes use, and streams back length-prefixed JSON chronology
  payloads.  A background thread heartbeats; a dropped connection triggers
  reconnect with exponential backoff.

* :class:`RemoteWorkerHub` — the coordinator side and the executor's
  remote lane.  A listening socket plus one thread per connected worker.
  A run's :class:`~repro.simulation.executor.ShardExecutor` registers as
  the active *session*; each link thread drives the handshake, then
  claims tasks from the session's shared queue and hands results back
  through ``session.complete``.  Claims start once every link connected
  at registration has answered the run's ``init`` (or the heartbeat
  timeout passed), so no link drains the queue while another is still
  handshaking.  Heartbeat staleness or a socket error abandons the
  claimed shard back to the queue, charged one retry in the executor's
  ledger exactly like a broken local pool.

Because the executor commits strictly in shard order and every shard is
reseeded from its index, a distributed run is bit-identical to a serial
one — through checkpoint/resume, convergence stopping (in-flight remote
shards are drained and discarded), and mid-run worker loss.

Wire format (version 1): every frame is a 4-byte big-endian unsigned
length followed by that many bytes of UTF-8 JSON.  JSON round-trips
Python floats exactly (shortest-repr), so chronologies survive the wire
bit-identical.  Messages carry a ``t`` tag:

====================  =======================================================
coordinator → worker
====================  =======================================================
``init``              run constants: ``epoch``, ``engine``, ``config``,
                      ``root_state``
``task``              one shard: ``epoch``, ``index``, ``group_offset``,
                      ``n_groups``
``drain``             no work right now (convergence drain / between runs)
====================  =======================================================

====================  =======================================================
worker → coordinator
====================  =======================================================
``hello``             ``v`` (protocol version), ``host``, ``pid``
``init_ok``           worker accepted the run constants (``epoch``)
``init_err``          worker cannot run this engine/config (``epoch``,
                      ``reason``)
``result``            ``epoch``, ``index``, ``wall_seconds``,
                      ``chronologies``
``task_err``          the shard raised on the worker (``epoch``,
                      ``index``, ``error``) — fails the run with the
                      real error instead of burning retries
``hb``                heartbeat (also sent while a long shard simulates)
====================  =======================================================

The ``epoch`` stamps every task/result with the run it belongs to, so a
result that limps in after its run drained (or after the shard was
reassigned) is recognizably stale and discarded.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .executor import _POLL_SECONDS, ShardExecutor, ShardTask, simulate_shard
from .raid_simulator import DDFType, GroupChronology

PROTOCOL_VERSION = 1

#: Hard cap on a single frame — a 5k-group shard of pathological
#: chronologies is well under 64 MiB; anything larger is a corrupt or
#: hostile peer, not a payload.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Coordinator-side staleness bound: a worker silent this long is
#: presumed dead and its claimed shard is abandoned back to the queue.
DEFAULT_HEARTBEAT_TIMEOUT = 15.0

_LEN = struct.Struct("!I")


def parse_endpoint(spec: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``, with validation."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {spec!r}") from None


# ----------------------------------------------------------------------
# Chronology wire codec.  JSON floats are exact (repr round-trip), enums
# travel by value — the decoded chronology is byte-identical to the
# original under the canonical json.dumps(..., sort_keys=True) test.
def chronology_to_dict(chrono: GroupChronology) -> dict:
    return {
        "ddf_times": list(chrono.ddf_times),
        "ddf_types": [t.value for t in chrono.ddf_types],
        "n_op_failures": chrono.n_op_failures,
        "n_latent_defects": chrono.n_latent_defects,
        "n_scrub_repairs": chrono.n_scrub_repairs,
        "n_restores": chrono.n_restores,
        "mission_hours": chrono.mission_hours,
        "n_spare_waits": chrono.n_spare_waits,
        "spare_wait_hours": chrono.spare_wait_hours,
        "n_checks": chrono.n_checks,
        "n_policy_repairs": chrono.n_policy_repairs,
    }


def chronology_from_dict(data: dict) -> GroupChronology:
    return GroupChronology(
        ddf_times=[float(t) for t in data["ddf_times"]],
        ddf_types=[DDFType(t) for t in data["ddf_types"]],
        n_op_failures=int(data["n_op_failures"]),
        n_latent_defects=int(data["n_latent_defects"]),
        n_scrub_repairs=int(data["n_scrub_repairs"]),
        n_restores=int(data["n_restores"]),
        mission_hours=float(data["mission_hours"]),
        n_spare_waits=int(data["n_spare_waits"]),
        spare_wait_hours=float(data["spare_wait_hours"]),
        n_checks=int(data["n_checks"]),
        n_policy_repairs=int(data["n_policy_repairs"]),
    )


# ----------------------------------------------------------------------
# Framing.
def send_frame(sock: socket.socket, lock: threading.Lock, message: dict) -> None:
    """Serialize and send one length-prefixed frame (thread-safe)."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise SimulationError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES}); message t={message.get('t')!r}"
        )
    with lock:
        sock.sendall(_LEN.pack(len(payload)) + payload)


class FrameReader:
    """Incremental length-prefixed JSON frame reader over a socket.

    ``read(timeout)`` returns the next decoded message, ``None`` if no
    complete frame arrived within the timeout, and raises
    :class:`ConnectionError` on EOF or a malformed frame.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    def read(self, timeout: float) -> Optional[dict]:
        deadline = time.monotonic() + timeout
        while True:
            frame = self._pop_frame()
            if frame is not None:
                return frame
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(1 << 20)
            except socket.timeout:
                return None
            except OSError as exc:
                raise ConnectionError(f"socket read failed: {exc!r}") from exc
            if not chunk:
                raise ConnectionError("peer closed the connection")
            self._buffer.extend(chunk)

    def _pop_frame(self) -> Optional[dict]:
        if len(self._buffer) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buffer)
        if length > MAX_FRAME_BYTES:
            raise ConnectionError(f"frame length {length} exceeds cap")
        if len(self._buffer) < _LEN.size + length:
            return None
        payload = bytes(self._buffer[_LEN.size : _LEN.size + length])
        del self._buffer[: _LEN.size + length]
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConnectionError(f"malformed frame: {exc!r}") from exc
        if not isinstance(message, dict):
            raise ConnectionError("frame payload is not a JSON object")
        return message


# ----------------------------------------------------------------------
# Worker side.
def run_worker(
    address: str,
    *,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_reconnects: Optional[int] = None,
    backoff_cap: float = 30.0,
    stop: Optional[threading.Event] = None,
) -> int:
    """Connect to a coordinator and simulate shards until told to stop.

    Returns the number of shards this worker completed (useful for
    tests); runs forever across reconnects unless ``max_reconnects``
    consecutive failed dials are exhausted or ``stop`` is set.
    """
    host, port = parse_endpoint(address)
    stop = stop if stop is not None else threading.Event()
    completed = 0
    failures = 0
    while not stop.is_set():
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            failures += 1
            if max_reconnects is not None and failures > max_reconnects:
                return completed
            delay = min(backoff_cap, 0.1 * (2 ** min(failures, 10)))
            if stop.wait(delay):
                return completed
            continue
        failures = 0
        try:
            completed += _serve_connection(sock, heartbeat_interval, stop)
        except (ConnectionError, OSError):
            pass  # coordinator vanished; loop back and redial
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if max_reconnects is not None and max_reconnects == 0:
            return completed
    return completed


def _serve_connection(
    sock: socket.socket, heartbeat_interval: float, stop: threading.Event
) -> int:
    """One connected session: handshake, then the pull-simulate-push loop."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    reader = FrameReader(sock)
    send_frame(
        sock,
        send_lock,
        {
            "t": "hello",
            "v": PROTOCOL_VERSION,
            "host": socket.gethostname(),
            "pid": os.getpid(),
        },
    )

    hb_stop = threading.Event()

    def _heartbeat() -> None:
        while not hb_stop.wait(heartbeat_interval):
            try:
                send_frame(sock, send_lock, {"t": "hb"})
            except OSError:
                # Unblock the main recv loop by killing the socket.
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return

    hb_thread = threading.Thread(target=_heartbeat, daemon=True)
    hb_thread.start()

    config: Optional[RaidGroupConfig] = None
    root_state: Optional[dict] = None
    engine = "event"
    epoch = -1
    completed = 0
    try:
        while not stop.is_set():
            message = reader.read(_POLL_SECONDS)
            if message is None:
                continue
            kind = message.get("t")
            if kind == "init":
                # Lazy import: validation imports simulation, so the
                # serializers cannot be imported at module load time.
                from ..validation.generator import config_from_dict

                epoch = int(message["epoch"])
                engine = str(message["engine"])
                # Parse the config before the capability check: engine
                # support is per-config (the compiled kernel gates on the
                # same structure the batch engine does), and a config this
                # host cannot even deserialize is an init_err, not a crash.
                try:
                    config = config_from_dict(message["config"])
                    reason = _engine_unavailable_reason(engine, config)
                except Exception as exc:
                    reason = f"config rejected: {exc!r}"
                if reason is None:
                    root_state = dict(message["root_state"])
                    send_frame(sock, send_lock, {"t": "init_ok", "epoch": epoch})
                else:
                    config = root_state = None
                    send_frame(
                        sock,
                        send_lock,
                        {"t": "init_err", "epoch": epoch, "reason": reason},
                    )
            elif kind == "task":
                if config is None or int(message["epoch"]) != epoch:
                    continue  # stale task from a drained run
                task = ShardTask(
                    index=int(message["index"]),
                    group_offset=int(message["group_offset"]),
                    n_groups=int(message["n_groups"]),
                )
                reply = {"t": "result", "epoch": epoch, "index": task.index}
                start = time.perf_counter()
                try:
                    chronologies = simulate_shard(config, root_state, engine, task)
                except Exception as exc:
                    # A deterministic shard failure must reach the
                    # coordinator as an actionable error, not kill the
                    # worker (which would surface only as a heartbeat
                    # timeout and burn retries on a shard that will
                    # fail identically everywhere).
                    reply.update(t="task_err", error=repr(exc))
                else:
                    reply.update(
                        wall_seconds=time.perf_counter() - start,
                        chronologies=[chronology_to_dict(c) for c in chronologies],
                    )
                    completed += 1
                send_frame(sock, send_lock, reply)
            # drain and unknown tags need no answer (forward compatibility)
    finally:
        hb_stop.set()
        hb_thread.join(timeout=2 * heartbeat_interval)
    return completed


def _engine_unavailable_reason(
    engine: str, config: RaidGroupConfig
) -> Optional[str]:
    """Why this host cannot run ``engine`` for ``config``, or None if it can."""
    if engine == "compiled":
        from .compiled import compiled_engine_unsupported_reason

        reason = compiled_engine_unsupported_reason(config)
        if reason is not None:
            return f"compiled engine unavailable on this host: {reason}"
    elif engine == "batch":
        reason = config.batch_engine_unsupported_reason
        if reason is not None:
            return f"batch engine cannot run this config: {reason}"
    return None


# ----------------------------------------------------------------------
# Coordinator side.
class _WorkerLink:
    """Coordinator-side state for one connected worker."""

    def __init__(self, sock: socket.socket, name: str) -> None:
        self.sock = sock
        self.name = name
        self.send_lock = threading.Lock()
        self.reader = FrameReader(sock)
        self.last_seen = time.monotonic()
        self.shards_committed = 0
        self.wall_seconds = 0.0
        self.rtt_total = 0.0
        # Sessions whose engine this worker rejected via init_err.
        self.rejected: Set[int] = set()

    def send(self, message: dict) -> None:
        send_frame(self.sock, self.send_lock, message)

    def stats(self) -> dict:
        return {
            "worker": self.name,
            "shards_committed": self.shards_committed,
            "wall_seconds": round(self.wall_seconds, 6),
            "mean_rtt_seconds": round(
                self.rtt_total / max(self.shards_committed, 1), 6
            ),
        }


class RemoteWorkerHub:
    """Accept `repro worker` connections and feed them the active run.

    The hub outlives individual runs: `repro serve` creates one hub and
    every cold job registers its :class:`~repro.simulation.executor.ShardExecutor`
    as the active *session*; between sessions connected workers idle on
    ``drain`` frames.  One hub thread accepts connections; one thread per
    worker alternates between idling and driving the active session's
    claim/await-result loop.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        *,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
    ) -> None:
        host, port = parse_endpoint(bind)
        self.heartbeat_timeout = heartbeat_timeout
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(_POLL_SECONDS)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Condition()
        self._links: Dict[str, _WorkerLink] = {}
        self._session: Optional[ShardExecutor] = None
        self._epoch = 0
        # Init barrier: links connected at register() that have not yet
        # answered the session's init, and when the barrier gives up.
        self._awaiting_init: Set[str] = set()
        self._init_deadline = 0.0
        self._closed = threading.Event()
        self._threads: List[threading.Thread] = []
        self._seq = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def register(self, session: ShardExecutor) -> int:
        """Make ``session`` the active run; returns its epoch stamp.

        One distributed run owns the worker fleet at a time; concurrent
        runs (e.g. two service jobs) queue here until the active one
        unregisters.  Every worker connected now must answer the run's
        init before any worker claims a shard (see :meth:`_await_init`).
        """
        with self._lock:
            while self._session is not None:
                if self._closed.is_set():
                    raise SimulationError("RemoteWorkerHub is closed")
                self._lock.wait(_POLL_SECONDS)
            self._epoch += 1
            self._session = session
            self._awaiting_init = set(self._links)
            self._init_deadline = time.monotonic() + self.heartbeat_timeout
            self._lock.notify_all()  # idle links send the init at once
            return self._epoch

    def unregister(self, session: ShardExecutor) -> None:
        with self._lock:
            if self._session is session:
                self._session = None
                self._lock.notify_all()

    def n_workers(self) -> int:
        with self._lock:
            return len(self._links)

    def wait_for_workers(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` workers are connected (for tests/benches)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.n_workers() >= n:
                return True
            if self._closed.wait(0.02):
                return False
        return self.n_workers() >= n

    def drop(self, name: str) -> bool:
        """Chaos hook: hard-close a worker's socket mid-whatever."""
        with self._lock:
            link = self._links.get(name)
        if link is None:
            return False
        try:
            link.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            link.sock.close()
        except OSError:
            pass
        return True

    def stats(self) -> dict:
        with self._lock:
            links = list(self._links.values())
            active = self._session is not None
        return {
            "address": self.address,
            "active_session": active,
            "workers": [link.stats() for link in links],
        }

    def close(self) -> None:
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            self._lock.notify_all()
            links = list(self._links.values())
        for link in links:
            try:
                link.sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "RemoteWorkerHub":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._seq += 1
                name = f"remote-{self._seq}@{addr[0]}"
            thread = threading.Thread(
                target=self._link_loop,
                args=(sock, name),
                name=f"repro-hub-{name}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _link_loop(self, sock: socket.socket, name: str) -> None:
        link = _WorkerLink(sock, name)
        try:
            hello = link.reader.read(timeout=10.0)
            if not hello or hello.get("t") != "hello":
                return
            if int(hello.get("v", -1)) != PROTOCOL_VERSION:
                return
            base = f"{hello.get('host', '?')}:{hello.get('pid', '?')}"
            link.last_seen = time.monotonic()
            with self._lock:
                # A reconnecting worker reuses its host:pid identity; two
                # *live* links with the same identity (threads sharing a
                # pid in tests) get a disambiguating suffix.
                name = base
                suffix = 1
                while name in self._links:
                    suffix += 1
                    name = f"{base}#{suffix}"
                link.name = name
                self._links[name] = link
            while not self._closed.is_set():
                with self._lock:
                    session = self._session
                    epoch = self._epoch
                if session is None or epoch in link.rejected or not session.accepting():
                    # No run, or one this worker cannot serve: stay warm.
                    if not self._idle(link, epoch):
                        return
                    continue
                self._drive(link, session, epoch)
        except (ConnectionError, OSError):
            pass
        finally:
            with self._lock:
                if self._links.get(name) is link:
                    del self._links[name]
                self._awaiting_init.discard(name)
                self._lock.notify_all()
            try:
                sock.close()
            except OSError:
                pass

    def _idle(self, link: _WorkerLink, epoch: int) -> bool:
        """No run this worker can serve: keep the link warm and liveness
        fresh, waking at once when the next run registers."""
        try:
            link.send({"t": "drain"})
            with self._lock:
                if self._epoch == epoch and not self._closed.is_set():
                    self._lock.wait(_POLL_SECONDS)
            message = link.reader.read(0.001)  # a frame that already arrived
        except (ConnectionError, OSError):
            return False
        if message is not None:
            link.last_seen = time.monotonic()
        return True

    def _drive(
        self, link: _WorkerLink, session: ShardExecutor, epoch: int
    ) -> None:
        """Run one worker against the active session until it ends.

        Any socket error or heartbeat staleness abandons the claimed
        shard back to the session's queue (charged one retry) and
        propagates as ConnectionError to drop the link.
        """
        from ..validation.generator import config_to_dict

        link.send(
            {
                "t": "init",
                "epoch": epoch,
                "engine": session.engine,
                "config": config_to_dict(session.config),
                "root_state": session.root_state,
            }
        )
        link.last_seen = time.monotonic()
        answer = self._await_frame(link, epoch, ("init_ok", "init_err"))
        if answer["t"] == "init_err":
            link.rejected.add(epoch)  # this worker sits the run out
        if not self._await_init(link, session, epoch):
            return
        # Waiting at the barrier read nothing from this link.
        link.last_seen = time.monotonic()

        while session.accepting():
            task = session.claim(link.name)
            if task is None:
                # Nothing claimable: wait on the link itself, whose
                # heartbeats keep its liveness fresh.
                message = link.reader.read(_POLL_SECONDS)
                if message is not None:
                    link.last_seen = time.monotonic()
                elif time.monotonic() - link.last_seen > self.heartbeat_timeout:
                    raise ConnectionError("worker heartbeat timed out while idle")
                continue
            sent_at = time.perf_counter()
            try:
                link.send(
                    {
                        "t": "task",
                        "epoch": epoch,
                        "index": task.index,
                        "group_offset": task.group_offset,
                        "n_groups": task.n_groups,
                    }
                )
                result = self._await_frame(
                    link, epoch, ("result", "task_err"), task.index, session
                )
            except (ConnectionError, OSError) as exc:
                session.abandon(task, f"{link.name}: {exc}")
                raise ConnectionError(str(exc)) from exc
            if result is None:
                # Session stopped accepting while the shard was in
                # flight (convergence drain): discard, don't commit.
                session.abandon(task, "drained", charge=False)
                return
            if result.get("t") == "task_err":
                # The shard raised deterministically on the worker —
                # retrying it elsewhere would fail identically, so fail
                # the run with the real error (the local pool's
                # _harvest semantics) instead of burning retries.
                session.fail(
                    SimulationError(
                        f"shard {task.index} raised on {link.name}: "
                        f"{result.get('error')}"
                    )
                )
                return
            chronologies = [
                chronology_from_dict(c) for c in result["chronologies"]
            ]
            rtt = time.perf_counter() - sent_at
            link.shards_committed += 1
            link.wall_seconds += float(result["wall_seconds"])
            link.rtt_total += rtt
            session.complete(
                task,
                chronologies,
                float(result["wall_seconds"]),
                worker=link.name,
                rtt_seconds=rtt,
            )

    def _await_init(
        self, link: _WorkerLink, session: ShardExecutor, epoch: int
    ) -> bool:
        """Mark ``link``'s init answered, then hold until every link
        connected at :meth:`register` has answered too, or the heartbeat
        timeout since registration passed.

        Without this barrier the first link to finish its handshake can
        drain a short plan before the others' ``init_ok`` arrives.
        Returns whether ``link`` may claim shards of ``session``.
        """
        with self._lock:
            self._awaiting_init.discard(link.name)
            self._lock.notify_all()
            if epoch in link.rejected:
                return False
            while self._awaiting_init and self._session is session:
                remaining = self._init_deadline - time.monotonic()
                if remaining <= 0 or self._closed.is_set():
                    break
                self._lock.wait(remaining)
            return self._session is session

    def _await_frame(
        self,
        link: _WorkerLink,
        epoch: int,
        tags: Tuple[str, ...],
        index: Optional[int] = None,
        session: Optional[ShardExecutor] = None,
    ) -> Optional[dict]:
        """Read ``link`` until its ``tags`` frame for ``epoch`` (and shard
        ``index``) arrives; None if ``session`` stops accepting first.

        Staleness-based: a worker still finishing a long stale shard from
        a previous session heartbeats (and may push stale frames) first —
        any traffic proves it alive, so only silence past the heartbeat
        timeout drops it.
        """
        while True:
            message = link.reader.read(_POLL_SECONDS)
            if message is not None:
                link.last_seen = time.monotonic()
                if (
                    message.get("t") in tags
                    and int(message.get("epoch", -1)) == epoch
                    and (index is None or int(message.get("index", -1)) == index)
                ):
                    return message
            elif time.monotonic() - link.last_seen > self.heartbeat_timeout:
                raise ConnectionError(
                    f"worker heartbeat timed out awaiting {tags[0]}"
                    + ("" if index is None else f" for shard {index}")
                )
            elif session is not None and not session.accepting():
                return None


#: The distributed executor's former name; the same class.
DistributedShardExecutor = ShardExecutor


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "parse_endpoint",
    "chronology_to_dict",
    "chronology_from_dict",
    "send_frame",
    "FrameReader",
    "run_worker",
    "RemoteWorkerHub",
    "DistributedShardExecutor",
]
