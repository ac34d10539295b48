"""The shard executor every fleet run goes through.

``MonteCarloRunner.run_streaming`` (and ``run()``, which is a streaming
run that keeps its chronologies) advances a fleet in seeded shards and
commits each shard's chronologies into a
:class:`~repro.simulation.streaming.FleetAccumulator` **strictly in shard
order** — that ordering is what makes checkpoint/resume bit-identical and
a converged run replayable.  Nothing about the *simulation* of a shard is
order-dependent, though: every shard's random streams are a pure function
of its index (one spawned :class:`~numpy.random.SeedSequence` child per
shard for the batch engine, one per group for the event engine), so
shards may be computed out of order, in any process, on any host, and the
results are byte-identical as long as they are *committed* in order.

:class:`ShardExecutor` exploits exactly that split.  One work queue holds
the plan's unclaimed shard indices; three *lanes* claim from it:

* **inline** (``n_jobs == 1`` and no hub) — the consumer simulates the
  next shard in its own thread;
* **pool** (otherwise, when ``n_jobs >= 1``) — a persistent
  ``spawn``-context :class:`~concurrent.futures.ProcessPoolExecutor`
  speculatively simulates shards ahead of the commit cursor, at most
  ``n_jobs`` submitted but not yet committed.  The consumer drives it
  from its own thread: pool futures wake it through the executor's one
  condition variable, and it harvests results and rebuilds a broken pool
  itself;
* **remote** (a :class:`~repro.simulation.remote.RemoteWorkerHub`) — the
  hub's link threads claim shards for connected ``repro worker``
  processes and hand results back through :meth:`ShardExecutor.complete`.

Whatever lane simulated a shard, :meth:`ShardExecutor.outcomes` yields it
in plan order; one ledger charges every lost attempt — a broken local
pool or a dropped remote link — against ``max_retries``.  ``DESIGN.md``
§4e has the rules in full.
"""

from __future__ import annotations

import dataclasses
import heapq
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from ..exceptions import SimulationError
from .batch import next_shard_size, simulate_groups_batch
from .compiled import simulate_groups_compiled
from .config import RaidGroupConfig
from .raid_simulator import GroupChronology, RaidGroupSimulator

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from .remote import RemoteWorkerHub

#: Times a shard whose worker died is re-run before the run gives up.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Upper bound on any condition wait; every state change also notifies.
_POLL_SECONDS = 0.25


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One schedulable unit of a streaming run.

    ``index`` is the global shard index (counting resumed-from shards),
    ``group_offset`` the global index of the shard's first group; both
    fully determine the shard's random streams, so a task can be executed
    anywhere, any number of times, with identical results.
    """

    index: int
    group_offset: int
    n_groups: int


@dataclasses.dataclass
class ShardOutcome:
    """A simulated shard delivered to the commit loop, plus telemetry.

    Attributes
    ----------
    task:
        The shard that was simulated.
    chronologies:
        Its per-group chronologies, in group order.
    wall_seconds:
        Worker-side simulation wall time (queue wait excluded).
    queue_depth:
        Shards still in flight after this one was delivered.
    commit_lag_seconds:
        Time this shard's finished result waited before the commit
        cursor reached it.
    retries:
        Times this shard was re-run after a worker death.
    worker:
        Which worker simulated the committed copy — ``"local"`` for the
        inline and pool lanes, ``host:pid`` for a remote worker.
    rtt_seconds:
        Coordinator-side round trip (send task → receive result) for
        remote workers; 0 for local execution.
    """

    task: ShardTask
    chronologies: List[GroupChronology]
    wall_seconds: float
    queue_depth: int = 0
    commit_lag_seconds: float = 0.0
    retries: int = 0
    worker: str = "local"
    rtt_seconds: float = 0.0


def shard_plan(
    shards_done: int, groups_done: int, target_groups: int, shard_size: int
) -> List[ShardTask]:
    """The remaining shard tasks toward a target fleet.

    Pure function of the cursor and target: full shards until the
    remainder (see :func:`~repro.simulation.batch.next_shard_size`), so
    the plan actually executed is always a prefix of the plan for any
    larger target and per-shard seeding never depends on when a run
    stops or resumes.
    """
    tasks: List[ShardTask] = []
    index, offset = shards_done, groups_done
    while True:
        n = next_shard_size(offset, target_groups, shard_size)
        if n == 0:
            return tasks
        tasks.append(ShardTask(index=index, group_offset=offset, n_groups=n))
        index += 1
        offset += n


# ----------------------------------------------------------------------
# Worker side.  The pool initializer pins the per-run constants once per
# worker process; task submissions then carry only the (tiny) ShardTask.
_worker_config: Optional[RaidGroupConfig] = None
_worker_root_state: Optional[dict] = None
_worker_engine: str = "event"


def _init_shard_worker(config: RaidGroupConfig, root_state: dict, engine: str) -> None:
    """Pool initializer: stash the run constants in the worker process."""
    global _worker_config, _worker_root_state, _worker_engine
    _worker_config = config
    _worker_root_state = root_state
    _worker_engine = engine


def _child_seed(root_state: dict, index: int) -> np.random.SeedSequence:
    """The root's ``index``-th spawned child, rebuilt without spawning.

    ``SeedSequence.spawn`` hands child *k* the spawn key
    ``root.spawn_key + (k,)``; reconstructing from the index alone is what
    lets shards execute out of order yet consume identical streams.
    """
    return np.random.SeedSequence(
        entropy=root_state["entropy"],
        spawn_key=tuple(root_state["spawn_key"]) + (index,),
        pool_size=root_state["pool_size"],
    )


def simulate_shard(
    config: RaidGroupConfig,
    root_state: dict,
    engine: str,
    task: ShardTask,
) -> List[GroupChronology]:
    """Simulate one shard from its indices alone (pure, order-free).

    Batch/compiled engines: one root child per shard (child
    ``task.index``).  Event engine: one root child per group (children
    ``task.group_offset`` through ``task.group_offset + task.n_groups -
    1``).  Every lane simulates through this function.
    """
    if engine in ("batch", "compiled"):
        rng = np.random.Generator(np.random.PCG64(_child_seed(root_state, task.index)))
        kernel = (
            simulate_groups_compiled if engine == "compiled" else simulate_groups_batch
        )
        return kernel(config, task.n_groups, rng)
    simulator = RaidGroupSimulator(config)
    return [
        simulator.run(
            np.random.Generator(
                np.random.PCG64(_child_seed(root_state, task.group_offset + i))
            )
        )
        for i in range(task.n_groups)
    ]


def _timed(
    simulate: Callable[..., List[GroupChronology]], *args: object
) -> "Tuple[List[GroupChronology], float]":
    """``(simulate(*args), wall seconds)`` — a shard's result as lanes report it."""
    start = time.perf_counter()
    chronologies = simulate(*args)
    return chronologies, time.perf_counter() - start


def _run_shard_task(task: ShardTask) -> "Tuple[List[GroupChronology], float]":
    """Default pool worker: one shard with the worker process's run constants."""
    return _timed(
        simulate_shard, _worker_config, _worker_root_state, _worker_engine, task
    )


#: Worker signature: ShardTask -> (chronologies, wall_seconds).
ShardWorker = Callable[[ShardTask], "Tuple[List[GroupChronology], float]"]


def _finished(future: Future) -> bool:
    """Did this future produce a result (not a crash or a cancellation)?"""
    return future.done() and not future.cancelled() and future.exception() is None


# ----------------------------------------------------------------------
class ShardExecutor:
    """In-order delivery of shards simulated by the inline, pool and
    remote lanes (see the module docstring).

    :meth:`outcomes` yields one :class:`ShardOutcome` per planned shard,
    in plan order; all cross-thread state lives behind one condition
    variable.  Closing the generator (e.g. once a precision target
    converges) discards everything still in flight.

    ``n_jobs`` is the local lane's width: 1 without a hub runs inline,
    otherwise a pool of ``n_jobs`` processes; 0 (only with a ``hub``)
    leaves every shard to remote workers.  ``worker`` replaces the
    function a local lane runs per shard (tests inject crashes with it).
    """

    def __init__(
        self,
        config: RaidGroupConfig,
        root_state: dict,
        engine: str,
        n_jobs: int,
        *,
        hub: "Optional[RemoteWorkerHub]" = None,
        max_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        worker: Optional[ShardWorker] = None,
    ) -> None:
        least = 0 if hub is not None else 1
        if n_jobs < least:
            raise SimulationError(f"n_jobs must be >= {least}, got {n_jobs!r}")
        if max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {max_retries!r}")
        self.config = config
        self.root_state = root_state
        self.engine = engine
        self.n_jobs = n_jobs
        self.hub = hub
        self.max_retries = max_retries
        self.pool_breaks = 0
        self._worker = worker
        self._inline = n_jobs == 1 and hub is None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._cond = threading.Condition()
        self._wake = False  # a notification the consumer has not yet seen
        self._queue: List[int] = []  # heap of unclaimed shard indices
        self._by_index: Dict[int, ShardTask] = {}  # uncommitted planned shards
        self._claimed: Dict[int, str] = {}  # claimed, unfinished -> claimant
        self._results: Dict[int, object] = {}  # finished, uncommitted
        self._retries: Dict[int, int] = {}
        self._done_at: Dict[int, float] = {}
        self._local: Set[int] = set()  # pool-lane shards not yet committed
        self._futures: Dict[int, Future] = {}  # pool-lane shards not harvested
        self._committed: List[ShardOutcome] = []  # telemetry, chronologies dropped
        self._error: Optional[BaseException] = None
        self._stopped = False

    @property
    def mode(self) -> str:
        """``serial`` (inline lane), ``pipelined`` or ``distributed``."""
        if self.hub is not None:
            return "distributed"
        return "serial" if self._inline else "pipelined"

    # ------------------------------------------------------------------
    # Shared-queue API (called by the lanes, including hub link threads).
    def accepting(self) -> bool:
        with self._cond:
            return not self._stopped and self._error is None and bool(self._by_index)

    def claim(self, claimant: str, timeout: float = 0.0) -> Optional[ShardTask]:
        """Pop the lowest unclaimed shard, or None if none within timeout."""
        with self._cond:
            if not self._queue and timeout > 0:
                self._cond.wait(timeout)
            if self._stopped or self._error is not None or not self._queue:
                return None
            index = heapq.heappop(self._queue)
            self._claimed[index] = claimant
            return self._by_index[index]

    def complete(
        self,
        task: ShardTask,
        chronologies: List[GroupChronology],
        wall_seconds: float,
        *,
        worker: str,
        rtt_seconds: float = 0.0,
    ) -> None:
        """Hand in a claimed shard's result for in-order commit."""
        self._finish(task.index, (chronologies, wall_seconds, worker, rtt_seconds))

    def abandon(self, task: ShardTask, reason: str, *, charge: bool = True) -> None:
        """Return a claimed shard to the queue after its worker was lost.

        Charged one retry unless ``charge=False`` (a convergence drain,
        or a shard that never reached a worker).
        """
        with self._cond:
            if task.index not in self._by_index or task.index in self._results:
                return
            self._claimed.pop(task.index, None)
            self._done_at.pop(task.index, None)
            if self._stopped or (charge and not self._charge(task.index, reason)):
                return
            heapq.heappush(self._queue, task.index)
            self._notify()

    def fail(self, error: BaseException) -> None:
        """Fail the run (a shard raised deterministically)."""
        with self._cond:
            if self._error is None:
                self._error = error
            self._notify()

    def _finish(self, index: int, result: object) -> None:
        """Record a shard's result — or its deterministic error, raised
        only when the commit cursor reaches the shard."""
        with self._cond:
            if index not in self._by_index or index in self._results:
                return  # stale duplicate (e.g. completed after a reassignment)
            self._claimed.pop(index, None)
            self._results[index] = result
            self._done_at.setdefault(index, time.perf_counter())
            self._notify()

    def _charge(self, index: int, reason: str) -> bool:
        """The retry ledger: count one lost attempt at shard ``index``.

        Past ``max_retries`` the run's error is set and False returned.
        Call with the condition held.
        """
        count = self._retries.get(index, 0) + 1
        self._retries[index] = count
        if count <= self.max_retries:
            return True
        self._error = SimulationError(
            f"shard {index} was lost to a dying worker {count} times "
            f"(last: {reason}; max_retries={self.max_retries}); "
            "giving up on this run"
        )
        self._notify()
        return False

    def _notify(self) -> None:
        """Wake every waiter; call with the condition held."""
        self._wake = True
        self._cond.notify_all()

    # ------------------------------------------------------------------
    def outcomes(self, plan: Iterable[ShardTask]) -> Iterator[ShardOutcome]:
        """Yield every planned shard's outcome, in order.

        The remote lane joins when the generator registers with the hub;
        the pool is created on first use.  Both are released when the
        plan is exhausted, the consumer closes the generator, or an
        error escapes.
        """
        tasks = list(plan)
        if not tasks:
            return
        with self._cond:
            self._by_index = {task.index: task for task in tasks}
            self._queue = sorted(self._by_index)  # a sorted list is a heap
            for state in (self._claimed, self._results, self._retries, self._done_at):
                state.clear()
            self._committed.clear()
            self._error = None
            self._stopped = False
        try:
            if self.hub is not None:
                # The local lane claims its first shards before remote
                # links can; they join once the hub makes this the session.
                self._fill()
                self.hub.register(self)
            for task in tasks:
                yield self._commit(task)
        finally:
            with self._cond:
                self._stopped = True
                self._by_index.clear()
                self._queue.clear()
                self._notify()
            if self.hub is not None:
                self.hub.unregister(self)
            self.close()

    def _commit(self, task: ShardTask) -> ShardOutcome:
        """Drive the local lane until ``task`` has a result; take it."""
        index = task.index
        while True:
            if self._inline:
                self._run_inline()
            elif self.n_jobs:
                self._fill()
                self._harvest()
            with self._cond:
                if index in self._results:
                    result = self._results.pop(index)
                    del self._by_index[index]
                    self._local.discard(index)
                    in_flight = len(self._claimed) + len(self._results)
                    finished_at = self._done_at.pop(index, None)
                    retries = self._retries.get(index, 0)
                    break
                if self._error is not None:
                    raise self._error
                if not self._wake:
                    self._cond.wait(_POLL_SECONDS)
                self._wake = False
        if isinstance(result, BaseException):
            raise result
        chronologies, wall_seconds, worker, rtt_seconds = result
        committed_at = time.perf_counter()
        outcome = ShardOutcome(
            task=task,
            chronologies=chronologies,
            wall_seconds=wall_seconds,
            queue_depth=in_flight,
            commit_lag_seconds=max(0.0, committed_at - (finished_at or committed_at)),
            retries=retries,
            worker=worker,
            rtt_seconds=rtt_seconds,
        )
        self._committed.append(dataclasses.replace(outcome, chronologies=[]))
        return outcome

    def stats(self) -> Dict[str, object]:
        """JSON-safe telemetry of the shards committed so far (the run
        manifest's ``executor`` section)."""
        done = self._committed
        shards = max(len(done), 1)
        busy = sum(o.wall_seconds for o in done)
        groups = sum(o.task.n_groups for o in done)
        workers: Dict[str, Dict[str, float]] = {}
        for o in done:
            row = workers.setdefault(
                o.worker, {"shards": 0, "groups": 0, "wall": 0.0, "rtt": 0.0}
            )
            row["shards"] += 1
            row["groups"] += o.task.n_groups
            row["wall"] += o.wall_seconds
            row["rtt"] += o.rtt_seconds
        return {
            "mode": self.mode,
            "n_jobs": self.n_jobs,
            "shards_committed": len(done),
            "groups_committed": groups,
            # Per-worker kernel throughput from the workers' own monotonic
            # clocks (sum of shard wall times), not wall-clock deltas in
            # this process — so it stays honest when shards run
            # concurrently.
            "groups_per_second": groups / busy if busy > 0 else 0.0,
            "shard_seconds_mean": busy / shards,
            "shard_seconds_max": max((o.wall_seconds for o in done), default=0.0),
            "commit_lag_seconds_mean": sum(o.commit_lag_seconds for o in done) / shards,
            "commit_lag_seconds_max": max(
                (o.commit_lag_seconds for o in done), default=0.0
            ),
            "queue_depth_max": max((o.queue_depth for o in done), default=0),
            "discarded_in_flight": done[-1].queue_depth if done else 0,
            "shard_retries": sum(o.retries for o in done),
            "pool_breaks": self.pool_breaks,
            # One "local" row for the inline and pool lanes; one host:pid
            # row per remote worker that committed shards.
            "workers": {
                name: {
                    "shards_committed": int(row["shards"]),
                    "groups_committed": int(row["groups"]),
                    "wall_seconds": row["wall"],
                    "mean_rtt_seconds": row["rtt"] / row["shards"],
                }
                for name, row in sorted(workers.items())
            },
        }

    # ------------------------------------------------------------------
    # Local lanes (run in the consumer's thread).
    def _run_inline(self) -> None:
        task = self.claim("local")
        if task is not None:
            if self._worker is not None:
                chronologies, wall_seconds = self._worker(task)
            else:
                chronologies, wall_seconds = _timed(
                    simulate_shard, self.config, self.root_state, self.engine, task
                )
            self.complete(task, chronologies, wall_seconds, worker="local")

    def _make_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.n_jobs,
            mp_context=get_context("spawn"),
            initializer=_init_shard_worker,
            initargs=(self.config, self.root_state, self.engine),
        )

    def _submit(self, task: ShardTask) -> Future:
        assert self._pool is not None
        future = self._pool.submit(self._worker or _run_shard_task, task)
        future.add_done_callback(lambda f, i=task.index: self._pool_done(i, f))
        return future

    def _pool_done(self, index: int, future: Future) -> None:
        """Pool future callback: stamp the finish time, wake the consumer."""
        with self._cond:
            if self._futures.get(index) is future:
                self._done_at.setdefault(index, time.perf_counter())
            self._notify()

    def _fill(self) -> None:
        """Claim and submit until ``n_jobs`` pool shards are uncommitted."""
        while len(self._local) < self.n_jobs:
            task = self.claim("local")
            if task is None:
                return
            if self._pool is None:
                self._pool = self._make_pool()
            self._local.add(task.index)
            try:
                self._futures[task.index] = self._submit(task)
            except BrokenProcessPool:
                # A worker died between the last result and this submit,
                # so the break surfaces here instead of in result(); the
                # shard never ran, so it goes back to the queue uncharged.
                self._local.discard(task.index)
                self.abandon(task, "pool broke at submit", charge=False)
                self._recover()

    def _harvest(self) -> None:
        """Record every finished pool future; recover from a pool break."""
        broke = False
        for index, future in list(self._futures.items()):
            if not future.done():
                continue
            try:
                chronologies, wall_seconds = future.result()
            except BrokenProcessPool:
                broke = True
                continue
            except SimulationError as exc:
                self._finish(index, exc)
            except Exception as exc:
                error = SimulationError(f"shard {index} raised in its worker: {exc!r}")
                error.__cause__ = exc
                self._finish(index, error)
            else:
                self.complete(
                    self._by_index[index], chronologies, wall_seconds, worker="local"
                )
            del self._futures[index]
        if broke:
            self._recover()

    def _recover(self) -> None:
        """Rebuild the pool after a worker death and resubmit lost shards.

        A pool break kills every worker process, so any unharvested shard
        without a result is lost and reseeded from its index; results
        that finished before the break are kept.  Each lost shard is
        charged one retry — a shard that keeps killing its workers
        exhausts ``max_retries`` and fails the run.  The resubmission can
        hit a *second* break (the rebuilt pool dying before it lands), so
        the step loops, charging the still-lost shards again.
        """
        while True:
            self.pool_breaks += 1
            lost = sorted(i for i, f in self._futures.items() if not _finished(f))
            with self._cond:
                for index in lost:
                    self._done_at.pop(index, None)
                    if not self._charge(index, "local worker process died"):
                        raise self._error
            assert self._pool is not None
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = self._make_pool()
            try:
                for index in lost:
                    self._futures[index] = self._submit(self._by_index[index])
            except BrokenProcessPool:
                continue
            return

    def close(self) -> None:
        """Tear down the pool, discarding anything still in flight."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._futures.clear()
        self._local.clear()


#: The local executor's former name; the same class.
PipelinedShardExecutor = ShardExecutor
