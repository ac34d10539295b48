"""Fleet-level Monte Carlo runner.

Simulating 1,000 RAID groups for 10 years, as the paper does, is 1,000
independent replications of the group simulator.  The runner fans a single
seed out to per-replication streams, optionally across processes, and
aggregates chronologies into a :class:`~repro.simulation.results.SimulationResult`.

Two engines realise the replication (see ``DESIGN.md`` §"Simulation
engines"):

``"event"``
    The reference per-group Python event loop
    (:class:`~repro.simulation.raid_simulator.RaidGroupSimulator`).  One
    spawned seed per group; results are byte-identical for a fixed
    ``(config, n_groups, seed)`` regardless of ``n_jobs``.
``"batch"``
    The NumPy-vectorized lockstep engine
    (:mod:`~repro.simulation.batch`), advancing fixed-size shards of the
    fleet together.  One spawned seed per shard; results are
    byte-identical for a fixed ``(config, n_groups, seed)`` regardless of
    ``n_jobs``, but the engines' random streams differ, so the two
    engines agree in distribution rather than sample for sample.
``"compiled"``
    The Numba-JIT kernel (:mod:`~repro.simulation.compiled`): the batch
    engine's shard structure and seeding with a nopython per-group event
    loop.  Needs the optional ``[speed]`` extra (numba); byte-
    reproducible on its own stream order, statistically equivalent to
    the other engines.
``"auto"``
    ``"compiled"`` when numba is importable and the configuration
    supports the vectorized kernels
    (:attr:`~repro.simulation.config.RaidGroupConfig.supports_batch_engine`),
    else ``"batch"`` when the configuration supports it, else
    ``"event"``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

import numpy as np

from .._validation import require_int
from ..exceptions import ParameterError, SimulationError
# simulate_groups_batch stays importable from here: perfbench/serve_entry.py
# wraps this module's name when it traces the query workload.
from .batch import BATCH_SHARD_SIZE, simulate_groups_batch  # noqa: F401
from .checkpoint import (
    RunCheckpoint,
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from .compiled import MISSING_NUMBA_HINT, compiled_kernel_available
from .config import RaidGroupConfig
from .executor import (
    DEFAULT_MAX_SHARD_RETRIES,
    ShardExecutor,
    ShardWorker,
    _timed,
    shard_plan,
)
from .raid_simulator import GroupChronology
from .results import SimulationResult
from .rng import make_seed_sequence
from .streaming import (
    FleetAccumulator,
    Precision,
    ProgressEvent,
    RunObserver,
    StreamingResult,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import, avoids a cycle
    from .remote import RemoteWorkerHub

#: Engine names accepted by :class:`MonteCarloRunner`.
ENGINES = ("event", "batch", "compiled", "auto")

#: The concrete engines sharing the batch shard/seeding structure (one
#: spawned SeedSequence child per shard; the event engine spawns one per
#: group).
_SHARDED_ENGINES = ("batch", "compiled")


def _seed_state(seq: np.random.SeedSequence) -> dict:
    """Picklable reconstruction kwargs for a SeedSequence."""
    return {
        "entropy": seq.entropy,
        "spawn_key": seq.spawn_key,
        "pool_size": seq.pool_size,
    }


@dataclasses.dataclass
class MonteCarloRunner:
    """Configured fleet simulation.

    Attributes
    ----------
    config:
        The RAID group design under study.
    n_groups:
        Fleet size (the paper uses 1,000; estimates scale accordingly).
    seed:
        Root seed; identical (config, n_groups, seed, engine) tuples
        reproduce byte-identical results.
    n_jobs:
        Local worker processes.  Never changes numeric results, only
        wall-clock.  Every run executes its shards through the one
        :class:`~repro.simulation.executor.ShardExecutor`: 1 (default)
        simulates them in-process, more keeps a speculative pool of
        ``n_jobs`` processes at most ``n_jobs`` shards ahead of the
        in-order commit, on every engine.  0 is allowed only for
        distributed streaming runs (``run_streaming(workers=...)``) and
        means "no local shard pool": every shard is simulated by a
        remote worker.
    engine:
        ``"event"`` (default, the reference per-group event loop),
        ``"batch"`` (the vectorized lockstep engine), ``"compiled"``
        (the Numba-JIT kernel; needs the ``[speed]`` extra), or
        ``"auto"`` (``"compiled"`` when numba is importable and the
        config supports the vectorized kernels, else ``"batch"`` when
        the config supports it, else ``"event"``).
    """

    config: RaidGroupConfig
    n_groups: int = 1000
    seed: Optional[int] = 0
    n_jobs: int = 1
    engine: str = "event"

    def __post_init__(self) -> None:
        require_int("n_groups", self.n_groups, minimum=1)
        # 0 = remote-only streaming (no local shard pool); validated
        # against non-distributed use at run time.
        require_int("n_jobs", self.n_jobs, minimum=0)
        if self.engine not in ENGINES:
            raise ParameterError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.engine in _SHARDED_ENGINES:
            reason = self.config.batch_engine_unsupported_reason
            if reason is not None:
                raise ParameterError(
                    f"engine={self.engine!r} cannot run this config: {reason}"
                )
        if self.engine == "compiled" and not compiled_kernel_available():
            raise SimulationError(MISSING_NUMBA_HINT)

    # ------------------------------------------------------------------
    def resolve_engine(self) -> str:
        """The concrete engine a :meth:`run` call will use."""
        if self.engine == "auto":
            if self.config.supports_batch_engine:
                return "compiled" if compiled_kernel_available() else "batch"
            return "event"
        return self.engine

    def run(self, until: "Union[Precision, float, None]" = None) -> SimulationResult:
        """Simulate the fleet and aggregate.

        A streaming run that keeps its chronologies
        (``run_streaming(until=until, keep_chronologies=True).result``).

        Parameters
        ----------
        until:
            Optional convergence target (a
            :class:`~repro.simulation.streaming.Precision` or a bare
            relative CI width).  When given, the fleet grows in seeded
            shards until the mission-DDF-rate CI is tight enough, with
            :attr:`n_groups` as the hard cap; the returned result carries
            the streaming statistics on
            :attr:`~repro.simulation.results.SimulationResult.streaming`
            (``None`` for a fixed-size run).
        """
        result = self.run_streaming(until=until, keep_chronologies=True).result
        assert isinstance(result, SimulationResult)
        if until is None:
            result.streaming = None  # a fixed-size run reports no stopping
        return result

    # ------------------------------------------------------------------
    def run_streaming(
        self,
        until: "Union[Precision, float, None]" = None,
        *,
        checkpoint_path: Optional[str] = None,
        resume_from: "Union[str, RunCheckpoint, None]" = None,
        observers: Sequence[RunObserver] = (),
        keep_chronologies: bool = False,
        shard_size: int = BATCH_SHARD_SIZE,
        time_grid: Optional[Sequence[float]] = None,
        stop_after_shards: Optional[int] = None,
        max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
        workers: "Union[str, RemoteWorkerHub, None]" = None,
        _shard_runner: Optional[Callable[[int, int], List[GroupChronology]]] = None,
        _shard_worker: Optional[ShardWorker] = None,
    ) -> StreamingResult:
        """Simulate shard-by-shard through streaming accumulators.

        The fleet is advanced in seeded shards of ``shard_size`` groups
        (the last shard truncated to the target), each shard's
        chronologies folded into a
        :class:`~repro.simulation.streaming.FleetAccumulator` and then
        discarded (unless ``keep_chronologies``).  Each shard is seeded
        from its index alone — one :class:`~numpy.random.SeedSequence`
        child of the root per group (event engine) or per shard (batch
        and compiled engines) — so a converged run is reproducible from
        ``(config, seed, engine, shards_run)``.

        The shards are executed by a
        :class:`~repro.simulation.executor.ShardExecutor`: inline for
        ``n_jobs == 1``, otherwise by a persistent ``spawn``-context
        worker pool that speculatively simulates up to ``n_jobs`` shards
        ahead, plus remote workers when ``workers`` is given, while this
        process commits results strictly in shard order — so parallel
        and distributed runs are **bit-identical** to serial ones on
        every engine, including checkpoints, resume, and convergence
        stopping (in-flight shards past the stopping shard are discarded
        as if never run).

        Parameters
        ----------
        until:
            Convergence target; ``None`` runs exactly :attr:`n_groups`
            groups.  A target without ``max_groups`` is capped at
            :attr:`n_groups`.
        checkpoint_path:
            When given, an atomically rewritten JSON checkpoint after
            every completed shard (requires an integer :attr:`seed`).
        resume_from:
            Path to (or loaded) checkpoint to continue from; the
            accumulator and shard cursor are restored and simulation
            continues with the next shard, bit-identically to an
            uninterrupted run.
        observers:
            Callables receiving a
            :class:`~repro.simulation.streaming.ProgressEvent` after each
            shard (``done=True`` on the last).
        keep_chronologies:
            Also materialize every chronology and attach a
            :class:`~repro.simulation.results.SimulationResult`
            (incompatible with ``resume_from``, whose earlier shards are
            no longer materializable).
        shard_size:
            Groups per shard; the default matches the batch engine's
            kernel shards so streaming and materialized batch runs
            consume identical random streams.
        time_grid:
            Optional ages (hours) at which the accumulator tracks the
            cumulative fleet DDF curve.
        stop_after_shards:
            Stop (with ``stop_reason="interrupted"``) after this many
            shards *in this call* — the programmatic analogue of an
            interruption, used with ``checkpoint_path``/``resume_from``.
        max_shard_retries:
            How many times a shard whose worker process or remote link
            died is reseeded from its index and re-run before the run
            raises
            :class:`~repro.exceptions.SimulationError`.
        workers:
            Distribute shards over remote TCP workers as well: either an
            already-listening :class:`~repro.simulation.remote.RemoteWorkerHub`
            (e.g. the one ``repro serve`` owns) or a ``"host:port"``
            bind address, in which case an ephemeral hub is opened for
            this run and closed with it.  ``repro worker --connect``
            processes that dial the hub pull shards alongside the local
            pool; because every shard is reseeded from its index and
            commits stay in shard order, the distributed run is
            bit-identical to the serial one.
        """
        require_int("shard_size", shard_size, minimum=1)
        if stop_after_shards is not None:
            require_int("stop_after_shards", stop_after_shards, minimum=1)
        engine = self.resolve_engine()
        precision = (
            Precision.normalize(until, default_max_groups=self.n_groups)
            if until is not None
            else None
        )
        fixed_target = self.n_groups if precision is None else None
        cap = precision.max_groups if precision is not None else self.n_groups
        if (checkpoint_path is not None or resume_from is not None) and not isinstance(
            self.seed, int
        ):
            raise ParameterError(
                "checkpoint/resume requires an integer seed; an entropy-seeded "
                "run cannot be reproduced after an interruption"
            )
        if keep_chronologies and resume_from is not None:
            raise ParameterError(
                "keep_chronologies cannot be combined with resume_from: the "
                "checkpointed shards' chronologies were not retained"
            )

        accumulator = FleetAccumulator(self.config.mission_hours, time_grid=time_grid)
        shards_done = 0
        groups_done = 0
        prior_elapsed = 0.0
        if resume_from is not None:
            checkpoint = (
                resume_from
                if isinstance(resume_from, RunCheckpoint)
                else load_checkpoint(resume_from)
            )
            checkpoint.validate_against(self.config, self.seed, engine, shard_size)
            restored = checkpoint.accumulator()
            if time_grid is not None and (
                restored.time_grid is None
                or not np.array_equal(restored.time_grid, accumulator.time_grid)
            ):
                raise ParameterError(
                    "time_grid does not match the checkpointed accumulator"
                )
            accumulator = restored
            shards_done = checkpoint.shards_completed
            groups_done = checkpoint.groups_completed
            prior_elapsed = checkpoint.elapsed_seconds

        # The shard plan toward the cap is a pure function of the cursor,
        # so it is fixed up front; stopping merely truncates it.
        target = fixed_target if fixed_target is not None else cap
        plan = shard_plan(shards_done, groups_done, target, shard_size)
        hub: "Optional[RemoteWorkerHub]" = None
        owned_hub = False
        if workers is not None and _shard_runner is None and bool(plan):
            from .remote import RemoteWorkerHub

            if isinstance(workers, RemoteWorkerHub):
                hub = workers
            else:
                hub = RemoteWorkerHub(bind=workers)
                owned_hub = True
        if self.n_jobs == 0 and hub is None and bool(plan):
            raise ParameterError(
                "n_jobs=0 (no local shard pool) requires workers= — there "
                "would be nobody to simulate the shards"
            )
        n_jobs, worker = (self.n_jobs if plan else 1), _shard_worker
        if _shard_runner is not None:  # injected chronologies run inline
            runner = _shard_runner
            n_jobs, worker = 1, lambda task: _timed(runner, task.index, task.n_groups)
        executor = ShardExecutor(
            self.config,
            _seed_state(make_seed_sequence(self.seed)),
            engine,
            n_jobs,
            hub=hub,
            max_retries=max_shard_retries,
            worker=worker,
        )
        source = executor.outcomes(plan)

        kept: List[GroupChronology] = []
        start = time.perf_counter()
        shards_this_call = 0
        groups_at_start = groups_done
        stop_reason: Optional[str] = None
        converged = False
        try:
            if not plan:
                stop_reason = "fixed" if fixed_target is not None else "max_groups"
            for outcome in source:
                accumulator.add_shard(outcome.chronologies)
                if keep_chronologies:
                    kept.extend(outcome.chronologies)
                shards_done += 1
                shards_this_call += 1
                groups_done += outcome.task.n_groups

                converged = precision is not None and precision.satisfied_by(accumulator)
                if converged:
                    stop_reason = "converged"
                elif fixed_target is not None and groups_done >= fixed_target:
                    stop_reason = "fixed"
                elif precision is not None and groups_done >= cap:
                    stop_reason = "max_groups"
                elif (
                    stop_after_shards is not None
                    and shards_this_call >= stop_after_shards
                ):
                    stop_reason = "interrupted"

                elapsed = prior_elapsed + (time.perf_counter() - start)
                if checkpoint_path is not None:
                    save_checkpoint(
                        checkpoint_path,
                        RunCheckpoint(
                            fingerprint=config_fingerprint(self.config),
                            seed=self.seed,
                            engine=engine,
                            shard_size=shard_size,
                            shards_completed=shards_done,
                            groups_completed=groups_done,
                            accumulator_state=accumulator.to_dict(),
                            elapsed_seconds=elapsed,
                        ),
                    )
                if observers:
                    confidence = 0.95 if precision is None else precision.confidence
                    estimate, lo, hi = accumulator.ddfs_per_thousand_ci(confidence)
                    event = ProgressEvent(
                        shards_completed=shards_done,
                        groups_completed=groups_done,
                        total_ddfs=accumulator.total_ddfs,
                        ddfs_per_1000=estimate,
                        ci_lo=lo,
                        ci_hi=hi,
                        rel_ci_width=accumulator.relative_ci_width(confidence),
                        elapsed_seconds=elapsed,
                        groups_per_second=(groups_done - groups_at_start)
                        / max(elapsed - prior_elapsed, 1e-9),
                        converged=converged,
                        done=stop_reason is not None,
                        shard_seconds=outcome.wall_seconds,
                        queue_depth=outcome.queue_depth,
                        commit_lag_seconds=outcome.commit_lag_seconds,
                        shard_retries=outcome.retries,
                        shard_groups_per_second=(
                            outcome.task.n_groups / outcome.wall_seconds
                            if outcome.wall_seconds > 0
                            else 0.0
                        ),
                        shard_worker=outcome.worker,
                    )
                    for observer in observers:
                        observer(event)
                if stop_reason is not None:
                    break
        finally:
            source.close()
            if owned_hub and hub is not None:
                hub.close()

        streaming = StreamingResult(
            accumulator=accumulator,
            seed=self.seed if isinstance(self.seed, int) else None,
            engine=engine,
            shard_size=shard_size,
            shards_run=shards_done,
            groups=groups_done,
            converged=converged,
            stop_reason=stop_reason or "interrupted",
            precision=precision,
            elapsed_seconds=prior_elapsed + (time.perf_counter() - start),
            executor_stats=executor.stats(),
        )
        if keep_chronologies:
            result = SimulationResult(
                config=self.config,
                chronologies=kept,
                seed=self.seed if isinstance(self.seed, int) else None,
                engine=engine,
                streaming=streaming,
            )
            streaming.result = result
        return streaming


def simulate_raid_groups(
    config: RaidGroupConfig,
    n_groups: int = 1000,
    seed: Optional[int] = 0,
    n_jobs: int = 1,
    engine: str = "event",
    until: "Union[Precision, float, None]" = None,
) -> SimulationResult:
    """One-call fleet simulation.

    With ``until`` (a :class:`~repro.simulation.streaming.Precision` or a
    bare relative CI width), ``n_groups`` becomes the fleet-size cap and
    the run stops as soon as the DDF-rate CI is tight enough.

    Examples
    --------
    >>> from repro.simulation import RaidGroupConfig
    >>> result = simulate_raid_groups(
    ...     RaidGroupConfig.paper_base_case(), n_groups=50, seed=1)
    >>> result.n_groups
    50
    """
    return MonteCarloRunner(
        config=config, n_groups=n_groups, seed=seed, n_jobs=n_jobs, engine=engine
    ).run(until=until)
