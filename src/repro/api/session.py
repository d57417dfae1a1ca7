"""The `Session` facade: one entry point for every analysis.

A :class:`Session` owns the four cross-cutting concerns that every
analysis and experiment used to re-implement by hand:

* the characterized **technology** (defaults to the shared 40-nm kit);
* a **seed tree** (`SeedSequence`-based, legacy-stream compatible) that
  hands out every random stream;
* **backend selection** — compiled device-stacked assembly vs. generic
  per-element MNA — session-wide with per-spec override;
* the **plan cache** of compiled assemblies, injected into every
  circuit built through the session's device factories.

Analyses are described by frozen :mod:`repro.api.specs` dataclasses and
executed with :meth:`Session.run` (blocking) or :meth:`Session.submit`
(non-blocking, returning a :class:`~repro.api.futures.RunHandle`);
registry experiments run through :meth:`Session.run_experiment`.
Everything returns a :class:`~repro.api.result.Result` envelope —
except :class:`~repro.api.specs.Sweep` runs, whose envelope is the
per-point :class:`~repro.api.result.SweepResult`.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.api.plans import PlanCache
from repro.api.registry import ExperimentDef, get as registry_get
from repro.api.result import Result
from repro.api.seeding import EXPERIMENT_SEED, SeedScope, SeedTree
from repro.api.specs import (
    AC,
    BACKENDS,
    AnalysisSpec,
    Characterize,
    CharacterizeLibrary,
    DCOp,
    DCSweep,
    ExperimentSpec,
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Sweep,
    Transient,
    Yield,
)

__all__ = ["Session", "default_session"]


def _batch_samples(batch_shape: tuple) -> Optional[int]:
    """Monte-Carlo sample count from a batch shape (None for nominal)."""
    if not batch_shape:
        return None
    return int(np.prod(batch_shape))


def _executor_key(instance):
    """Cache key of an executor instance in the session's pool table.

    Process pools are keyed (and deduplicated) by worker count; a
    cluster executor's live worker count is elastic, so it keys on the
    sentinel ``"cluster"`` — the same value ``Execution.workers``
    carries to select it.
    """
    return "cluster" if getattr(instance, "kind", None) == "cluster" \
        else instance.workers


class Session:
    """Facade over the technology, seeding, backends, and plan cache.

    Parameters
    ----------
    technology:
        A characterized :class:`~repro.pipeline.Technology`; the shared
        default 40-nm kit when omitted (resolved lazily, so pure-circuit
        sessions never pay for characterization).
    seed:
        Root of the session's seed tree.  The default keeps every
        experiment bit-identical to the historical per-module seeding.
    backend:
        Session-wide backend: ``auto`` (compile when possible),
        ``compiled`` (require the vectorized plan) or ``generic``
        (force per-element assembly).  Specs may override per run.
    executor:
        Session-wide parallelism for statistical workloads: ``None``/1
        for serial, an integer >= 2 for a process pool of that many
        workers, a ``"tcp://host:port"`` address to bind a
        :class:`repro.cluster.ClusterExecutor` coordinator there
        (remote agents connect with ``python -m repro worker``), or a
        :class:`repro.runtime.Executor` instance.  With workers
        engaged, statistical specs default to the sharded runtime
        (output still worker-count invariant — the shard/seed
        contract); specs may override per run via their ``execution``.
    shard_size:
        Session default shard size for runtime-routed runs (``None``
        defers to the runtime's fixed default).
    tracer:
        Optional :class:`repro.obs.Tracer` activated around every run
        this session executes.  Scheduling-side only: results are
        bit-identical with or without one (the determinism-matrix tests
        pin this).  The tracer rides on the session, never on
        ``Execution`` — execution options are stripped from spec
        fingerprints, and telemetry must not alter workload identity.
    metrics:
        ``True`` to snapshot the process-local default
        :class:`repro.obs.MetricsRegistry` into each envelope, or a
        registry instance to snapshot instead.  With either *tracer* or
        *metrics* enabled, runtime-routed results carry a
        ``runtime.telemetry`` digest (span totals + metrics snapshot);
        ``scrub_envelope`` strips it with the rest of ``runtime``.
    """

    def __init__(
        self,
        technology=None,
        seed: int = EXPERIMENT_SEED,
        backend: str = "auto",
        plan_cache: Optional[PlanCache] = None,
        executor=None,
        shard_size: Optional[int] = None,
        tracer=None,
        metrics=None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if shard_size is not None and shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self._technology = technology
        self.seeds = SeedTree(seed)
        self.backend = backend
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        #: Guards the executor cache — submit() handles run analyses on
        #: background threads that share this session's pools.
        self._lock = threading.RLock()
        self._executors: dict = {}
        #: Worker counts whose executor the caller supplied (borrowed
        #: instances are never shut down by :meth:`close`).
        self._borrowed_workers: set = set()
        self._default_workers = 1
        #: Whether the caller explicitly chose an executor.  Explicit
        #: ``executor=1`` engages the sharded runtime exactly like
        #: ``executor=2`` — the worker count must never pick the stream.
        self._executor_supplied = executor is not None
        if executor is not None:
            from repro.runtime import Executor, resolve_executor

            borrowed = isinstance(executor, Executor)
            if (not borrowed and not isinstance(executor, str)
                    and int(executor) < 1):
                # Mirror Execution(workers=...) and the CLI: a
                # miscomputed worker count must fail loudly, not
                # silently run serial.
                raise ValueError(f"executor workers must be >= 1, got {executor}")
            instance = resolve_executor(executor)
            key = _executor_key(instance)
            self._executors[key] = instance
            if borrowed:
                self._borrowed_workers.add(key)
            self._default_workers = key
        self.shard_size = shard_size
        self.tracer = tracer
        if metrics is True:
            from repro.obs import default_registry

            metrics = default_registry()
        self.metrics = metrics or None

    # ------------------------------------------------------------------
    # Owned resources.
    # ------------------------------------------------------------------
    @property
    def technology(self):
        """The session's characterized technology (lazily resolved)."""
        if self._technology is None:
            from repro.pipeline import default_technology

            # Under the lock: concurrent submit() handles must not race
            # the check-then-set into two expensive characterizations.
            with self._lock:
                if self._technology is None:
                    self._technology = default_technology()
        return self._technology

    @property
    def seed(self) -> int:
        """Root seed of the session's seed tree."""
        return self.seeds.root

    def rng(self, offset: int = 0) -> np.random.Generator:
        """Fresh generator for stream *offset* of the seed tree."""
        return self.seeds.rng(offset)

    # ------------------------------------------------------------------
    # Parallel runtime plumbing.
    # ------------------------------------------------------------------
    @property
    def workers(self):
        """Session-default degree of parallelism.

        An int (1 = serial) or the string ``"cluster"`` when the
        session was built with ``executor="tcp://host:port"``.
        """
        return self._default_workers

    def default_execution(self) -> Optional[Execution]:
        """The execution options statistical runs inherit from the session.

        ``None`` on a plain default session — the unsharded one-shard
        plan drawing the legacy stream the golden figures pin.  Sessions
        constructed with an explicit executor (any worker count:
        ``--workers 1`` must draw the same stream as ``--workers 2``) or
        a shard size hand every statistical run a matching
        :class:`Execution` (still overridable per spec).
        """
        if self._executor_supplied or self.shard_size is not None:
            return Execution(
                workers=self._default_workers, shard_size=self.shard_size
            )
        return None

    def executor_for(self, execution: Optional[Execution]):
        """The (cached) executor instance an execution spec runs on.

        Pools are created once per worker count and reused across runs;
        :meth:`close` shuts them down.
        """
        from repro.runtime import resolve_executor

        workers = execution.workers if execution is not None else 1
        with self._lock:
            if workers == "cluster":
                instance = self._executors.get("cluster")
                if instance is None:
                    raise ValueError(
                        'Execution(workers="cluster") needs a session '
                        'with a cluster executor — construct it with '
                        'Session(executor="tcp://host:port")'
                    )
                return instance
            if workers not in self._executors:
                self._executors[workers] = resolve_executor(workers)
            return self._executors[workers]

    def close(self) -> None:
        """Shut down the executors this session spawned.

        Idempotent — a second ``close()`` (or ``__exit__`` after an
        explicit close) is a no-op.  Executor instances the caller
        passed into ``Session(executor=)`` are borrowed, not owned —
        they are released from the cache but left running for their
        owner to close.
        """
        with self._lock:
            for workers, executor in self._executors.items():
                if workers not in self._borrowed_workers:
                    executor.close()
            self._executors.clear()
            self._borrowed_workers.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _effective_execution(
        self, spec_execution: Optional[Execution]
    ) -> Optional[Execution]:
        return spec_execution if spec_execution is not None else self.default_execution()

    def _spec_execution(
        self, spec, inherit_execution: bool
    ) -> Optional[Execution]:
        """A spec's execution, with or without the session default.

        Sweep points pin ``inherit_execution=False``: the sweep already
        absorbed the session's parallelism at the point fan-out level,
        and injecting it again into every point would silently re-shard
        the inner streams (breaking the sweep's scheduling invariance).
        """
        if inherit_execution:
            return self._effective_execution(spec.execution)
        return spec.execution

    def _seed_basis(
        self, seed_offset: int, scope: Optional[SeedScope]
    ) -> Tuple[int, Tuple[int, ...]]:
        """``(base_seed, spawn_prefix)`` of a statistical run.

        An enclosing sweep point's :class:`SeedScope` replaces the
        spec's own offset resolution (the offset is folded into the
        scope's base seed); otherwise streams come from the session seed
        tree with an empty prefix — the pre-sweep contract, unchanged.
        """
        if scope is not None:
            return scope.base_seed, scope.spawn_key
        return self.seeds.seed(seed_offset), ()

    # ------------------------------------------------------------------
    # Device factories (the way cells obtain transistors).
    # ------------------------------------------------------------------
    def mc_factory(
        self,
        n_samples: int,
        model: str = "vs",
        seed_offset: int = 0,
        interdie_sigma=None,
    ):
        """Monte-Carlo device factory drawing from the session seed tree.

        Circuits built by cell builders from this factory inherit the
        session's plan cache and backend selection.
        """
        from repro.cells.factory import MonteCarloDeviceFactory

        factory = MonteCarloDeviceFactory(
            self.technology,
            n_samples,
            rng=self.rng(seed_offset),
            model=model,
            interdie_sigma=interdie_sigma,
        )
        return self._equip(factory)

    def nominal_factory(self, model: str = "vs"):
        """Nominal (variation-free) device factory."""
        from repro.cells.factory import NominalDeviceFactory

        return self._equip(NominalDeviceFactory(self.technology, model))

    def equip(self, factory):
        """Adopt a locally constructed factory into this session.

        Attaches the session's plan cache and backend selection, so
        circuits built from custom :class:`DeviceFactory` subclasses
        (corner factories, replay factories...) honor the session policy
        exactly like factories born from :meth:`mc_factory`.
        """
        return self._equip(factory)

    def _equip(self, factory):
        factory.plan_cache = self.plan_cache
        factory.backend = None if self.backend == "auto" else self.backend
        return factory

    # ------------------------------------------------------------------
    # Circuit configuration.
    # ------------------------------------------------------------------
    def configure(self, circuit, backend: Optional[str] = None):
        """Attach the session plan cache + backend selection to *circuit*.

        Called automatically for circuits built through session
        factories; call it directly for hand-built netlists.
        """
        circuit.plan_cache = self.plan_cache
        circuit.set_backend(backend or self.backend)
        return circuit

    def _circuit_backend(self, circuit) -> str:
        """The backend a configured circuit actually uses.

        Forced modes are authoritative (a 'compiled' solve would have
        raised if the plan were missing); only 'auto' needs to probe the
        cached plan.
        """
        if circuit.backend in ("compiled", "generic"):
            return circuit.backend
        return "compiled" if circuit.compiled() is not None else "generic"

    # ------------------------------------------------------------------
    # Analysis execution.
    # ------------------------------------------------------------------
    def run(self, spec: AnalysisSpec, circuit=None):
        """Execute *spec* and wrap the output in a :class:`Result`.

        Literally ``submit(spec, circuit).result()`` — blocking and
        non-blocking runs share one execution path.  Circuit-level specs
        require *circuit*; device-level statistical specs
        (:class:`MonteCarlo`, :class:`ImportanceSampling`,
        :class:`FactoryMap`) run against the session technology and must
        not pass one.  :class:`Sweep` runs return a
        :class:`~repro.api.result.SweepResult` instead of a `Result`.
        """
        return self.submit(spec, circuit).result()

    def submit(self, spec: AnalysisSpec, circuit=None):
        """Start *spec* without blocking; returns a ``RunHandle`` future.

        The handle reports ``progress()`` (completed/total shards or
        sweep points), snapshots streamed accumulator state via
        ``partial()``, and supports ``cancel()`` at wave boundaries;
        ``result()`` blocks for the envelope.
        """
        from repro.api.futures import RunHandle

        return RunHandle(self, spec, circuit)

    def _execute(
        self,
        spec: AnalysisSpec,
        circuit=None,
        scope: Optional[SeedScope] = None,
        observer=None,
        inherit_execution: bool = True,
    ):
        """Synchronous spec dispatch (the worker side of every future).

        *scope* carries an enclosing sweep point's seed context;
        *observer* receives wave-boundary progress/cancel callbacks;
        *inherit_execution* gates session-default parallelism injection
        (pinned off inside sweep points).

        When the session has a tracer or metrics enabled, the dispatch
        is wrapped in a ``session.run`` span and the result's runtime
        metadata gains a ``telemetry`` digest.  Activation happens here
        — on whatever thread drives the run (``submit`` handles use a
        background thread) — so span nesting is coherent per run.
        """
        if self.tracer is None and self.metrics is None:
            return self._execute_spec(spec, circuit, scope, observer,
                                      inherit_execution)
        from repro.obs.trace import activate, span

        mark = self.tracer.mark() if self.tracer is not None else 0
        with activate(self.tracer):
            with span("session.run", spec=spec.kind,
                      nested=scope is not None):
                result = self._execute_spec(spec, circuit, scope, observer,
                                            inherit_execution)
        return self._attach_telemetry(result, mark)

    def _attach_telemetry(self, result, mark: int):
        """Merge the run's telemetry digest into ``result.runtime``.

        Every statistical spec, sweep and characterization runs through
        the wave runner and carries telemetry; circuit specs
        (``runtime`` is ``None``) expose it through the live
        :attr:`tracer`/:attr:`metrics` objects instead.  The digest
        lives *inside* ``RuntimeInfo`` — never in ``meta`` — because
        ``scrub_envelope`` nulls ``runtime`` wholesale, which is what
        keeps telemetry-on and telemetry-off envelopes comparable.
        """
        telemetry: dict = {}
        if self.tracer is not None:
            telemetry["spans"] = self.tracer.summary(since=mark)
        if self.metrics is not None:
            telemetry["metrics"] = self.metrics.snapshot()
        runtime = getattr(result, "runtime", None)
        if not telemetry or runtime is None:
            return result
        return dataclasses.replace(
            result,
            runtime=dataclasses.replace(runtime, telemetry=telemetry),
        )

    def _execute_spec(
        self,
        spec: AnalysisSpec,
        circuit=None,
        scope: Optional[SeedScope] = None,
        observer=None,
        inherit_execution: bool = True,
    ):
        if isinstance(spec, Sweep):
            if circuit is not None:
                raise ValueError(f"{spec.kind} does not take a circuit")
            from repro.api.sweep import run_sweep

            return run_sweep(self, spec, observer=observer,
                             inherit_execution=inherit_execution)
        circuit_specs = (DCOp, Transient, AC, DCSweep)
        if isinstance(spec, circuit_specs):
            if circuit is None:
                raise ValueError(f"{spec.kind} requires a circuit")
            return self._run_circuit(spec, circuit)
        if circuit is not None:
            raise ValueError(f"{spec.kind} does not take a circuit")
        if isinstance(spec, MonteCarlo):
            return self._run_montecarlo(spec, scope, observer,
                                        inherit_execution)
        if isinstance(spec, ImportanceSampling):
            return self._run_importance(spec, scope, observer,
                                        inherit_execution)
        if isinstance(spec, Yield):
            return self._run_yield(spec, scope, observer,
                                   inherit_execution)
        if isinstance(spec, FactoryMap):
            return self._run_factory_map(spec, scope, observer,
                                         inherit_execution)
        if isinstance(spec, (Characterize, CharacterizeLibrary)):
            return self._run_characterize(spec, scope, observer,
                                          inherit_execution)
        raise TypeError(f"unknown spec type {type(spec).__name__}")

    def _run_circuit(self, spec, circuit) -> Result:
        from repro.circuit.ac import ac_analysis
        from repro.circuit.dcop import dc_operating_point, initial_guess
        from repro.circuit.dcsweep import dc_sweep
        from repro.circuit.transient import transient

        # A per-spec backend override is scoped to this run; the
        # session-level policy (spec.backend None) persists on the
        # circuit, matching what session factories configure at build.
        prior_backend = circuit.backend
        self.configure(circuit, backend=spec.backend)
        try:
            hints = spec.hints_dict()
            v0 = initial_guess(circuit, hints) if hints else None

            start = time.perf_counter()
            if isinstance(spec, DCOp):
                payload = dc_operating_point(circuit, v0=v0, t=spec.t)
            elif isinstance(spec, Transient):
                payload = transient(
                    circuit,
                    spec.t_stop,
                    spec.dt,
                    t_start=spec.t_start,
                    method=spec.method,
                    record_every=spec.record_every,
                    dc_guess=v0,
                )
            elif isinstance(spec, AC):
                payload = ac_analysis(
                    circuit,
                    np.asarray(spec.frequencies),
                    ac_sources=spec.ac_sources,
                    amplitudes=spec.amplitudes_dict(),
                    v_op=v0 if v0 is None else dc_operating_point(circuit, v0=v0),
                )
            else:  # DCSweep
                payload = dc_sweep(
                    circuit, spec.source, np.asarray(spec.values), v0=v0
                )
            elapsed = time.perf_counter() - start
            # Snapshot cache accounting first (so it reflects only the
            # solve), then resolve which backend actually executed —
            # probed after the run so the first compile is inside the
            # timed window, while the override is still applied.
            meta = {"plan_cache": self.plan_cache.stats()}
            backend = self._circuit_backend(circuit)
        finally:
            if spec.backend is not None:
                circuit.set_backend(prior_backend)

        if isinstance(spec, AC):
            # The backend governs the embedded DC operating point; the
            # linearization + phasor solves always run per-element.
            meta["ac_phasor_path"] = "generic"
        return Result(
            payload=payload,
            spec=spec,
            backend=backend,
            seed=None,
            n_samples=_batch_samples(circuit.batch_shape),
            wall_time_s=elapsed,
            meta=meta,
        )

    def _scope_meta(self, scope: Optional[SeedScope]) -> dict:
        """Result metadata recording an enclosing sweep point's streams."""
        if scope is None:
            return {}
        return {"spawn_key": scope.spawn_key}

    def _run_montecarlo(self, spec: MonteCarlo, scope=None, observer=None,
                        inherit_execution: bool = True) -> Result:
        from repro.runtime import (
            TargetAccumulator,
            TargetSamplesTask,
            plan_for_execution,
            run_options,
            run_sharded,
        )
        from repro.stats.montecarlo import concat_target_samples

        execution = self._spec_execution(spec, inherit_execution)
        task = TargetSamplesTask(
            characterization=self.technology[spec.polarity],
            model=spec.model, w_nm=float(spec.w_nm), l_nm=float(spec.l_nm),
            vdd=float(self.technology.vdd),
        )
        start = time.perf_counter()
        run = run_sharded(
            task,
            plan_for_execution(execution, spec.n_samples,
                               *self._seed_basis(spec.seed_offset, scope)),
            self.executor_for(execution),
            accumulator=TargetAccumulator(),
            accumulate=lambda acc, payload: acc.update(payload.samples),
            observer=observer,
            **run_options(execution, "sigma"),
        )
        elapsed = time.perf_counter() - start
        return Result(
            payload=concat_target_samples(run.payloads),
            spec=spec,
            backend="device",
            seed=run.info.base_seed,
            n_samples=run.info.n_samples,
            wall_time_s=elapsed,
            runtime=run.info,
            meta={
                "streamed_sigmas": {
                    t: s.std() for t, s in run.accumulator.stats.items()
                },
                **self._scope_meta(scope),
            },
        )

    def _run_importance(self, spec: ImportanceSampling, scope=None,
                        observer=None,
                        inherit_execution: bool = True) -> Result:
        from repro.runtime import (
            FailureAccumulator,
            ImportanceTask,
            plan_for_execution,
            run_options,
            run_sharded,
        )

        execution = self._spec_execution(spec, inherit_execution)
        task = ImportanceTask(
            model=self.technology[spec.polarity].statistical,
            metric=spec.metric, threshold=float(spec.threshold),
            shifts=tuple(sorted(spec.shifts_dict().items())),
            w_nm=spec.w_nm, l_nm=spec.l_nm, fail_below=bool(spec.fail_below),
        )
        start = time.perf_counter()
        run = run_sharded(
            task,
            plan_for_execution(execution, spec.n_samples,
                               *self._seed_basis(spec.seed_offset, scope)),
            self.executor_for(execution),
            accumulator=FailureAccumulator(),
            accumulate=lambda acc, payload: acc.merge(payload),
            observer=observer,
            **run_options(execution, "probability"),
        )
        elapsed = time.perf_counter() - start
        return Result(
            payload=run.accumulator.estimate(),
            spec=spec,
            backend="device",
            seed=run.info.base_seed,
            n_samples=run.info.n_samples,
            wall_time_s=elapsed,
            runtime=run.info,
            meta=self._scope_meta(scope),
        )

    def _run_yield(self, spec: Yield, scope=None, observer=None,
                   inherit_execution: bool = True) -> Result:
        """Adaptive CE importance sampling (the rare-event yield engine).

        There is no unsharded plan: the engine always draws in the
        spec's fixed blocks, so ``execution=None`` simply runs the
        block plan serially without stopping or checkpointing — the
        envelope is a pure function of the seed basis and the spec,
        never of workers or ``execution.shard_size``.
        """
        from repro.runtime import run_options
        from repro.stats.yield_engine import run_yield

        model = self.technology[spec.polarity].statistical
        execution = self._spec_execution(spec, inherit_execution)
        base_seed, spawn_prefix = self._seed_basis(spec.seed_offset, scope)
        start = time.perf_counter()
        payload, yield_meta, info = run_yield(
            model,
            spec.metric,
            spec.threshold,
            spec.shifts_dict(),
            spec.n_samples,
            self.executor_for(execution),
            n_rounds=spec.n_rounds,
            n_per_round=spec.n_per_round,
            n_components=spec.n_components,
            elite_fraction=spec.elite_fraction,
            smoothing=spec.smoothing,
            block_size=spec.block_size,
            base_seed=base_seed,
            spawn_prefix=spawn_prefix,
            w_nm=spec.w_nm,
            l_nm=spec.l_nm,
            fail_below=spec.fail_below,
            observer=observer,
            **run_options(execution, "probability"),
        )
        elapsed = time.perf_counter() - start
        return Result(
            payload=payload,
            spec=spec,
            backend="device",
            seed=base_seed,
            n_samples=info.n_samples,
            wall_time_s=elapsed,
            runtime=info,
            meta={"yield": yield_meta, **self._scope_meta(scope)},
        )

    def _run_factory_map(self, spec: FactoryMap, scope=None, observer=None,
                         inherit_execution: bool = True) -> Result:
        """Circuit-level ``work(factory)`` Monte-Carlo as a spec run.

        The payload is the raw ``(n, ...)`` metric array; the unsharded
        plan (``execution=None``) is the exact legacy single-factory
        draw the hand-rolled experiment loops used (``Session.map_mc``
        delegates here).  In-process shards compile their circuits into
        the session's :attr:`plan_cache`.
        """
        from repro.runtime import (
            FactoryMapTask,
            plan_for_execution,
            run_array_task,
            run_options,
        )

        execution = self._spec_execution(spec, inherit_execution)
        task = FactoryMapTask(
            technology=self.technology, work=spec.work, model=spec.model,
            backend=None if self.backend == "auto" else self.backend,
            coalesce=bool(getattr(execution, "coalesce", True)),
            plan_cache=self.plan_cache,
        )
        start = time.perf_counter()
        payload, accumulator, info = run_array_task(
            task,
            plan_for_execution(execution, spec.n_samples,
                               *self._seed_basis(spec.seed_offset, scope)),
            self.executor_for(execution),
            observer=observer,
            **run_options(execution, "sigma"),
        )
        elapsed = time.perf_counter() - start
        return Result(
            payload=payload,
            spec=spec,
            backend=self.backend,
            seed=info.base_seed,
            n_samples=info.n_samples,
            wall_time_s=elapsed,
            runtime=info,
            meta={"finite_rows": accumulator.rows, **self._scope_meta(scope)},
        )

    def _run_characterize(self, spec, scope=None, observer=None,
                          inherit_execution: bool = True) -> Result:
        """Library characterization: the (cell x slew x load) grid workload.

        Grid points run on the sweeps' point-grid runner
        (:func:`~repro.api.sweep.run_points`: ``execution=None`` is the
        serial executor, one point per shard; progress in points;
        ``checkpoint`` resumes at a point-wave boundary), compiling into
        the session's :attr:`plan_cache` in this process.  Point *k*
        draws its Monte-Carlo stream from ``SeedSequence(base_seed,
        spawn_key=(k,))`` — the grid-point seed contract — so the
        tables are bit-identical at every worker count and shard size.
        Under sweep point *j* the grid nests one level deeper:
        ``spawn_key=(j, k)``.
        """
        from repro.api.sweep import run_points
        from repro.charlib.arcs import get_adapter
        from repro.charlib.characterize import DEFAULT_LOADS, DEFAULT_SLEWS
        from repro.charlib.workload import CharGridTask, assemble_library

        if isinstance(spec, CharacterizeLibrary):
            cell_specs, library_name = spec.cells, spec.name
        else:
            cell_specs, library_name = (spec.cell,), "repro_vs_40nm"
        adapters = tuple(get_adapter(cell) for cell in cell_specs)
        base_seed, spawn_prefix = self._seed_basis(spec.seed_offset, scope)
        backend = spec.backend or (None if self.backend == "auto" else self.backend)
        task = CharGridTask(
            technology=self.technology,
            adapters=adapters,
            vdd=spec.vdd,
            slews=spec.slews or DEFAULT_SLEWS,
            loads=spec.loads or DEFAULT_LOADS,
            n_mc=spec.n_mc,
            model=spec.model,
            base_seed=base_seed,
            backend=backend,
            spawn_prefix=spawn_prefix,
            plan_cache=self.plan_cache,
        )

        start = time.perf_counter()
        run = run_points(self, spec, task, task.n_points, base_seed,
                         observer=observer,
                         inherit_execution=inherit_execution,
                         spawn_prefix=spawn_prefix)
        library, diagnostics = assemble_library(task, run.accumulator.results,
                                                name=library_name)
        elapsed = time.perf_counter() - start

        payload = library if isinstance(spec, CharacterizeLibrary) else library.cells[0]
        return Result(
            payload=payload,
            spec=spec,
            backend=self.backend,
            seed=base_seed if spec.n_mc else None,
            n_samples=spec.n_mc or None,
            wall_time_s=elapsed,
            runtime=run.info,
            meta={
                "grid_points": task.n_points,
                "diagnostics": diagnostics,
                **self._scope_meta(scope),
            },
        )

    # ------------------------------------------------------------------
    # Circuit-level Monte-Carlo through the runtime.
    # ------------------------------------------------------------------
    def map_mc(
        self,
        work: Callable,
        n_samples: int,
        model: str = "vs",
        seed_offset: int = 0,
        execution: Optional[Execution] = None,
    ) -> Tuple[np.ndarray, object]:
        """Run ``work(factory) -> (n, ...) array`` over Monte-Carlo samples.

        The workhorse of the circuit-level experiments (SRAM SNM, gate
        delays): *work* receives a Monte-Carlo device factory and returns
        one metric array with the sample axis first.

        With *execution* (or a session default) engaged, the run is
        sharded per the shard/seed contract — *work* must then be
        picklable for a process pool (a module-level function or frozen
        dataclass), and each shard gets its own factory seeded from the
        shard stream.  ``execution=None`` on a serial session runs the
        unsharded plan: one shard on the serial executor whose factory
        draws the legacy single stream (bit-identical to pre-runtime
        code).

        The declarative twin is ``session.run(FactoryMap(...))`` — this
        method delegates to the same engine and unwraps the envelope.

        Returns ``(values, RuntimeInfo)``.
        """
        result = self._execute(FactoryMap(
            work=work, n_samples=n_samples, model=model,
            seed_offset=seed_offset, execution=execution,
        ))
        return np.asarray(result.payload), result.runtime

    # ------------------------------------------------------------------
    # Registry experiments.
    # ------------------------------------------------------------------
    def run_experiment(
        self,
        name_or_def: Union[str, ExperimentDef],
        quick: bool = False,
        **overrides,
    ) -> Result:
        """Run a registered experiment through this session.

        The experiment's declared quick/full preset supplies the keyword
        arguments; *overrides* are applied on top.  The experiment
        receives this session (seeding, factories, backend, plan cache)
        and its result dataclass becomes the envelope payload.
        """
        defn = (
            name_or_def
            if isinstance(name_or_def, ExperimentDef)
            else registry_get(name_or_def)
        )
        kwargs = defn.kwargs(quick=quick)
        kwargs.update(overrides)
        # Runtime-aware experiments (those accepting an ``execution``
        # keyword) inherit the session's parallelism unless the caller
        # pinned their own; a plain serial session injects None, which
        # is the unsharded plan.
        if "execution" not in kwargs and (
            "execution" in inspect.signature(defn.func).parameters
        ):
            default = self.default_execution()
            if default is not None:
                kwargs["execution"] = default

        from repro.obs.trace import activate, span as trace_span

        start = time.perf_counter()
        # Activate here as well as in _execute: experiments reach the
        # engines through many session calls, and the span contexts of
        # helpers invoked outside any spec run (direct circuit solves,
        # characterization internals) should still land on the trace.
        with activate(self.tracer):
            with trace_span("experiment.run", experiment=defn.name,
                            quick=quick):
                payload = defn.func(session=self, **kwargs)
        elapsed = time.perf_counter() - start

        return Result(
            payload=payload,
            spec=ExperimentSpec(name=defn.name, kwargs=tuple(kwargs.items())),
            backend=self.backend,
            seed=self.seed,
            n_samples=kwargs.get("n_samples"),
            wall_time_s=elapsed,
            experiment=defn.name,
            meta={"quick": quick, "plan_cache": self.plan_cache.stats()},
        )


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The shared default session (default technology, legacy seed root).

    Experiment ``run`` functions fall back to this when called without a
    session — the path the golden-figure regressions exercise.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
