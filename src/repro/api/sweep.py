"""Point grids as shard tasks on the parallel runtime: sweeps and more.

A :class:`~repro.api.specs.Sweep` wraps one statistical spec into a
cartesian grid; this module is the orchestration behind
``Session.run(Sweep(...))`` and the point runner that characterization
grids share with it:

* :func:`resolve_point` applies the sweep's seed contract — ``legacy``
  points are self-seeding specs (``seed_offset + j``), ``spawn`` points
  run under a :class:`~repro.api.seeding.SeedScope` whose serial draw is
  ``SeedSequence(base_seed, spawn_key=(j,))`` and whose inner shards are
  ``spawn_key=(j, i)``.

* :class:`SweepPointTask` is the picklable shard task: a shard covers a
  contiguous flat range of grid points, each evaluated on the
  submitting session in its process and through a worker-local
  :class:`~repro.api.session.Session` in pool and cluster workers.
  Because every point owns its stream, sweep output is
  **bit-identical at every worker count and every sweep shard size** —
  shard size is scheduling granularity only, like the PR-4
  characterization grid.

* :class:`SweepAccumulator` folds completed point results for the stop
  rule (``max_samples`` = point cap), checkpoint/resume at point-wave
  boundaries, and the futures' ``partial()`` snapshots.

* :func:`run_points` is the one runner of every point grid — sweeps and
  ``Characterize``/``CharacterizeLibrary`` grids: points per shard from
  the spec's own execution, a :class:`SweepAccumulator`, progress in
  points and the checkpoint.

:func:`run_sweep` runs every sweep, serial ones included, on
:func:`run_points` and assembles the
:class:`~repro.api.result.SweepResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.api.result import SweepResult
from repro.api.seeding import SeedScope
from repro.api.specs import Sweep, sweep_point_offset
from repro.runtime.runner import (
    RunObserver,
    ShardedRun,
    run_options,
    run_sharded,
)
from repro.runtime.sharding import plan_shards

__all__ = [
    "SweepAccumulator",
    "SweepPointTask",
    "resolve_point",
    "run_points",
    "run_sweep",
    "sweep_point_offset",
]


def resolve_point(sweep: Sweep, index: int, base_seed: int):
    """``(point_spec, SeedScope-or-None)`` of flat point *index*.

    *base_seed* is the sweep's stream basis (session root + the wrapped
    spec's ``seed_offset``).  Legacy points carry their whole seed in
    the returned spec; spawn points need the scope.  A single-point
    sweep returns no scope in either mode — the identity law: it runs
    exactly like the unwrapped spec under the spec's own execution
    options (session-default parallelism is never injected into
    points).
    """
    point = sweep.point_spec(index)
    if sweep.seed_mode == "spawn" and sweep.n_points > 1:
        return point, SeedScope(base_seed=base_seed, spawn_key=(index,))
    return point, None


def _pin_point_workers(spec):
    """Cap a fanned-out point's inner execution at one worker.

    Worker count is scheduling-only under the shard/seed contract, so
    the results are identical — but a point running inside a pool worker
    must not spawn a nested pool of its own.
    """
    execution = getattr(spec, "execution", None)
    # != 1 rather than > 1: workers may also be the string "cluster",
    # and a point running on a remote agent must pin to serial too.
    if execution is not None and execution.workers != 1:
        return replace(spec, execution=replace(execution, workers=1))
    return spec


class SweepAccumulator:
    """Completed point results, in flat grid order.

    The point runner's streaming state: ``n_samples`` counts *points*
    (so ``Execution(max_samples=...)`` caps the grid and checkpoints
    resume mid-grid), and the stored results double as the future's
    partial snapshot.
    """

    def __init__(self):
        self.results: list = []

    def update(self, results) -> "SweepAccumulator":
        self.results.extend(results)
        return self

    @property
    def n_samples(self) -> int:
        return len(self.results)

    def sigma_relative_error(self) -> float:
        """Stop-rule protocol; sweeps reject error targets, so: never."""
        return float("inf")

    def state(self) -> dict:
        return {"results": list(self.results)}

    @classmethod
    def from_state(cls, state: dict) -> "SweepAccumulator":
        out = cls()
        out.results = list(state["results"])
        return out


@dataclass(frozen=True)
class SweepPointTask:
    """Picklable shard task over a sweep's flat point range.

    In-process shards run their points on *session*, the submitting
    one.  Pickling drops it (like ``FactoryMapTask``'s plan cache), so
    pool and cluster workers build a worker-local session and pin each
    point to one worker, and checkpoint fingerprints never see it.
    """

    technology: object
    sweep: Sweep
    root_seed: int
    backend: str
    session: object = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["session"]
        return state

    def __call__(self, shard) -> Tuple:
        session = self.session
        if session is None:
            from repro.api.session import Session
            from repro.runtime.tasks import _process_plan_cache

            session = Session(
                technology=self.technology,
                seed=self.root_seed,
                backend=self.backend,
                plan_cache=_process_plan_cache(),
            )
        base_seed = sweep_point_offset(self.root_seed,
                                       self.sweep.spec.seed_offset)
        results = []
        for index in range(shard.start, shard.stop):
            spec, scope = resolve_point(self.sweep, index, base_seed)
            if self.session is None:
                spec = _pin_point_workers(spec)
            results.append(session._execute(spec, scope=scope,
                                            inherit_execution=False))
        return tuple(results)


class _PointProgress(RunObserver):
    """Translate shard-level runner callbacks into point-level progress."""

    def __init__(self, inner: RunObserver, n_points: int):
        self._inner = inner
        self._n_points = n_points

    def on_progress(self, done, total, accumulator=None, unit="shards"):
        points = accumulator.n_samples if accumulator is not None else 0
        self._inner.on_progress(points, self._n_points, accumulator,
                                unit="points")

    def should_cancel(self) -> bool:
        return self._inner.should_cancel()


def run_points(session, spec, task, n_points: int, base_seed: int,
               observer: Optional[RunObserver] = None,
               inherit_execution: bool = True,
               spawn_prefix: Tuple[int, ...] = ()) -> ShardedRun:
    """Run a point grid through the wave runner: sweeps and characterizations.

    *task* evaluates a shard's contiguous flat point range and returns
    one result per point.  Points fan out as shards of the spec's *own*
    ``execution.shard_size`` points (default 1): the session-default
    shard size (CLI ``--shard-size``) is sample granularity, and
    adopting it as points per shard would fold a small grid into one
    shard and silently serialize it.  Workers come from the spec's
    execution, else (with *inherit_execution*) from the session
    default.  Completed points fold into a :class:`SweepAccumulator`, so
    ``max_samples`` caps the point count, a ``checkpoint`` resumes at a
    point-wave boundary, and *observer* sees progress in points.
    *base_seed* and *spawn_prefix* label the plan (runtime metadata and
    checkpoint identity); point streams are the task's business.
    """
    execution = spec.execution
    return run_sharded(
        task,
        plan_shards(n_points, getattr(execution, "shard_size", None) or 1,
                    base_seed, spawn_prefix=spawn_prefix),
        session.executor_for(session._spec_execution(spec, inherit_execution)),
        accumulator=SweepAccumulator(),
        accumulate=lambda acc, payload: acc.update(payload),
        observer=(
            _PointProgress(observer, n_points)
            if observer is not None else None
        ),
        **run_options(execution, "sigma"),
    )


def run_sweep(
    session,
    sweep: Sweep,
    observer: Optional[RunObserver] = None,
    inherit_execution: bool = True,
) -> SweepResult:
    """Run every grid point of *sweep* through *session*.

    Points run on :func:`run_points` — with ``execution=None`` (and no
    session default) one point per shard on the serial executor, in
    index order.  Every point draws its streams per the sweep seed
    contract, so the envelope is bit-identical regardless of
    scheduling.
    """
    base_seed = sweep_point_offset(session.seed, sweep.spec.seed_offset)
    meta = {"seed_mode": sweep.seed_mode, "grid_shape": sweep.shape}

    start = time.perf_counter()
    # The task embeds the sweep MINUS its execution options: those are
    # scheduling, not workload, and the checkpoint fingerprint (a hash
    # of the pickled task) must let a resume run under a different
    # cap/worker count adopt the same state.
    task = SweepPointTask(
        technology=session.technology,
        sweep=replace(sweep, execution=None),
        root_seed=session.seed,
        backend=session.backend,
        session=session,
    )
    run = run_points(session, sweep, task, sweep.n_points, base_seed,
                     observer=observer, inherit_execution=inherit_execution)
    if run.info.stop_reason is not None:
        meta["stop_reason"] = run.info.stop_reason
    elapsed = time.perf_counter() - start

    return SweepResult(
        spec=sweep,
        points=tuple(run.accumulator.results),
        seed=base_seed,
        wall_time_s=elapsed,
        runtime=run.info,
        meta=meta,
    )
