"""The wave runner: shards -> executor -> ordered merge -> stop rule.

:func:`run_sharded` is the one orchestration loop every sharded workload
goes through.  It walks the :class:`~repro.runtime.sharding.ShardPlan`
in fixed-size waves, hands each wave to the executor, then — always in
shard-index order — collects payloads and folds them into the streaming
accumulator.  Between waves it consults the
:class:`~repro.runtime.stopping.StopRule` and optionally checkpoints the
accumulated state, so a killed run resumes mid-plan bit-identically.

Determinism argument, in one place: shard streams depend only on
``(base_seed, shard_index)``; the wave partition depends only on
``(plan, wave_size)``; payload collection and accumulator merging happen
in shard-index order.  Nothing observable depends on the worker count or
on shard completion order — which is exactly what
``tests/test_runtime.py`` verifies end to end.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.obs import default_registry
from repro.obs.trace import event, span
from repro.runtime.checkpoint import (
    RunCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.executors import Executor
from repro.runtime.sharding import (
    ShardPlan,
    auto_shard_size,
    plan_shards,
)
from repro.runtime.stopping import StopDecision, StopRule

__all__ = [
    "RunObserver",
    "RuntimeInfo",
    "ShardedRun",
    "run_sharded",
    "task_fingerprint",
    "DEFAULT_WAVE_SIZE",
    "CANCELLED",
    "plan_for_execution",
    "run_options",
]

#: ``RuntimeInfo.stop_reason`` of a run halted by an observer's cancel
#: request (distinct from adaptive-stopping reasons).
CANCELLED = "cancelled"

_REGISTRY = default_registry()
_WAVES = _REGISTRY.counter("repro_waves_total", "Dispatch waves executed")
_WAVE_SECONDS = _REGISTRY.histogram(
    "repro_wave_seconds", "Wave dispatch+execution latency")
_MERGE_SECONDS = _REGISTRY.histogram(
    "repro_merge_seconds", "Accumulator merge latency per wave")
_SAMPLES = _REGISTRY.counter(
    "repro_samples_total", "Samples accumulated by sharded runs")
_RESUMED = _REGISTRY.counter(
    "repro_resumed_shards_total", "Shards restored from checkpoints")


class RunObserver:
    """Between-wave hook of :func:`run_sharded` (progress + cancellation).

    The default implementation is inert; :class:`repro.api.futures.
    RunHandle` subclasses it to report progress and request cancellation
    from another thread.  Observers are *scheduling-side only*: nothing
    an observer does may change the shard partition, the streams, or the
    merge order — cancellation simply truncates the run at a wave
    boundary (recorded as ``stop_reason=CANCELLED``), exactly like an
    adaptive stop.
    """

    def on_progress(self, done: int, total: int, accumulator=None,
                    unit: str = "shards") -> None:
        """Called after each merged wave (and once at start/resume)."""

    def should_cancel(self) -> bool:
        """Polled before each wave; ``True`` stops after >= 1 wave ran."""
        return False

#: Shards per adaptive wave.  A plan property (never derived from the
#: worker count), so early stopping halts at the same wave boundary at
#: every parallelism level.  The flip side: a wave is also the unit of
#: dispatch, so adaptive/checkpointed runs keep at most this many shards
#: in flight — set ``Execution(wave_size=...)`` to at least the worker
#: count (a plan constant, chosen by you, so determinism is preserved)
#: when running wide pools.
DEFAULT_WAVE_SIZE = 4


@dataclass(frozen=True)
class RuntimeInfo:
    """Execution metadata of one sharded run (lands in the Result envelope)."""

    executor: str
    workers: int
    shard_size: int
    n_shards: int
    shards_run: int
    n_samples: int              #: samples actually executed/accumulated
    planned_samples: int
    base_seed: int
    stopped_early: bool = False
    stop_reason: Optional[str] = None
    #: Shards restored from a checkpoint instead of re-executed.
    resumed_shards: int = 0
    #: Reason the parallel executor degraded to serial, if it did.
    degraded: Optional[str] = None
    #: Scheduling-side telemetry digest (span totals, metrics snapshot)
    #: attached by ``Session`` only when tracing/metrics are enabled.
    #: ``scrub_envelope`` nulls the whole ``runtime`` field, so stored-
    #: result comparisons never depend on telemetry, and decoding
    #: pre-telemetry documents falls back to the ``None`` default.
    telemetry: Optional[dict] = None


@dataclass(frozen=True)
class ShardedRun:
    """Raw outcome of :func:`run_sharded` before task-specific assembly."""

    #: Completed shard payloads in shard-index order.
    payloads: List
    #: The merged streaming accumulator (None when no accumulate hook).
    accumulator: object
    info: RuntimeInfo


def run_sharded(
    task: Callable,
    plan: ShardPlan,
    executor: Executor,
    accumulator=None,
    accumulate: Optional[Callable] = None,
    stop: Optional[StopRule] = None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    task_label: Optional[str] = None,
    observer: Optional[RunObserver] = None,
) -> ShardedRun:
    """Run *task* over every shard of *plan*, merging in shard order.

    Parameters
    ----------
    task:
        Picklable callable ``task(shard) -> payload``.
    accumulator / accumulate:
        Streaming state plus the fold ``accumulate(accumulator,
        payload)``; required when *stop* or *checkpoint_path* is given
        (stopping reads the accumulator, checkpoints snapshot it).
    stop:
        Optional :class:`StopRule` evaluated between waves.
    wave_size:
        Shards per wave (default :data:`DEFAULT_WAVE_SIZE`); only plan
        geometry, never the worker count, may inform this value.
    checkpoint_path:
        Path *prefix* for checkpointing.  Each run derives its own file
        — ``<prefix>.<fingerprint>.ckpt``, fingerprinted over the plan
        and the task label — so multi-stage experiments can hand every
        stage the same prefix: each stage resumes its own state and a
        completed stage's checkpoint short-circuits re-execution.  The
        state is rewritten after every wave (fine at the repo's current
        run sizes; an append-only payload journal is the upgrade path
        for million-sample checkpointed runs).
    task_label:
        Workload fingerprint stored in checkpoints.  Defaults to a
        content hash of the pickled task, which discriminates every
        workload parameter automatically; pass an explicit label only
        when a stable cross-version identity is needed.
    observer:
        Optional :class:`RunObserver` notified after every merged wave
        and polled for cancellation before each wave.  Purely a
        scheduling-side hook — results are bit-identical with or
        without one (cancellation truncates, it never reorders).
    """
    if (stop is not None or checkpoint_path is not None) and (
        accumulator is None or accumulate is None
    ):
        raise ValueError(
            "adaptive stopping and checkpointing need an accumulator "
            "and an accumulate hook"
        )
    shards = list(plan)
    if stop is None and checkpoint_path is None:
        if observer is None:
            # Nothing to evaluate or persist between waves: dispatch the
            # whole plan at once so the executor can keep every worker
            # busy (a wave barrier would cap parallelism at wave size).
            waves = len(shards)
        else:
            # Progress/cancel only.  No between-wave *decision* rides on
            # the boundary, so sizing waves by the worker count is safe
            # here (unlike the stop/checkpoint path, where boundaries
            # must be plan constants).  Several shards per worker per
            # wave amortize the barrier: a straggler idles its peers at
            # most once per 4 rounds instead of every round, while
            # progress still surfaces a few times per long run.
            waves = max(
                1, 4 * executor.workers,
                int(wave_size) if wave_size is not None else DEFAULT_WAVE_SIZE,
            )
    else:
        waves = max(1, int(wave_size) if wave_size is not None
                    else DEFAULT_WAVE_SIZE)
    label = ""
    payloads: List = []
    done = 0
    resumed = 0
    degraded: Optional[str] = None

    if checkpoint_path is not None:
        label = task_label if task_label is not None else task_fingerprint(task)
        if label is None:
            raise ValueError(
                "checkpointing needs a picklable task (or an explicit "
                "task_label): the workload fingerprint is what keeps "
                "same-plan runs from adopting each other's state"
            )
        checkpoint_path = _checkpoint_file(checkpoint_path, plan, waves, label)
        restored = load_checkpoint(checkpoint_path)
        if restored is not None:
            if not restored.matches(plan.n_samples, plan.shard_size,
                                    plan.base_seed, label,
                                    plan.spawn_prefix, plan.unsharded):
                raise ValueError(
                    f"checkpoint {checkpoint_path} was written for a "
                    f"different run (n_samples/shard_size/base_seed/task "
                    f"mismatch: {restored.task!r} vs {label!r})"
                )
            done = resumed = restored.shards_done
            payloads = list(restored.payloads)
            if restored.accumulator_state is not None:
                accumulator = type(accumulator).from_state(
                    restored.accumulator_state
                )
            event("run.resume", shards_done=resumed, n_shards=plan.n_shards)
            _RESUMED.inc(resumed)

    stopped_early = False
    stop_reason: Optional[str] = None
    if observer is not None:
        observer.on_progress(done, len(shards), accumulator)
    while done < len(shards):
        if observer is not None and done > 0 and observer.should_cancel():
            # Cancellation lands on wave boundaries only, and never
            # before the first wave (an empty run has nothing to
            # assemble) — RunHandle rejects not-yet-started runs itself.
            stopped_early = True
            stop_reason = CANCELLED
            break
        if stop is not None and done > 0:
            # Bound checks use the *accumulated* count (what the error
            # estimate actually rests on), not the planned shard index —
            # the two differ when non-finite samples are dropped.
            n_acc = getattr(accumulator, "n_samples", None)
            if n_acc is None:
                n_acc = accumulator.n
            decision: StopDecision = stop.evaluate(accumulator, n_acc)
            if decision.stop:
                stopped_early = True
                stop_reason = decision.reason
                break
        wave = shards[done:done + waves]
        wave_start = time.perf_counter()
        with span("run.wave", wave_start_shard=done, shards=len(wave),
                  executor=executor.kind):
            results = executor.map_shards(task, wave)
        _WAVES.inc()
        _WAVE_SECONDS.observe(time.perf_counter() - wave_start)
        if degraded is None:
            degraded = getattr(executor, "degraded", None)
        # Shard-index order is the determinism linchpin: completion
        # order (and therefore worker count) must never leak into the
        # merge sequence.
        merge_start = time.perf_counter()
        with span("run.merge", payloads=len(results)):
            for _, payload in sorted(results, key=lambda pair: pair[0]):
                payloads.append(payload)
                if accumulate is not None and accumulator is not None:
                    accumulate(accumulator, payload)
        _MERGE_SECONDS.observe(time.perf_counter() - merge_start)
        done += len(wave)
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                RunCheckpoint(
                    n_samples=plan.n_samples,
                    shard_size=plan.shard_size,
                    base_seed=plan.base_seed,
                    shards_done=done,
                    task=label,
                    accumulator_state=(
                        accumulator.state() if accumulator is not None else None
                    ),
                    payloads=payloads,
                    spawn_prefix=plan.spawn_prefix,
                    unsharded=plan.unsharded,
                ),
            )
        if observer is not None:
            observer.on_progress(done, len(shards), accumulator)

    n_run = shards[done - 1].stop if done else 0
    _SAMPLES.inc(max(0, n_run))
    info = _build_info(plan, executor, done, n_run, stopped_early,
                       stop_reason, resumed, degraded)
    return ShardedRun(payloads=payloads, accumulator=accumulator, info=info)


def _build_info(plan, executor, done, n_run, stopped_early, stop_reason,
                resumed, degraded) -> RuntimeInfo:
    return RuntimeInfo(
        executor=executor.kind,
        workers=executor.workers,
        shard_size=plan.shard_size,
        n_shards=plan.n_shards,
        shards_run=done,
        n_samples=n_run,
        planned_samples=plan.n_samples,
        base_seed=plan.base_seed,
        stopped_early=stopped_early,
        stop_reason=stop_reason,
        resumed_shards=resumed,
        degraded=degraded,
    )


def task_fingerprint(task) -> Optional[str]:
    """Content fingerprint of a task, for checkpoint workload identity.

    Hashing the pickled task captures *every* discriminating parameter —
    polarity, geometry, work-callable fields, thresholds — so two
    workloads sharing a shard plan can never adopt each other's
    checkpoints.  Returns ``None`` for unpicklable tasks (closure
    metrics): a type-name fallback would let same-type workloads with
    different parameters adopt each other's state, so checkpointing
    refuses such tasks instead.

    This is the *task*-level identity (process-lifetime working state:
    pickle bytes may shift across refactors, and the embedded technology
    rightly discriminates).  Its release-stable spec-level sibling is
    :func:`repro.api.fingerprint.fingerprint`, which hashes the
    execution-stripped tagged-JSON canonical form — the key the analysis
    service's content-addressed result store (and its co-located
    checkpoint prefixes) are filed under.
    """
    # The memo is disabled: with it, the byte stream encodes
    # object-graph *sharing* (a sub-object referenced twice pickles as a
    # memo backreference the second time), so two structurally equal
    # tasks could hash differently — e.g. a live-submitted spec whose
    # fields alias each other vs. the same spec replayed from the
    # service journal, which rebuilds every object fresh.  Checkpoint
    # identity must be content-only, or a daemon restart silently loses
    # resume-ability.  Tasks are acyclic by construction; a recursive
    # one fails to pickle and checkpointing refuses it.
    try:
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.DEFAULT_PROTOCOL)
        pickler.fast = True
        pickler.dump(task)
    except Exception:
        return None
    digest = hashlib.sha256(buffer.getvalue()).hexdigest()[:16]
    return f"{type(task).__name__}/{digest}"


def _checkpoint_file(prefix: str, plan: ShardPlan, wave_size: int,
                     label: str) -> str:
    """Per-run checkpoint filename under a user-facing path prefix.

    The fingerprint covers everything :meth:`RunCheckpoint.matches`
    validates plus the wave size — adaptive-stopping boundaries depend
    on it, so a resume under a different wave size must start fresh
    rather than silently stop at boundaries no uninterrupted run could
    produce.  Distinct stages of one experiment (different seeds,
    geometries, models) sharing a prefix land in distinct files instead
    of refusing each other's state.  An unsharded plan shares n,
    shard size, seed and prefix with ``plan_shards(n, n)`` but draws a
    different stream, so it is keyed apart; sharded keys are unchanged.
    """
    key = (f"{plan.n_samples}|{plan.shard_size}|{plan.base_seed}|"
           f"{plan.spawn_prefix}|{wave_size}|{label}")
    if plan.unsharded:
        key += "|unsharded"
    fingerprint = hashlib.sha256(key.encode()).hexdigest()[:12]
    return f"{prefix}.{fingerprint}.ckpt"


# ----------------------------------------------------------------------
# Execution-option interpretation (shared by Session and the engines).
# ----------------------------------------------------------------------
def run_options(execution, metric: str) -> dict:
    """The ``stop``/``wave_size``/``checkpoint_path`` an ``Execution`` asks for.

    The one reader of an execution's stopping (``target_rel_err``,
    ``min_samples``, ``max_samples``), wave and checkpoint fields: every
    runner call site splats the returned dict into :func:`run_sharded`
    (or an engine taking the same keywords).  *metric* names the
    estimate the stop rule tracks (``"sigma"`` or ``"probability"``).
    Duck-typed on the attributes, so the runtime layer never imports
    :mod:`repro.api.specs`; ``execution=None`` asks for nothing (all
    planned shards run, no checkpoint).
    """
    target_rel_err = getattr(execution, "target_rel_err", None)
    max_samples = getattr(execution, "max_samples", None)
    stop = None
    if target_rel_err is not None or max_samples is not None:
        stop = StopRule(
            target_rel_err=target_rel_err,
            metric=metric,
            min_samples=getattr(execution, "min_samples", 0) or 0,
            max_samples=max_samples,
        )
    return {
        "stop": stop,
        "wave_size": getattr(execution, "wave_size", None),
        "checkpoint_path": getattr(execution, "checkpoint", None),
    }


def plan_for_execution(execution, n_samples: int, base_seed: int,
                       spawn_prefix=()) -> ShardPlan:
    """Shard plan an ``Execution`` spec implies for an *n_samples* run.

    ``execution=None`` is the unsharded plan: one shard drawing the
    legacy single stream (see :func:`~repro.runtime.sharding.
    plan_shards`).  An explicit ``shard_size`` wins; otherwise every
    engaged execution sizes shards through
    :func:`~repro.runtime.sharding.auto_shard_size` (batch economics:
    >= ~200 samples per shard, a constant fan-out cap on the shard
    count).  Nothing here may consult the worker count — the partition
    (and through it the sample stream) must be identical at every
    parallelism level, including ``workers=1``.  *spawn_prefix* nests
    the shard streams under an enclosing sweep point.
    """
    shard_size = getattr(execution, "shard_size", None)
    if shard_size is None and execution is not None:
        shard_size = auto_shard_size(n_samples)
    return plan_shards(n_samples, shard_size, base_seed,
                       spawn_prefix=spawn_prefix)
