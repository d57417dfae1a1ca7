"""Sharded parallel runtime: the layer between the API and the engines.

Every statistical spec runs through this subsystem — device
Monte-Carlo, importance sampling, circuit-level factory maps, the
rare-event yield engine, sweep and characterization point grids — plus
SSTA graph sampling when execution options are engaged:

* :mod:`~repro.runtime.sharding` plans deterministic shards whose
  streams depend only on ``(base_seed, shard_index)`` (``base_seed``
  alone for the unsharded plan of ``execution=None``);
* :mod:`~repro.runtime.executors` run shards serially, on a process
  pool or on a cluster behind one protocol (``Session(executor=...)`` /
  ``--workers``);
* :mod:`~repro.runtime.accumulators` stream mean/variance/extrema,
  failure statistics and quantile sketches with exact ``merge``;
* :mod:`~repro.runtime.stopping` evaluates relative-error stop rules
  between shard waves;
* :mod:`~repro.runtime.checkpoint` persists accumulated state so runs
  resume mid-plan;
* :mod:`~repro.runtime.runner` ties them together —
  :func:`~repro.runtime.runner.run_sharded` is the one wave loop, and
  :func:`~repro.runtime.runner.run_options` is the one reader of an
  ``Execution``'s stopping, wave and checkpoint fields — and
  :mod:`~repro.runtime.tasks` holds the statistical engines' shard
  tasks.

The invariant everything here serves: sharded output is **bit-identical
to the serial run at every worker count** (see ``ROADMAP.md``,
Conventions PR 3).
"""

from repro.runtime.accumulators import (
    FailureAccumulator,
    QuantileSketch,
    StreamStats,
    TargetAccumulator,
    WeightedFailureAccumulator,
)
from repro.runtime.checkpoint import (
    RunCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    resolve_executor,
)
from repro.runtime.runner import (
    CANCELLED,
    DEFAULT_WAVE_SIZE,
    RunObserver,
    RuntimeInfo,
    ShardedRun,
    plan_for_execution,
    run_options,
    run_sharded,
    task_fingerprint,
)
from repro.runtime.sharding import (
    MAX_AUTO_SHARDS,
    MIN_AUTO_SHARD_SIZE,
    Shard,
    ShardPlan,
    auto_shard_size,
    plan_shards,
    shard_rng,
    shard_sequence,
)
from repro.runtime.stopping import StopDecision, StopRule
from repro.runtime.tasks import (
    FactoryMapTask,
    ImportanceTask,
    TargetSamplesTask,
    run_array_task,
)

__all__ = [
    "Shard",
    "ShardPlan",
    "plan_shards",
    "plan_for_execution",
    "run_options",
    "MIN_AUTO_SHARD_SIZE",
    "MAX_AUTO_SHARDS",
    "auto_shard_size",
    "shard_rng",
    "shard_sequence",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "resolve_executor",
    "StreamStats",
    "FailureAccumulator",
    "WeightedFailureAccumulator",
    "QuantileSketch",
    "TargetAccumulator",
    "StopRule",
    "StopDecision",
    "RunObserver",
    "RuntimeInfo",
    "ShardedRun",
    "CANCELLED",
    "run_sharded",
    "task_fingerprint",
    "DEFAULT_WAVE_SIZE",
    "RunCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "TargetSamplesTask",
    "ImportanceTask",
    "FactoryMapTask",
    "run_array_task",
]
