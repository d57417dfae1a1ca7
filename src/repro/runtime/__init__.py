"""Sharded parallel runtime: the layer between the API and the engines.

Large statistical workloads route through this subsystem — device
Monte-Carlo, importance sampling and circuit-level cell Monte-Carlo
specs on every run, SSTA graph sampling when execution options are
engaged:

* :mod:`~repro.runtime.sharding` plans deterministic shards whose
  streams depend only on ``(base_seed, shard_index)`` (``base_seed``
  alone for the unsharded plan of ``execution=None``);
* :mod:`~repro.runtime.executors` run shards serially or on a process
  pool behind one protocol (``Session(executor=...)`` / ``--workers``);
* :mod:`~repro.runtime.accumulators` stream mean/variance/extrema,
  failure statistics and quantile sketches with exact ``merge``;
* :mod:`~repro.runtime.stopping` evaluates relative-error stop rules
  between shard waves;
* :mod:`~repro.runtime.checkpoint` persists accumulated state so runs
  resume mid-plan;
* :mod:`~repro.runtime.runner` ties them together, and
  :mod:`~repro.runtime.tasks` adapts the repo's statistical engines.

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
    run_sharded,
    stop_rule_for_execution,
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
    run_factory_map,
    run_importance,
    run_target_samples,
)

__all__ = [
    "Shard",
    "ShardPlan",
    "plan_shards",
    "plan_for_execution",
    "stop_rule_for_execution",
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
    "run_target_samples",
    "run_importance",
    "run_factory_map",
    "run_array_task",
]
