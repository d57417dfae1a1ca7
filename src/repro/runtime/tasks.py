"""Picklable shard tasks of the statistical specs.

Each task is a plain top-level dataclass holding only picklable state
(characterized models, geometry, thresholds), with ``__call__(shard)``
evaluating one shard on the shard's own stream.  ``Session`` pairs each
with the wave runner (:func:`~repro.runtime.runner.run_sharded`) and
assembles the spec's payload from the shard outputs in shard order:

* :class:`TargetSamplesTask` — device-level Monte-Carlo; shard payloads
  are :class:`~repro.stats.montecarlo.TargetSamples`, streamed into a
  :class:`~repro.runtime.accumulators.TargetAccumulator`.
* :class:`ImportanceTask` — mean-shift importance sampling; shard
  payloads are :class:`~repro.runtime.accumulators.FailureAccumulator`
  sufficient statistics (no sample arrays cross process boundaries).
* :class:`FactoryMapTask` — circuit-level Monte-Carlo: any
  ``work(factory) -> (n,) array`` over a per-shard
  :class:`~repro.cells.factory.MonteCarloDeviceFactory`.
* :func:`run_array_task` — fan-out for tasks returning per-shard sample
  arrays (factory maps and the SSTA graph engine use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from repro.runtime.accumulators import FailureAccumulator, StreamStats
from repro.runtime.executors import Executor
from repro.runtime.runner import run_sharded
from repro.runtime.sharding import Shard, ShardPlan
from repro.runtime.stopping import StopRule

__all__ = [
    "TargetSamplesTask",
    "ImportanceTask",
    "FactoryMapTask",
    "ArrayAccumulator",
    "run_array_task",
]


# ----------------------------------------------------------------------
# Device-level Monte-Carlo (MonteCarlo specs).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TargetSamplesTask:
    """One shard of a device-level target Monte-Carlo."""

    characterization: object        #: PolarityCharacterization
    model: str
    w_nm: float
    l_nm: float
    vdd: float

    def __call__(self, shard: Shard):
        from repro.stats.montecarlo import target_samples

        return target_samples(
            self.characterization, self.model, self.w_nm, self.l_nm,
            self.vdd, shard.n_samples, shard.rng(),
        )


# ----------------------------------------------------------------------
# Importance sampling (ImportanceSampling specs).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ImportanceTask:
    """One shard of a mean-shift importance-sampling estimate.

    The payload is a shard-local :class:`FailureAccumulator` — sufficient
    statistics only, so arbitrarily large shards stream back in O(1).
    """

    model: object                   #: StatisticalVSModel
    metric: Callable
    threshold: float
    shifts: Tuple[Tuple[str, float], ...]
    w_nm: Optional[float]
    l_nm: Optional[float]
    fail_below: bool

    def __call__(self, shard: Shard) -> FailureAccumulator:
        from repro.stats.importance import importance_trial

        weights, fails = importance_trial(
            self.model, self.metric, self.threshold, dict(self.shifts),
            shard.n_samples, shard.rng(),
            w_nm=self.w_nm, l_nm=self.l_nm, fail_below=self.fail_below,
        )
        return FailureAccumulator().update(fails, weights)


# ----------------------------------------------------------------------
# Circuit-level Monte-Carlo through device factories.
# ----------------------------------------------------------------------
_PROCESS_PLAN_CACHE = None


def _process_plan_cache():
    """One compiled-plan cache per process (parent or pool worker).

    Shard factories cannot share the parent session's cache across
    process boundaries, but within a process every shard of every wave
    hits the same netlist shapes — compiling once per process instead of
    once per shard is what keeps the sharded path's overhead flat.
    """
    global _PROCESS_PLAN_CACHE
    if _PROCESS_PLAN_CACHE is None:
        from repro.api.plans import PlanCache

        _PROCESS_PLAN_CACHE = PlanCache()
    return _PROCESS_PLAN_CACHE


@dataclass(frozen=True)
class FactoryMapTask:
    """One shard of ``work(factory) -> (n,) array`` circuit Monte-Carlo.

    Builds a shard-local :class:`MonteCarloDeviceFactory` seeded by the
    shard stream, applies the session's backend policy, and runs *work*
    (a picklable callable: module-level function or frozen dataclass).
    Circuits compile into *plan_cache* (the submitting session's) when
    the task runs in the process that built it.  Pickling drops the
    cache, so pool and cluster workers — which cannot share it — keep
    their own per-process caches (each long-lived worker compiles once),
    and the cache never enters the task's checkpoint fingerprint.

    With ``coalesce`` (the default) executors batch all same-task shards
    of a chunk through :meth:`run_chunk` — one Newton solve over the
    concatenated sample block instead of one per shard.  Each shard's
    stream is still drawn by its own generator, and the batched solve is
    elementwise along the sample axis, so the per-shard rows are
    bit-identical to the unbatched path at every worker count.
    """

    technology: object              #: Technology
    work: Callable
    model: str = "vs"
    backend: Optional[str] = None
    coalesce: bool = True
    plan_cache: object = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["plan_cache"]
        return state

    def _factory(self, shard: Shard):
        from repro.cells.factory import MonteCarloDeviceFactory

        return MonteCarloDeviceFactory(
            self.technology, shard.n_samples, rng=shard.rng(),
            model=self.model,
        )

    def _equip(self, factory):
        factory.plan_cache = (self.plan_cache if self.plan_cache is not None
                              else _process_plan_cache())
        if self.backend is not None:
            factory.backend = self.backend
        return factory

    def _work(self, factory, n_samples: int) -> np.ndarray:
        values = np.asarray(self.work(factory))
        if values.ndim < 1 or values.shape[0] != n_samples:
            raise TypeError(
                "factory-map work must return an array with the "
                f"Monte-Carlo axis first; got shape {values.shape} for a "
                f"{n_samples}-sample shard"
            )
        return values

    def __call__(self, shard: Shard) -> np.ndarray:
        return self._work(self._equip(self._factory(shard)), shard.n_samples)

    def run_chunk(self, shards) -> list:
        """Evaluate several shards as ONE batched factory-map call.

        The cross-shard batching of the fast Newton path: per-shard
        factories draw their own streams (identical request order, so
        identical draws), a :class:`~repro.cells.factory.
        CoalescedFactory` concatenates the sampled cards along the
        sample axis, *work* runs once on the combined block, and the
        result rows are split back at the shard boundaries.  Returns
        ``(shard_index, payload)`` pairs like an executor shard loop.
        """
        if not self.coalesce or len(shards) <= 1:
            return [(shard.index, self(shard)) for shard in shards]
        from repro.cells.factory import CoalescedFactory

        factory = self._equip(
            CoalescedFactory([self._factory(shard) for shard in shards])
        )
        values = self._work(factory, factory.n_samples)
        pairs, offset = [], 0
        for shard in shards:
            pairs.append((shard.index, values[offset:offset + shard.n_samples]))
            offset += shard.n_samples
        return pairs


class ArrayAccumulator:
    """Streaming stats for ``(n, ...)`` sample arrays.

    Elementwise moments ride in a :class:`StreamStats`; the **row**
    count is tracked separately so stop-rule accounting (``n_samples``,
    ``sigma_relative_error``) is in Monte-Carlo samples — a ``(n, k)``
    work output must not look like ``n * k`` samples to
    ``min_samples``/``max_samples``/``target_rel_err``.  Non-finite rows
    (non-converged circuit samples; callers filter them downstream too)
    are skipped entirely so they neither poison the moments nor count
    toward the error estimate.
    """

    def __init__(self):
        self.values = StreamStats()
        self.rows = 0

    def update(self, payload) -> "ArrayAccumulator":
        values = np.asarray(payload, dtype=float)
        flat = values.reshape(values.shape[0], -1)
        finite = values[np.isfinite(flat).all(axis=1)]
        self.values.update(finite)
        self.rows += int(finite.shape[0])
        return self

    @property
    def n_samples(self) -> int:
        return self.rows

    def sigma_relative_error(self) -> float:
        """Stop-rule protocol: sigma error from the *row* count."""
        if self.rows < 2:
            return float("inf")
        return 1.0 / np.sqrt(2.0 * (self.rows - 1))

    def state(self) -> dict:
        return {"values": self.values.state(), "rows": self.rows}

    @classmethod
    def from_state(cls, state: dict) -> "ArrayAccumulator":
        out = cls()
        out.values = StreamStats.from_state(state["values"])
        out.rows = int(state["rows"])
        return out


def run_array_task(
    task: Callable,
    plan: ShardPlan,
    executor: Executor,
    stop: Optional[StopRule] = None,
    wave_size: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    task_label: Optional[str] = None,
    observer=None,
):
    """Generic fan-out for tasks returning per-shard sample arrays."""
    run = run_sharded(
        task, plan, executor,
        accumulator=ArrayAccumulator(),
        accumulate=lambda acc, payload: acc.update(payload),
        stop=stop, wave_size=wave_size, checkpoint_path=checkpoint_path,
        task_label=task_label, observer=observer,
    )
    values = np.concatenate(run.payloads, axis=0)
    return values, run.accumulator, run.info
