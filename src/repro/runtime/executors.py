"""Executors: where shards run.

One tiny protocol — ``map_shards(task, shards)`` returns the list of
``(shard_index, payload)`` pairs — with two implementations:

* :class:`SerialExecutor` runs shards in-process, in order.  It is the
  ``workers=1`` case and the reference the bit-identity tests compare
  the parallel paths against.
* :class:`ParallelExecutor` fans shards out to a
  ``concurrent.futures.ProcessPoolExecutor``.  Tasks and shard payloads
  cross the process boundary by pickling, so tasks are plain top-level
  dataclasses (see :mod:`repro.runtime.tasks`).  If a task turns out
  unpicklable (e.g. a closure metric), the executor degrades to serial
  execution for that call and records why (:func:`record_degradation`
  counts it) — the shard/seed contract
  guarantees the results are identical either way, so degrading is
  always safe.

Executors never reorder results: the runner sorts by shard index before
merging, which is what makes the combined output independent of
completion order and worker count.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.obs import default_registry, get_logger, log_event
from repro.obs.trace import Tracer, activate, current_tracer, span
from repro.runtime.sharding import Shard

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor",
           "record_degradation", "record_worker_timing", "resolve_executor"]

_REGISTRY = default_registry()
_SHARDS = _REGISTRY.counter(
    "repro_shards_executed_total", "Shard tasks executed",
)
_SHARD_SECONDS = _REGISTRY.histogram(
    "repro_shard_seconds", "Per-shard task execution time",
)
_PICKLE_BYTES = _REGISTRY.counter(
    "repro_task_pickle_bytes_total",
    "Task bytes serialized across the process boundary",
)
_LOG = get_logger("runtime.executors")
_DEGRADATION_WARNED: set = set()
_DEGRADATION_LOCK = threading.Lock()


def record_degradation(executor_kind: str) -> None:
    """Make one serial degradation of a parallel executor visible.

    Counts it in ``repro_executor_degradations_total{executor}`` and
    logs one structured ``executor.degraded`` warning per executor kind
    per process.  The reason text stays in ``Result.runtime.degraded``
    (it names the task, so as a label it would grow without bound).
    """
    default_registry().counter(
        "repro_executor_degradations_total",
        "Parallel runs degraded to in-process serial execution",
        labels={"executor": executor_kind},
    ).inc()
    with _DEGRADATION_LOCK:
        first = executor_kind not in _DEGRADATION_WARNED
        _DEGRADATION_WARNED.add(executor_kind)
    if first:
        log_event(_LOG, "executor.degraded", level=logging.WARNING,
                  executor=executor_kind)


def _run_shard(task: Callable, shard: Shard) -> Tuple[int, object]:
    """Top-level worker entry (must be importable in child processes)."""
    return shard.index, task(shard)


def _chunk_runner(task: Callable) -> Optional[Callable]:
    """The task's coalesced chunk entry point, when it opts in.

    A task that exposes ``run_chunk(shards) -> [(index, payload), ...]``
    *and* carries a truthy ``coalesce`` flag evaluates a whole chunk as
    one batched call (``FactoryMapTask``: one Newton solve over the
    concatenated sample block).  Everything else runs shard by shard.
    """
    if getattr(task, "coalesce", False):
        return getattr(task, "run_chunk", None)
    return None


#: Worker-side span names worth shipping back for the parent timeline
#: (scheduling metadata only — payloads never ride in the timing dict).
_SHIPPED_SPANS = frozenset({"newton.solve", "plan.compile"})


def _run_shard_chunk(
    task: Callable, chunk: Sequence[Shard], trace: bool = False
) -> Tuple[List[Tuple[int, object]], dict]:
    """Evaluate several shards in one submission, timing each.

    Chunking bounds the number of times the task — which may embed a
    whole characterized technology or timing graph — crosses the
    process boundary: once per chunk instead of once per shard.  It is
    also the coalescing unit: a task with a chunk runner (see
    :func:`_chunk_runner`) evaluates its whole chunk in one batched
    call, results split back per shard.

    Returns ``(pairs, timing)``.  The timing dict rides back *next to*
    the payload list, never inside it, so results are bit-identical
    whatever is measured: ``"pid"`` and ``"shards"``, one
    ``(first shard index, seconds, samples)`` entry per shard (per
    coalesced chunk), always — the parent's ``repro_shard_seconds``
    histogram needs them on every run.  With *trace* (the parent is
    tracing; cluster workers always) a worker-local tracer also captures
    the hot inner spans (``newton.solve``, ``plan.compile``), shipped as
    plain tuples under ``"spans"``.  :func:`record_worker_timing` lays
    the dict onto the parent's metrics and trace.
    """
    tracer = Tracer() if trace else None
    results: List[Tuple[int, object]] = []
    timings: List[Tuple[int, float, int]] = []
    run_chunk = _chunk_runner(task)
    with activate(tracer):
        if run_chunk is not None:
            start = time.perf_counter()
            results = run_chunk(chunk)
            timings.append((
                chunk[0].index,
                time.perf_counter() - start,
                sum(shard.n_samples for shard in chunk),
            ))
        else:
            for shard in chunk:
                start = time.perf_counter()
                results.append(_run_shard(task, shard))
                timings.append(
                    (shard.index, time.perf_counter() - start, shard.n_samples)
                )
    spans = [] if tracer is None else [
        (rec["name"], rec["start_s"], rec["dur_s"], rec["args"])
        for rec in tracer.records
        if rec["ph"] == "X" and rec["name"] in _SHIPPED_SPANS
    ]
    return results, {"pid": os.getpid(), "shards": timings, "spans": spans}


def record_worker_timing(timing: dict, start: float, executor_kind: str,
                         **lane) -> None:
    """Lay one chunk's worker-measured timing onto the parent.

    Every shard duration goes into ``repro_shard_seconds``, traced or
    not.  Under an active tracer the shards become consecutive
    ``shard.execute`` spans from *start* (a ``time.perf_counter``
    reading: the chunk ran back to back from roughly then), stamped
    with the worker's pid and the *lane* attributes, and the shipped
    inner spans land on the same lane — a faithful per-worker lane in
    the Chrome view.  Shared by the process pool and the cluster
    coordinator.
    """
    tracer = current_tracer()
    pid = timing.get("pid")
    base = None if tracer is None else tracer.offset(start)
    cursor = base
    for index, duration, n_samples in timing.get("shards", ()):
        _SHARD_SECONDS.observe(duration)
        if tracer is not None:
            tracer.add_span(
                "shard.execute", cursor, duration, pid=pid, shard=index,
                samples=n_samples, executor=executor_kind, **lane,
                worker_pid=pid,
            )
            cursor += duration
    if tracer is None:
        return
    for name, start_s, dur_s, args in timing.get("spans", ()):
        tracer.add_span(name, base + start_s, dur_s, pid=pid, **lane,
                        worker_pid=pid, **args)


def _warmup() -> bool:
    """No-op worker task used by :meth:`ParallelExecutor.warm`."""
    return True


class Executor:
    """Protocol: something that can run a task over a batch of shards."""

    #: Degree of parallelism (1 for serial).
    workers: int = 1
    #: Human-readable kind used in runtime metadata.
    kind: str = "serial"

    def map_shards(self, task, shards: Sequence[Shard]):
        raise NotImplementedError

    def warm(self) -> None:
        """Spin up pooled resources ahead of time (no-op for serial).

        Call before timing-sensitive runs so worker start-up is not
        charged to the first workload.
        """

    def close(self) -> None:
        """Release any pooled resources (no-op for serial)."""


class SerialExecutor(Executor):
    """In-process, in-order execution — the workers=1 reference."""

    workers = 1
    kind = "serial"

    def map_shards(self, task, shards: Sequence[Shard]) -> List[Tuple[int, object]]:
        run_chunk = _chunk_runner(task)
        if run_chunk is not None and len(shards) > 1:
            # Coalesced execution: the whole wave is one batched call
            # (and one shard.execute span covering it).
            start = time.perf_counter()
            with span("shard.execute", shard=shards[0].index,
                      shards=len(shards),
                      samples=sum(s.n_samples for s in shards),
                      executor=self.kind, coalesced=True):
                results = run_chunk(shards)
            _SHARDS.inc(len(shards))
            _SHARD_SECONDS.observe(time.perf_counter() - start)
            return results
        results = []
        for shard in shards:
            start = time.perf_counter()
            with span("shard.execute", shard=shard.index,
                      samples=shard.n_samples, executor=self.kind):
                results.append(_run_shard(task, shard))
            _SHARDS.inc()
            _SHARD_SECONDS.observe(time.perf_counter() - start)
        return results


class ParallelExecutor(Executor):
    """Process-pool execution with graceful serial degradation.

    The pool is created lazily on first use and reused across waves and
    runs (worker start-up is paid once per session, not per wave).
    """

    kind = "process-pool"

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError("ParallelExecutor needs >= 2 workers; "
                             "use SerialExecutor for serial runs")
        self.workers = int(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Guards pool creation.  One executor instance is shared by
        #: every concurrent ``Session.submit`` handle (and by the
        #: analysis service's whole job pool), whose driver threads call
        #: :meth:`map_shards` concurrently.
        self._lock = threading.Lock()
        #: Per-driver-thread state: the degradation flag (see
        #: :attr:`degraded`) and the picklability probe memo
        #: (``(task, degraded_reason)``).  Thread-local on both counts:
        #: concurrent runs sharing this executor must not read each
        #: other's reasons, and a run's task is fixed across its waves,
        #: so per-thread memoization avoids re-serializing the whole
        #: task every wave without racing other runs' probes.
        self._local = threading.local()

    @property
    def degraded(self) -> Optional[str]:
        """Why this thread's last ``map_shards`` call degraded to serial.

        ``None`` when it ran on the pool.  Thread-local: the runner
        reads it right after each wave on the run's own driver thread,
        so concurrent runs sharing the executor each see only their own
        task's degradation.
        """
        return getattr(self._local, "degraded", None)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def warm(self) -> None:
        """Start every worker process now (they otherwise spawn lazily)."""
        pool = self._ensure_pool()
        for future in [pool.submit(_warmup) for _ in range(self.workers)]:
            future.result()

    def map_shards(self, task, shards: Sequence[Shard]) -> List[Tuple[int, object]]:
        probed = getattr(self._local, "probed", None)
        if probed is None or probed[0] is not task:
            # The probe is also where the pickle cost is measured: the
            # byte count recorded here is exactly what each chunk
            # submission re-serializes across the process boundary.
            with span("executor.pickle") as sp:
                try:
                    task_bytes = len(pickle.dumps(task))
                    probed = (task, None, task_bytes)
                    sp.set(bytes=task_bytes)
                except Exception as exc:  # unpicklable -> identical serial run
                    probed = (
                        task,
                        f"task not picklable ({type(exc).__name__}: {exc})",
                        0,
                    )
                    record_degradation(self.kind)
            self._local.probed = probed
        self._local.degraded = probed[1]
        if probed[1] is not None:
            return SerialExecutor().map_shards(task, shards)
        pool = self._ensure_pool()
        # Round-robin chunks, one per worker: shards are homogeneous in
        # size, so static chunking balances load while pickling the task
        # once per chunk instead of once per shard.
        n_chunks = min(self.workers, len(shards))
        chunks = [list(shards[i::n_chunks]) for i in range(n_chunks)]
        trace = current_tracer() is not None
        with span("executor.submit", chunks=n_chunks, shards=len(shards),
                  task_bytes=probed[2]):
            submitted = time.perf_counter()
            futures = [
                pool.submit(_run_shard_chunk, task, chunk, trace)
                for chunk in chunks
            ]
        _PICKLE_BYTES.inc(probed[2] * n_chunks)
        results: List[Tuple[int, object]] = []
        for future in futures:
            pairs, timing = future.result()
            results.extend(pairs)
            record_worker_timing(timing, submitted, self.kind)
        _SHARDS.inc(len(shards))
        return results

    def close(self) -> None:
        """Shut the pool down.  Idempotent: the pool reference is taken
        before shutdown, so concurrent or repeated calls are no-ops."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        # Never raise here: at interpreter shutdown the attributes (or
        # the modules shutdown() needs) may already be gone, and GC
        # runs __del__ at arbitrary moments.
        try:
            if getattr(self, "_pool", None) is not None:
                self.close()
        except BaseException:
            pass


def resolve_executor(
    executor: Union[None, int, str, Executor],
) -> Executor:
    """Normalize a user-facing executor selection to an instance.

    ``None`` or ``1`` mean serial; an integer >= 2 builds a process
    pool of that many workers; a ``"tcp://host:port"`` string binds a
    cluster coordinator there (:class:`repro.cluster.ClusterExecutor`);
    an :class:`Executor` instance passes through untouched.
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    if isinstance(executor, str):
        if executor.startswith("tcp://"):
            from repro.cluster import ClusterExecutor

            return ClusterExecutor(executor)
        raise ValueError(
            f"unrecognized executor address {executor!r} "
            f"(expected 'tcp://host:port')"
        )
    workers = int(executor)
    if workers <= 1:
        return SerialExecutor()
    return ParallelExecutor(workers)
