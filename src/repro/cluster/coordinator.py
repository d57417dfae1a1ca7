"""Coordinator side of the elastic cluster executor.

:class:`ClusterExecutor` implements the :class:`repro.runtime.Executor`
protocol — ``map_shards(task, shards)`` — over TCP: it listens on a
``tcp://host:port`` address, worker agents (:mod:`repro.cluster.worker`)
dial in, and every wave the runner dispatches is partitioned into
**leases** (contiguous chunks of shards) handed to connected workers.

The design never touches the seed contract: the shard partition and
every shard's stream come from the plan (ROADMAP Conventions PR 3/10),
leases are pure scheduling, and the runner still merges results in
shard-index order.  That is what makes every failure-handling policy
here *legal*:

* **lease expiry / worker death → reshard**: an un-completed lease's
  shards go back on the queue and surviving workers pick them up
  (work stealing).  Re-executing a shard draws the identical stream.
* **first-completion-wins**: results are keyed by shard index; the
  first payload for an index is kept, later duplicates (a voided
  lease's late result, an injected duplicate frame) are counted and
  dropped.  Duplicates are bit-identical by the shard/seed contract,
  so suppression order cannot change the envelope.
* **coordinator crash → checkpoint resume**: the runner checkpoints
  accumulator state at wave boundaries; a crashed coordinator's run
  resumes from the last wave on a fresh executor
  (``Execution(checkpoint=...)``), exactly like the single-host path.

Liveness is heartbeat-based: workers send periodic heartbeats, any
inbound frame refreshes ``last_seen``, and a worker silent for longer
than ``heartbeat_timeout`` is declared dead.  Each lease additionally
carries its own ``lease_timeout`` deadline so a wedged-but-heartbeating
worker cannot stall a wave forever.

Observability (scheduling-side only, per the PR-8 contract): a
``cluster.dispatch`` span per wave, a synthesized ``cluster.lease``
span per completed lease, ``cluster.retry`` / ``worker.heartbeat``
events, per-shard ``shard.execute`` spans rebuilt from worker-measured
timings, and gauges/counters for live workers, leases in flight,
retries, stolen shards and suppressed duplicates.  Telemetry never
steers scheduling and results are bit-identical with or without it.

Failure injection for tests rides on :class:`FaultInjector` hooks at
the coordinator's decision points (inbound frame, heartbeat, lease
dispatch, result acceptance), so the failure matrix in
``tests/test_cluster.py`` is deterministic rather than timing-raced.
"""

from __future__ import annotations

import hmac
import os
import pickle
import queue
import socket
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.wire import (
    PROTOCOL,
    WireError,
    read_frame,
    restricted_loads,
    write_frame,
)
from repro.obs import default_registry
from repro.obs.trace import current_tracer, event, span
from repro.runtime.executors import (
    _SHARDS, Executor, SerialExecutor, record_degradation,
    record_worker_timing,
)
from repro.runtime.sharding import Shard

__all__ = [
    "ClusterExecutor",
    "ClusterWorkerError",
    "CoordinatorCrash",
    "FaultInjector",
    "ScriptedFaults",
    "parse_address",
]

_REGISTRY = default_registry()
_WORKERS_G = _REGISTRY.gauge(
    "repro_cluster_workers", "Cluster workers currently connected and live",
)
_LEASES_G = _REGISTRY.gauge(
    "repro_cluster_leases_in_flight", "Leases currently out at workers",
)
_RETRIES_C = _REGISTRY.counter(
    "repro_cluster_retries_total",
    "Leases re-queued after expiry, worker death or injected loss",
)
_STOLEN_C = _REGISTRY.counter(
    "repro_cluster_stolen_shards_total",
    "Shards re-assigned to a surviving worker",
)
_DUPES_C = _REGISTRY.counter(
    "repro_cluster_duplicate_results_total",
    "Shard results suppressed by first-completion-wins",
)


def _is_loopback(host: str) -> bool:
    return (host in ("localhost", "::1", "0:0:0:0:0:0:0:1")
            or host.startswith("127."))


def parse_address(address: str) -> Tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) → ``(host, port)``."""
    spec = address
    if "://" in spec:
        scheme, _, spec = spec.partition("://")
        if scheme != "tcp":
            raise ValueError(f"unsupported cluster scheme {scheme!r} "
                             f"in {address!r} (only tcp://)")
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"cluster address {address!r} must be "
                         f"'tcp://host:port'")
    return host, int(port)


class ClusterWorkerError(RuntimeError):
    """A worker reported a task failure (deterministic, so not retried)."""


class CoordinatorCrash(RuntimeError):
    """Raised by fault injection to simulate the coordinator dying.

    Escapes ``map_shards`` mid-run, abandoning outstanding leases —
    recovery is the runner's wave-boundary checkpoint, exactly as for a
    real coordinator death.
    """


class FaultInjector:
    """Deterministic failure injection at coordinator decision points.

    The default implementation injects nothing.  Tests subclass (or use
    :class:`ScriptedFaults`) to drive the failure matrix through these
    hooks instead of racing real timeouts; every hook runs at a fixed,
    observable point in the protocol, so outcomes are reproducible.
    """

    def on_heartbeat(self, worker: "_RemoteWorker") -> Optional[str]:
        """Inbound heartbeat.  ``"drop"`` discards it, so the worker's
        liveness is *not* refreshed (a delayed/black-holed heartbeat)."""
        return None

    def on_frame(self, worker: "_RemoteWorker", header: dict) -> Optional[str]:
        """Any other inbound frame.  ``"drop"`` discards it (a lost
        result frame — recovered by the lease deadline); ``"duplicate"``
        delivers a result frame twice (suppression must absorb it)."""
        return None

    def on_dispatch(self, worker: "_RemoteWorker", lease: "_Lease") -> Optional[str]:
        """After a lease frame is sent.  ``"kill"`` voids the lease
        immediately, as if the worker vanished the moment it was
        dispatched.  Side-effecting hooks (e.g. SIGKILLing the worker
        process) run here too."""
        return None

    def on_accept(self, accepted: int) -> None:
        """After the *accepted*-th result frame is applied.  Raise
        :class:`CoordinatorCrash` to simulate the coordinator dying
        between wave boundaries."""


@dataclass
class ScriptedFaults(FaultInjector):
    """Counter-based :class:`FaultInjector` covering the test matrix."""

    #: Void the first N dispatched leases right after sending.
    kill_leases: int = 0
    #: Discard the first N inbound result frames.
    drop_results: int = 0
    #: Deliver the first N result frames twice.
    duplicate_results: int = 0
    #: Discard *every* frame (heartbeats and results) from this worker
    #: name — a connected-but-dead worker for heartbeat-timeout tests.
    blackhole: Optional[str] = None
    #: Raise :class:`CoordinatorCrash` after this many accepted results,
    #: counted across the whole executor lifetime (waves reset their own
    #: counters, so the injector keeps its own running total — a crash
    #: can then land in wave 2+, after a checkpoint exists to resume).
    crash_after_results: Optional[int] = None
    #: Optional callable ``(worker, lease) -> None`` run on dispatch
    #: (e.g. SIGKILL the worker's pid).  Runs once per distinct worker.
    on_dispatch_hook: Optional[object] = None
    dispatched_to: set = field(default_factory=set)
    results_seen: int = 0

    def on_heartbeat(self, worker):
        if self.blackhole is not None and worker.name == self.blackhole:
            return "drop"
        return None

    def on_frame(self, worker, header):
        if self.blackhole is not None and worker.name == self.blackhole:
            return "drop"
        if header.get("type") == "result":
            if self.drop_results > 0:
                self.drop_results -= 1
                return "drop"
            if self.duplicate_results > 0:
                self.duplicate_results -= 1
                return "duplicate"
        return None

    def on_dispatch(self, worker, lease):
        if self.on_dispatch_hook is not None \
                and worker.name not in self.dispatched_to:
            self.dispatched_to.add(worker.name)
            self.on_dispatch_hook(worker, lease)
        if self.kill_leases > 0:
            self.kill_leases -= 1
            return "kill"
        return None

    def on_accept(self, accepted):
        if self.crash_after_results is None:
            return
        self.results_seen += 1
        if self.results_seen >= self.crash_after_results:
            raise CoordinatorCrash(
                f"fault injection: coordinator crash after "
                f"{self.results_seen} results"
            )


class _RemoteWorker:
    """Coordinator-side view of one connected worker agent."""

    def __init__(self, name: str, conn: socket.socket, addr, seq: int):
        self.name = name
        self.conn = conn
        self.addr = addr
        self.seq = seq
        self.pid: Optional[int] = None
        self.concurrency = 1
        self.alive = True
        self.last_seen = time.monotonic()
        #: Leases currently out at this worker (lease id -> _Lease).
        self.leases: Dict[int, "_Lease"] = {}
        #: Run generations whose task blob this connection has received.
        self.sent_runs: set = set()
        self.send_lock = threading.Lock()

    def send(self, header: dict, blob: bytes = b"") -> None:
        with self.send_lock:
            write_frame(self.conn, header, blob)


@dataclass
class _Lease:
    """One dispatched chunk of shards and its lifecycle."""

    lease_id: int
    shards: Tuple[Shard, ...]
    worker: str
    issued: float
    deadline: float
    #: "out" -> "done" (result applied) or "void" (expired/stolen;
    #: a late result is still applied under first-completion-wins).
    status: str = "out"
    retries: int = 0


class _RunState:
    """Book-keeping of one ``map_shards`` call (one dispatch wave)."""

    def __init__(self, gen: int, blob: bytes, shards: Sequence[Shard]):
        self.gen = gen
        self.blob = blob
        self.total = len(shards)
        self.completed: Dict[int, object] = {}
        self.queue: deque = deque()
        self.leases: Dict[int, _Lease] = {}
        #: Times each shard index has been re-queued (poisoned-chunk cap).
        self.shard_retries: Dict[int, int] = {}
        self.accepted = 0
        self.retries = 0
        self.stolen = 0
        self.duplicates = 0


class ClusterExecutor(Executor):
    """Lease-based coordinator implementing ``Executor`` over TCP.

    Binds *address* (``tcp://host:port``; port 0 picks an ephemeral
    port — the resolved address is :attr:`address`), accepts worker
    agents as they dial in, and schedules every ``map_shards`` wave
    over whoever is connected at dispatch time.  Workers may join,
    leave, die and reconnect at any moment; the envelope is
    bit-identical throughout (the shard/seed contract — scheduling
    never touches streams).

    Concurrent ``map_shards`` calls (e.g. several service jobs sharing
    the daemon's executor) serialize on an internal dispatch lock:
    waves interleave across runs, workers are shared, correctness is
    per-wave.
    """

    kind = "cluster"

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        heartbeat_timeout: float = 15.0,
        lease_timeout: float = 120.0,
        min_workers: int = 1,
        worker_wait: float = 60.0,
        max_lease_retries: int = 8,
        allow_modules: Tuple[str, ...] = ("repro",),
        faults: Optional[FaultInjector] = None,
        token: Optional[str] = None,
    ):
        host, port = parse_address(address)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.lease_timeout = float(lease_timeout)
        self.min_workers = int(min_workers)
        self.worker_wait = float(worker_wait)
        self.max_lease_retries = int(max_lease_retries)
        self.allow_modules = tuple(allow_modules)
        self.faults = faults if faults is not None else FaultInjector()
        # Shared-secret handshake: a worker's hello must carry the same
        # token or it is refused before registration.  Defaults to the
        # REPRO_CLUSTER_TOKEN environment variable so the Session
        # string/`serve --cluster` paths pick it up without plumbing.
        if token is None:
            token = os.environ.get("REPRO_CLUSTER_TOKEN") or None
        self.token = token

        self._workers: Dict[str, _RemoteWorker] = {}
        #: Signaled on every membership change (join/death).
        self._membership = threading.Condition()
        self._events: "queue.Queue" = queue.Queue()
        self._closed = False
        self._worker_seq = 0
        self._lease_seq = 0
        self._gen_seq = 0
        self._gen_lock = threading.Lock()
        #: One wave in flight at a time (see class docstring).
        self._dispatch_lock = threading.Lock()
        self._local = threading.local()

        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.address = f"tcp://{self.host}:{self.port}"
        if self.token is None and not _is_loopback(self.host):
            warnings.warn(
                f"cluster coordinator is listening on {self.address} "
                f"without a token: any peer that can reach the port can "
                f"register as a worker and inject results.  Pass "
                f"token=... (or set REPRO_CLUSTER_TOKEN) unless the "
                f"network is trusted.",
                RuntimeWarning, stacklevel=2,
            )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name=f"repro-cluster-accept-{self.port}",
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------
    # Executor protocol surface.
    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Live worker count (elastic; >= 1 so wave sizing stays sane)."""
        with self._membership:
            return max(1, sum(1 for w in self._workers.values() if w.alive))

    @property
    def degraded(self) -> Optional[str]:
        """Why this thread's last call degraded to serial (``None``: ran
        on the cluster).  Same contract as ``ParallelExecutor``."""
        return getattr(self._local, "degraded", None)

    def warm(self) -> None:
        """Block until ``min_workers`` agents are connected."""
        self._wait_for_workers()

    def close(self) -> None:
        """Shut the listener and every worker connection down.

        Idempotent.  Connected workers receive a ``shutdown`` frame and
        treat it as a disconnect (they keep retrying with backoff, so
        they survive coordinator restarts).
        """
        if self._closed:
            return
        self._closed = True
        # On Linux close() alone does not wake a thread blocked in
        # accept(); shutdown() does, so the join below returns at once.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._membership:
            workers = list(self._workers.values())
            self._workers.clear()
            self._membership.notify_all()
        for worker in workers:
            try:
                worker.send({"type": "shutdown"})
            except (OSError, WireError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        _WORKERS_G.set(0)
        self._accept_thread.join(timeout=5.0)

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except BaseException:
            pass

    # ------------------------------------------------------------------
    # Connection handling (accept + per-worker reader threads).
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_conn, args=(conn, addr), daemon=True,
                name=f"repro-cluster-conn-{addr[1]}",
            ).start()

    def _register(self, hello: dict, conn, addr) -> _RemoteWorker:
        with self._membership:
            self._worker_seq += 1
            base = str(hello.get("name") or f"{addr[0]}:{addr[1]}")
            name = base
            # A reconnecting worker may reuse its name once the old
            # incarnation is gone; a genuinely duplicate name gets a
            # unique suffix so lease accounting never conflates them.
            existing = self._workers.get(name)
            if existing is not None and existing.alive:
                name = f"{base}#{self._worker_seq}"
            worker = _RemoteWorker(name, conn, addr, self._worker_seq)
            worker.pid = hello.get("pid")
            worker.concurrency = max(1, int(hello.get("concurrency") or 1))
            self._workers[name] = worker
            live = sum(1 for w in self._workers.values() if w.alive)
            self._membership.notify_all()
        _WORKERS_G.set(live)
        event("cluster.join", worker=name, pid=worker.pid,
              concurrency=worker.concurrency)
        return worker

    def _serve_conn(self, conn: socket.socket, addr) -> None:
        worker: Optional[_RemoteWorker] = None
        reason = "closed"
        try:
            frame = read_frame(conn, self.allow_modules)
            if frame is None or frame[0].get("type") != "hello":
                conn.close()
                return
            hello = frame[0]
            if hello.get("protocol") != PROTOCOL:
                write_frame(conn, {"type": "error",
                                   "error": f"protocol {PROTOCOL} required"})
                conn.close()
                return
            if self.token is not None and not hmac.compare_digest(
                str(hello.get("token") or ""), self.token
            ):
                # Refused before registration: an unauthenticated peer
                # never receives task blobs and never holds a lease.
                write_frame(conn, {"type": "error", "code": "auth",
                                   "error": "bad or missing cluster token"})
                conn.close()
                event("cluster.auth-reject", addr=f"{addr[0]}:{addr[1]}")
                return
            worker = self._register(hello, conn, addr)
            worker.send({
                "type": "welcome", "protocol": PROTOCOL,
                "heartbeat_timeout": self.heartbeat_timeout,
            })
            self._events.put(("join", worker, None, b""))
            while True:
                frame = read_frame(conn, self.allow_modules)
                if frame is None:
                    break
                header, blob = frame
                if header.get("type") == "heartbeat":
                    if self.faults.on_heartbeat(worker) == "drop":
                        continue
                    worker.last_seen = time.monotonic()
                    event("worker.heartbeat", worker=worker.name)
                    continue
                verdict = self.faults.on_frame(worker, header)
                if verdict == "drop":
                    continue
                worker.last_seen = time.monotonic()
                self._events.put(("frame", worker, header, blob))
                if verdict == "duplicate":
                    self._events.put(("frame", worker, header, blob))
        except WireError as exc:
            reason = f"wire error: {exc}"
        except OSError as exc:
            reason = f"connection error: {exc}"
        finally:
            try:
                conn.close()
            except OSError:
                pass
            if worker is not None:
                self._mark_dead(worker, reason)
                self._events.put(("gone", worker, reason, b""))

    def _mark_dead(self, worker: _RemoteWorker, reason: str) -> None:
        with self._membership:
            if not worker.alive:
                return
            worker.alive = False
            if self._workers.get(worker.name) is worker:
                del self._workers[worker.name]
            live = sum(1 for w in self._workers.values() if w.alive)
            self._membership.notify_all()
        _WORKERS_G.set(live)
        event("cluster.leave", worker=worker.name, reason=reason)
        try:
            worker.conn.close()
        except OSError:
            pass

    def _live_workers(self) -> List[_RemoteWorker]:
        with self._membership:
            return sorted(
                (w for w in self._workers.values() if w.alive),
                key=lambda w: w.seq,
            )

    def _wait_for_workers(self) -> None:
        deadline = time.monotonic() + self.worker_wait
        with self._membership:
            while True:
                live = sum(1 for w in self._workers.values() if w.alive)
                if live >= self.min_workers:
                    return
                if self._closed:
                    raise RuntimeError("cluster executor is closed")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"no cluster workers: {live} connected after "
                        f"{self.worker_wait:.0f}s (need {self.min_workers}; "
                        f"start agents with 'python -m repro worker "
                        f"--connect {self.host}:{self.port}')"
                    )
                self._membership.wait(timeout=min(remaining, 0.5))

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def map_shards(self, task, shards: Sequence[Shard]) -> List[Tuple[int, object]]:
        if not shards:
            return []
        # Picklability probe, memoized per (driver thread, task) like
        # ParallelExecutor: an unpicklable task degrades to an identical
        # serial run (the shard/seed contract makes that safe).
        probed = getattr(self._local, "probed", None)
        if probed is None or probed[0] is not task:
            with span("executor.pickle") as sp:
                try:
                    blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
                    with self._gen_lock:
                        self._gen_seq += 1
                        gen = self._gen_seq
                    probed = (task, None, blob, gen)
                    sp.set(bytes=len(blob))
                except Exception as exc:
                    probed = (
                        task,
                        f"task not picklable ({type(exc).__name__}: {exc})",
                        None, None,
                    )
                    record_degradation(self.kind)
            self._local.probed = probed
        self._local.degraded = probed[1]
        if probed[1] is not None:
            return SerialExecutor().map_shards(task, shards)
        with self._dispatch_lock:
            try:
                return self._dispatch_wave(probed[3], probed[2], shards)
            finally:
                _LEASES_G.set(0)

    def _dispatch_wave(
        self, gen: int, blob: bytes, shards: Sequence[Shard]
    ) -> List[Tuple[int, object]]:
        self._wait_for_workers()
        # A wave that aborted mid-flight (ClusterWorkerError, injected
        # coordinator crash, lease give-up) leaves its in-flight leases
        # in worker.leases.  Under _dispatch_lock no other wave can be
        # active, so anything still there is stale: drop it, or every
        # such lease would hold one of the worker's concurrency slots
        # forever (with the default concurrency=1, a shared daemon
        # executor would deadlock after one failing job).
        with self._membership:
            for worker in self._workers.values():
                worker.leases.clear()
        state = _RunState(gen, blob, shards)
        # Contiguous chunks, ~2 per worker slot: small enough that a
        # fast worker can steal queued work from a slow one, large
        # enough that the coalescing path still batches several shards
        # per Newton solve.  Pure scheduling — any partition yields the
        # same envelope.
        slots = sum(w.concurrency for w in self._live_workers())
        n_chunks = min(len(shards), max(1, 2 * slots))
        size = -(-len(shards) // n_chunks)
        for i in range(0, len(shards), size):
            state.queue.append(list(shards[i:i + size]))

        with span("cluster.dispatch", shards=len(shards),
                  chunks=len(state.queue), workers=self.workers,
                  gen=gen) as sp:
            while len(state.completed) < state.total:
                if not self._live_workers():
                    # Everyone died mid-wave: block for replacements
                    # (elastic — new agents pick the queue back up) or
                    # fail loudly after worker_wait.
                    self._wait_for_workers()
                self._fill(state)
                self._pump(state)
                self._sweep(state)
            sp.set(retries=state.retries, stolen=state.stolen,
                   duplicates=state.duplicates)
        _RETRIES_C.inc(0)  # materialize the counter even on clean runs
        return sorted(state.completed.items())

    def _fill(self, state: _RunState) -> None:
        """Hand queued chunks to every worker with a free slot."""
        for worker in self._live_workers():
            while (worker.alive and state.queue
                   and len(worker.leases) < worker.concurrency):
                chunk = [s for s in state.queue.popleft()
                         if s.index not in state.completed]
                if not chunk:
                    continue
                self._send_lease(state, worker, chunk)

    def _send_lease(self, state: _RunState, worker: _RemoteWorker,
                    chunk: List[Shard]) -> None:
        self._lease_seq += 1
        now = time.monotonic()
        lease = _Lease(
            lease_id=self._lease_seq, shards=tuple(chunk),
            worker=worker.name, issued=now,
            deadline=now + self.lease_timeout,
            retries=max((state.shard_retries.get(s.index, 0)
                         for s in chunk), default=0),
        )
        state.leases[lease.lease_id] = lease
        worker.leases[lease.lease_id] = lease
        try:
            if state.gen not in worker.sent_runs:
                worker.send({"type": "task", "run": state.gen}, state.blob)
                worker.sent_runs.add(state.gen)
            worker.send({
                "type": "lease", "lease": lease.lease_id, "run": state.gen,
                "shards": [
                    {"index": s.index, "start": s.start, "stop": s.stop,
                     "base_seed": s.base_seed,
                     "spawn_prefix": list(s.spawn_prefix),
                     "unsharded": s.unsharded}
                    for s in chunk
                ],
            })
        except (OSError, WireError) as exc:
            self._mark_dead(worker, f"send failed: {exc}")
            self._void_lease(state, lease, f"send failed: {exc}")
            return
        _LEASES_G.set(sum(1 for l in state.leases.values()
                          if l.status == "out"))
        if self.faults.on_dispatch(worker, lease) == "kill":
            self._void_lease(state, lease, "fault-injected lease kill")

    def _void_lease(self, state: _RunState, lease: _Lease,
                    reason: str) -> None:
        """Expire a lease: its incomplete shards go back on the queue."""
        if lease.status != "out":
            return
        lease.status = "void"
        worker = self._workers.get(lease.worker)
        if worker is not None:
            worker.leases.pop(lease.lease_id, None)
        remaining = [s for s in lease.shards
                     if s.index not in state.completed]
        if lease.retries >= self.max_lease_retries:
            raise RuntimeError(
                f"lease {lease.lease_id} failed {lease.retries} times "
                f"({reason}); giving up"
            )
        if remaining:
            chunk = list(remaining)
            state.queue.appendleft(chunk)
            state.stolen += len(chunk)
            _STOLEN_C.inc(len(chunk))
            for shard in chunk:
                state.shard_retries[shard.index] = (
                    state.shard_retries.get(shard.index, 0) + 1
                )
        state.retries += 1
        _RETRIES_C.inc()
        event("cluster.retry", lease=lease.lease_id, worker=lease.worker,
              shards=len(remaining), reason=reason)
        _LEASES_G.set(sum(1 for l in state.leases.values()
                          if l.status == "out"))

    def _pump(self, state: _RunState) -> None:
        """Wait for (and apply) the next protocol event."""
        timeout = self._next_deadline(state)
        try:
            kind, worker, header, blob = self._events.get(timeout=timeout)
        except queue.Empty:
            return
        while True:
            if kind == "frame":
                self._handle_frame(state, worker, header, blob)
            elif kind == "gone":
                # Only leases of the *current* wave may be requeued: a
                # stale lease from an aborted run holds that run's Shard
                # objects, and resharding those into this wave would
                # merge foreign results into state.completed.
                for lease in list(worker.leases.values()):
                    if state.leases.get(lease.lease_id) is lease:
                        self._void_lease(state, lease,
                                         f"worker died ({header})")
                worker.leases.clear()
            # "join" is a pure wakeup; _fill sees the new worker.
            try:
                kind, worker, header, blob = self._events.get_nowait()
            except queue.Empty:
                return

    def _next_deadline(self, state: _RunState) -> float:
        """Time until the earliest lease/liveness deadline (bounded)."""
        now = time.monotonic()
        horizon = now + 0.5
        for lease in state.leases.values():
            if lease.status == "out":
                horizon = min(horizon, lease.deadline)
        for worker in self._live_workers():
            horizon = min(horizon,
                          worker.last_seen + self.heartbeat_timeout)
        return max(0.01, horizon - now)

    def _handle_frame(self, state: _RunState, worker: _RemoteWorker,
                      header: dict, blob: bytes) -> None:
        kind = header.get("type")
        if kind == "result":
            self._apply_result(state, worker, header, blob)
        elif kind == "error":
            lease = state.leases.get(header.get("lease"))
            if lease is None:
                # Stale error from a wave that already aborted: free the
                # slot its lease may still hold, but never let it abort
                # (or reshard) the current wave.
                worker.leases.pop(header.get("lease"), None)
                return
            if header.get("code") == "unknown-run":
                # The worker evicted (or never got) this run's task —
                # re-send on the next lease to it.
                worker.sent_runs.discard(state.gen)
                self._void_lease(state, lease, "worker missed task blob")
            else:
                # A task exception is deterministic — every worker would
                # raise it on the same shard — so it propagates like the
                # serial path instead of burning retries.
                raise ClusterWorkerError(
                    f"worker {worker.name} failed lease "
                    f"{header.get('lease')}: {header.get('error')}"
                )

    def _apply_result(self, state: _RunState, worker: _RemoteWorker,
                      header: dict, blob: bytes) -> None:
        lease = state.leases.get(header.get("lease"))
        if lease is None:
            # Stale frame from a wave that aborted mid-flight: its
            # payload is never merged, but the slot the lease was
            # holding must come back or the worker permanently loses
            # one unit of concurrency.
            worker.leases.pop(header.get("lease"), None)
            return
        try:
            pairs, timing = restricted_loads(blob, self.allow_modules)
        except WireError as exc:
            self._mark_dead(worker, f"bad result frame: {exc}")
            self._void_lease(state, lease, f"bad result frame: {exc}")
            return
        was_void = lease.status == "void"
        fresh = 0
        for index, payload in pairs:
            if index in state.completed:
                state.duplicates += 1
                _DUPES_C.inc()
            else:
                state.completed[index] = payload
                fresh += 1
        if lease.status == "out":
            lease.status = "done"
            worker.leases.pop(lease.lease_id, None)
            _LEASES_G.set(sum(1 for l in state.leases.values()
                              if l.status == "out"))
        elif was_void:
            lease.status = "done"
        _SHARDS.inc(fresh)  # each shard once, at its first result
        self._synthesize_spans(worker, lease, timing, fresh)
        state.accepted += 1
        self.faults.on_accept(state.accepted)

    def _synthesize_spans(self, worker: _RemoteWorker, lease: _Lease,
                          timing: dict, fresh: int) -> None:
        """Worker-measured timings → parent-side metrics and timeline.

        :func:`~repro.runtime.executors.record_worker_timing`, as for
        ``ParallelExecutor``, from the lease's issue time and stamped
        with the worker's name, plus one ``cluster.lease`` span covering
        the lease round trip.
        """
        now = time.monotonic()
        start = time.perf_counter() - (now - lease.issued)
        tracer = current_tracer()
        if tracer is not None:
            tracer.add_span(
                "cluster.lease", tracer.offset(start), now - lease.issued,
                worker=worker.name, lease=lease.lease_id,
                shards=len(lease.shards), fresh=fresh, stolen=lease.status,
            )
        record_worker_timing(timing, start, self.kind, worker=worker.name)

    def _sweep(self, state: _RunState) -> None:
        """Deadline pass: silent workers and expired leases."""
        now = time.monotonic()
        for worker in self._live_workers():
            if now - worker.last_seen > self.heartbeat_timeout:
                self._mark_dead(
                    worker,
                    f"heartbeat timeout ({self.heartbeat_timeout:.3g}s)",
                )
                for lease in list(worker.leases.values()):
                    if state.leases.get(lease.lease_id) is lease:
                        self._void_lease(state, lease,
                                         "worker heartbeat timeout")
                worker.leases.clear()
        for lease in list(state.leases.values()):
            if lease.status == "out" and now > lease.deadline:
                self._void_lease(
                    state, lease,
                    f"lease timeout ({self.lease_timeout:.3g}s)",
                )
