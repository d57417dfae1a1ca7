"""Worker agent: the pull side of the cluster protocol.

``python -m repro worker --connect host:port [--concurrency N]`` runs
one agent: it dials the coordinator, announces itself (``hello`` with
name/pid/concurrency), and then serves leases — each lease is a chunk
of shards executed through the *same* coalescing path the process-pool
executor uses (:func:`repro.runtime.executors._run_shard_chunk`,
so ``FactoryMapTask.run_chunk`` batching, the per-process compiled-plan
cache, and the shipped ``newton.solve``/``plan.compile`` spans all
behave identically).  Results stream back as one frame per lease:
``(pairs, timing)`` pickled in the blob, per-shard timings riding along
for the coordinator's synthesized ``shard.execute`` lanes.

The agent is deliberately stateless across connections: task blobs are
cached per run generation (small LRU; a miss answers the lease with an
``unknown-run`` error and the coordinator re-sends), and a lost
connection — coordinator restart, network blip — is retried forever
with exponential backoff, which is what makes the fleet elastic:
workers can be started before the coordinator exists and survive it
being replaced.

Heartbeats go out from a dedicated thread at ``heartbeat_interval``
while connected, independent of lease execution, so a busy worker is
never mistaken for a dead one (the coordinator refreshes liveness on
*any* frame, results included).

Trust is symmetric with the coordinator: inbound frames are validated
by :func:`repro.cluster.wire.read_frame` and task blobs decoded with
:func:`repro.cluster.wire.restricted_loads` under the same module-root
allowlist (``--allow-module``, default ``repro``), so a rogue
coordinator cannot make a worker import ``os:system`` either.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.coordinator import parse_address
from repro.cluster.wire import (
    PROTOCOL,
    WireError,
    read_frame,
    restricted_loads,
    write_frame,
)
from repro.obs import get_logger, log_event
from repro.runtime.executors import _run_shard_chunk
from repro.runtime.sharding import Shard

import pickle

__all__ = ["WorkerConfig", "WorkerAgent"]

_LOG = get_logger("cluster.worker")

#: Task blobs kept per connection; a miss is recoverable (the
#: coordinator re-sends on an ``unknown-run`` error), so the cache can
#: stay small.
_TASK_CACHE_SIZE = 8


@dataclass(frozen=True)
class WorkerConfig:
    """One agent's knobs (the ``python -m repro worker`` flags)."""

    #: Coordinator address: ``host:port`` or ``tcp://host:port``.
    connect: str
    #: Advertised name (default ``<hostname>-<pid>``); the coordinator
    #: uniquifies collisions.
    name: Optional[str] = None
    #: Concurrent leases this agent executes (threads; useful when the
    #: workload releases the GIL in the numpy/LAPACK kernels).
    concurrency: int = 1
    heartbeat_interval: float = 1.0
    #: Exponential reconnect backoff: base * 2^attempt, capped.
    reconnect_base: float = 0.1
    reconnect_cap: float = 5.0
    #: Give up after this many consecutive failed connects (None: retry
    #: forever — the elastic default).
    max_connects: Optional[int] = None
    allow_modules: Tuple[str, ...] = ("repro",)
    #: Shared secret presented in the hello frame (must match the
    #: coordinator's).  ``None`` falls back to the REPRO_CLUSTER_TOKEN
    #: environment variable; an auth rejection is fatal, not retried.
    token: Optional[str] = None

    def __post_init__(self):
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")


class _AuthRejected(Exception):
    """The coordinator refused our token — reconnecting cannot help."""


class WorkerAgent:
    """One worker: connect, serve leases, reconnect on loss.

    ``run()`` blocks (the CLI entry); ``start()`` runs the same loop on
    a daemon thread for in-process use (tests, embedding).  ``stop()``
    disconnects and ends the loop; ``abort()`` just drops the socket —
    an in-process stand-in for a SIGKILLed agent.
    """

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.name = config.name or f"{socket.gethostname()}-{os.getpid()}"
        self._token = (config.token
                       or os.environ.get("REPRO_CLUSTER_TOKEN") or None)
        self._stop = threading.Event()
        self._conn: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        #: Consecutive failed connects (observable for backoff tests).
        self.connect_failures = 0
        self.leases_served = 0

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "WorkerAgent":
        self._thread = threading.Thread(
            target=self.run, daemon=True, name=f"repro-worker-{self.name}",
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._close_conn()
        if self._thread is not None:
            self._thread.join(timeout)

    def abort(self) -> None:
        """Drop the connection without stopping: simulates a crash (the
        coordinator sees an abrupt disconnect), then reconnects."""
        self._close_conn()

    def _close_conn(self) -> None:
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> int:
        address = parse_address(self.config.connect)
        attempt = 0
        while not self._stop.is_set():
            try:
                conn = socket.create_connection(address, timeout=10.0)
            except OSError as exc:
                attempt += 1
                self.connect_failures += 1
                if (self.config.max_connects is not None
                        and attempt >= self.config.max_connects):
                    log_event(_LOG, "worker.giveup", worker=self.name,
                              attempts=attempt, error=str(exc))
                    return 1
                delay = min(self.config.reconnect_cap,
                            self.config.reconnect_base * (2 ** (attempt - 1)))
                if self._stop.wait(delay):
                    return 0
                continue
            attempt = 0
            conn.settimeout(None)
            self._conn = conn
            try:
                self._serve(conn)
            except _AuthRejected as exc:
                log_event(_LOG, "worker.auth-rejected", worker=self.name,
                          error=str(exc))
                return 1
            except (WireError, OSError) as exc:
                log_event(_LOG, "worker.disconnect", worker=self.name,
                          error=str(exc))
            finally:
                self._conn = None
                try:
                    conn.close()
                except OSError:
                    pass
            # Loop: reconnect with backoff (coordinator restart, blip).
        return 0

    def _serve(self, conn: socket.socket) -> None:
        hello = {
            "type": "hello", "protocol": PROTOCOL, "name": self.name,
            "pid": os.getpid(), "concurrency": self.config.concurrency,
        }
        if self._token is not None:
            hello["token"] = self._token
        write_frame(conn, hello)
        frame = read_frame(conn, self.config.allow_modules)
        if frame is None:
            return
        welcome = frame[0]
        if welcome.get("type") == "error" and welcome.get("code") == "auth":
            raise _AuthRejected(str(welcome.get("error")))
        if welcome.get("type") != "welcome" \
                or welcome.get("protocol") != PROTOCOL:
            raise WireError(f"unexpected handshake reply: {welcome}")
        log_event(_LOG, "worker.connect", worker=self.name,
                  coordinator=self.config.connect)

        send_lock = threading.Lock()
        hb_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat_loop, args=(conn, send_lock, hb_stop),
            daemon=True, name=f"repro-worker-hb-{self.name}",
        )
        heartbeat.start()
        tasks: "OrderedDict[int, object]" = OrderedDict()
        pool = ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix=f"repro-worker-{self.name}",
        )
        try:
            while True:
                frame = read_frame(conn, self.config.allow_modules)
                if frame is None:
                    return
                header, blob = frame
                kind = header.get("type")
                if kind == "task":
                    run = int(header["run"])
                    tasks[run] = restricted_loads(
                        blob, self.config.allow_modules
                    )
                    tasks.move_to_end(run)  # re-sent blob is fresh too
                    while len(tasks) > _TASK_CACHE_SIZE:
                        tasks.popitem(last=False)
                elif kind == "lease":
                    run = int(header["run"])
                    task = tasks.get(run)
                    if task is not None:
                        # True LRU: a lease for a cached run refreshes
                        # its recency, so the coordinator's actively
                        # dispatched blob is the last thing evicted.
                        tasks.move_to_end(run)
                    if task is None:
                        with send_lock:
                            write_frame(conn, {
                                "type": "error", "code": "unknown-run",
                                "lease": header["lease"],
                                "error": f"run {header['run']} not cached",
                            })
                        continue
                    pool.submit(self._execute_lease, conn, send_lock,
                                task, header)
                elif kind == "shutdown":
                    return
        finally:
            hb_stop.set()
            pool.shutdown(wait=False)

    def _heartbeat_loop(self, conn, send_lock, hb_stop) -> None:
        while not hb_stop.wait(self.config.heartbeat_interval):
            try:
                with send_lock:
                    write_frame(conn, {"type": "heartbeat"})
            except (OSError, WireError):
                return

    def _execute_lease(self, conn, send_lock, task, header) -> None:
        lease_id = header["lease"]
        try:
            shards = [
                Shard(index=int(d["index"]), start=int(d["start"]),
                      stop=int(d["stop"]), base_seed=int(d["base_seed"]),
                      spawn_prefix=tuple(int(p) for p in d["spawn_prefix"]),
                      unsharded=bool(d.get("unsharded", False)))
                for d in header["shards"]
            ]
            started = time.perf_counter()
            pairs, timing = _run_shard_chunk(task, shards, trace=True)
            blob = pickle.dumps((pairs, timing),
                                protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            try:
                with send_lock:
                    write_frame(conn, {
                        "type": "error", "code": "task", "lease": lease_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    })
            except (OSError, WireError):
                pass
            return
        try:
            with send_lock:
                write_frame(conn, {
                    "type": "result", "lease": lease_id,
                    "pid": os.getpid(),
                    "wall_s": round(time.perf_counter() - started, 6),
                }, blob)
            self.leases_served += 1
        except (OSError, WireError):
            # Connection died under the result: the coordinator's lease
            # deadline (or our disconnect) triggers the reshard; the
            # re-executed shards draw identical streams, so losing this
            # frame is invisible in the envelope.
            pass
