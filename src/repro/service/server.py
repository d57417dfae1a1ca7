"""HTTP front end: stdlib ``ThreadingHTTPServer`` over the job registry.

Wire protocol (all bodies JSON):

==========================  ============================================
``POST /jobs``               ``{"spec": <tagged spec document>}`` →
                             202 ``{"job": <fp>, "outcome": "started" |
                             "attached"}`` (200 + ``"hit"`` when the
                             store already holds the envelope).  The
                             document is :func:`repro.api.serialize.
                             encode` of an analysis spec.
``GET /jobs``                job table summary
``GET /jobs/<fp>``           poll one job's state/progress
``GET /jobs/<fp>/partial``   wave-boundary accumulator snapshot (tagged
                             JSON; after a cancel, the truncated
                             envelope rides along as ``"envelope"``)
``GET /jobs/<fp>/result``    the stored envelope, verbatim — the same
                             bytes for every fetch (409 until done)
``GET /jobs/<fp>/timeline``  lifecycle event list (submitted/started/
                             attached/done/... with wall timestamps)
``DELETE /jobs/<fp>``        cancel at the next wave boundary
``GET /healthz``             liveness + store/job counters
``GET /metrics``             process metrics: JSON snapshot by default,
                             Prometheus text exposition with
                             ``?format=prometheus`` (or an ``Accept:
                             text/plain`` header)
==========================  ============================================

Every request is observed: a ``repro_service_requests_total`` counter
(method/route-template/status labels), a per-route latency histogram,
and one structured JSON log line (:mod:`repro.obs.logging`) on the
``repro.service.http`` logger.  The stock ``BaseHTTPRequestHandler``
stderr chatter is silenced in favour of those lines.

Errors are structured, never tracebacks: ``{"error": {"type": ...,
"message": ...}}`` with 400 for malformed/disallowed documents, 404 for
unknown fingerprints, 409 for not-ready results, 500 for genuine bugs.

**Trust boundary.**  Decoding a tagged document imports the dataclass
types and callables it names (:mod:`repro.api.serialize` is
unpickle-like by design).  The service therefore validates every
``__dataclass__``/``__callable__`` tag *before* decoding through
:func:`repro.cluster.wire.validate_document` — the shared allowlist
also guarding the cluster protocol's frames (one allowlist, one codec;
see that module's docstring for the full admission rules).  A
submission can therefore only instantiate this package's own validated
frozen specs, never ``os:system`` — however it is spelled.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.api.seeding import EXPERIMENT_SEED
from repro.api.serialize import decode, encode
from repro.api.session import Session
from repro.cluster.wire import BadRequest, validate_document
from repro.obs import configure_logging, default_registry, get_logger, log_event
from repro.service.jobs import JobError, JobRegistry, UnknownJob
from repro.service.store import ResultStore

__all__ = ["ServiceConfig", "AnalysisServer", "serve", "validate_document",
           "BadRequest"]

_LOG = get_logger("service.http")
_REGISTRY = default_registry()

#: Sub-resources of ``/jobs/<fp>`` with dedicated routes.
_JOB_TAILS = ("partial", "result", "timeline")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _route_template(parts) -> str:
    """Collapse a request path onto its route template.

    Metric labels must come from the closed route set — a label per
    fingerprint (or per garbage path) would grow the registry without
    bound.  Everything unrecognized lands on ``/other``.
    """
    if parts[:1] == ["jobs"]:
        if len(parts) == 1:
            return "/jobs"
        if len(parts) == 2:
            return "/jobs/{fp}"
        if len(parts) == 3 and parts[2] in _JOB_TAILS:
            return f"/jobs/{{fp}}/{parts[2]}"
        return "/other"
    if len(parts) == 1 and parts[0] in ("healthz", "metrics"):
        return "/" + parts[0]
    return "/other"


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon configuration (the ``python -m repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 7373
    store: str = ".repro-store"
    workers: int = 1
    #: Root seed of the service session; part of every store key.
    seed: int = EXPERIMENT_SEED
    #: Module roots a submitted document may import types from.
    allow_modules: Tuple[str, ...] = ("repro",)
    #: Threshold of the structured JSON daemon log (stderr).
    log_level: str = "info"
    #: Cluster coordinator bind address (``host:port`` or
    #: ``tcp://host:port``).  When set, the daemon dispatches every job
    #: through a :class:`repro.cluster.ClusterExecutor` listening there
    #: (``workers`` is ignored); remote agents connect with ``python -m
    #: repro worker --connect``.  Envelopes — and therefore store keys —
    #: are identical either way: the shard/seed contract.
    cluster: Optional[str] = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.allow_modules:
            raise ValueError("allow_modules must not be empty")
        if self.log_level not in _LOG_LEVELS:
            raise ValueError(
                f"log_level must be one of {list(_LOG_LEVELS)}, "
                f"got {self.log_level!r}"
            )
        if self.cluster is not None:
            from repro.cluster import parse_address

            parse_address(self.cluster)  # raises ValueError on bad form

    @property
    def executor(self):
        """What the service session runs on: an address or a count."""
        if self.cluster is None:
            return self.workers
        return (self.cluster if "://" in self.cluster
                else f"tcp://{self.cluster}")


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch; all real work happens in the registry."""

    server_version = "repro-analysis-service/1.0"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two sends: with Nagle on, a kept-alive
    # response body waits ~40 ms for the client's delayed ACK.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------
    @property
    def registry(self) -> JobRegistry:
        return self.server.registry

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Silenced: the stdlib default writes unstructured lines to
        # stderr; _dispatch emits one structured JSON line per request
        # on the repro.service.http logger instead.
        pass

    def _send_text(self, status: int, text: str,
                   content_type: str = "application/json") -> None:
        body = text.encode()
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_text(status, json.dumps(payload, sort_keys=True))

    def _send_error_json(self, status: int, kind: str, message: str) -> None:
        self._send_json(status, {"error": {"type": kind, "message": message}})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequest("request body must be a JSON document")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"request body is not valid JSON: {exc}")
        except RecursionError:
            raise BadRequest("request body nests too deeply") from None

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        self._status = 0
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        route = _route_template(parts)
        try:
            self._route(method, parts)
        except BadRequest as exc:
            self._send_error_json(400, "BadRequest", str(exc))
        except UnknownJob as exc:
            self._send_error_json(404, "UnknownJob", str(exc))
        except JobError as exc:
            self._send_error_json(409, "JobNotReady", str(exc))
        except (TypeError, ValueError, KeyError) as exc:
            # Spec construction re-validates in __post_init__; a bad
            # field value is the client's problem, reported structurally
            # rather than as a 500 traceback.
            self._send_error_json(400, type(exc).__name__, str(exc))
        except Exception as exc:  # pragma: no cover - genuine bugs
            self._send_error_json(500, type(exc).__name__, str(exc))
        finally:
            duration = time.perf_counter() - start
            _REGISTRY.counter(
                "repro_service_requests_total",
                "HTTP requests by method, route template and status",
                labels={"method": method, "route": route,
                        "status": str(self._status)},
            ).inc()
            _REGISTRY.histogram(
                "repro_service_request_seconds",
                "HTTP request latency by route template",
                labels={"route": route},
            ).observe(duration)
            log_event(_LOG, "http.request", method=method, path=self.path,
                      route=route, status=self._status,
                      duration_ms=round(duration * 1e3, 3))

    # ------------------------------------------------------------------
    # Routes.
    # ------------------------------------------------------------------
    def _route(self, method: str, parts) -> None:
        if parts == ["healthz"] and method == "GET":
            return self._healthz()
        if parts == ["metrics"] and method == "GET":
            return self._metrics()
        if parts == ["jobs"]:
            if method == "POST":
                return self._submit()
            if method == "GET":
                return self._list_jobs()
            return self._send_error_json(405, "MethodNotAllowed", method)
        if len(parts) >= 2 and parts[0] == "jobs":
            fp = parts[1]
            if len(parts) == 2:
                if method == "GET":
                    return self._send_json(200, self.registry.status(fp))
                if method == "DELETE":
                    return self._cancel(fp)
                return self._send_error_json(405, "MethodNotAllowed", method)
            if len(parts) == 3 and method == "GET":
                if parts[2] == "partial":
                    return self._partial(fp)
                if parts[2] == "result":
                    return self._result(fp)
                if parts[2] == "timeline":
                    return self._timeline(fp)
        self._send_error_json(404, "NotFound", self.path)

    def _healthz(self) -> None:
        jobs = self.registry.jobs()
        self._send_json(200, {
            "ok": True,
            "seed": self.registry.session.seed,
            "workers": self.registry.session.workers,
            "jobs": {
                state: sum(1 for j in jobs if j.state == state)
                for state in ("running", "done", "failed", "cancelled")
            },
            "store": self.registry.store.stats(),
        })

    def _metrics(self) -> None:
        """The process-local metrics registry, in either rendering.

        JSON snapshot by default; Prometheus text exposition when the
        query says ``format=prometheus`` or, absent an explicit format,
        when the ``Accept`` header asks for ``text/plain`` (what a
        Prometheus scraper sends).
        """
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query)
        fmt = (query.get("format") or [None])[0]
        accept = self.headers.get("Accept") or ""
        if fmt not in (None, "json", "prometheus"):
            raise BadRequest(
                f"unknown metrics format {fmt!r} (json or prometheus)"
            )
        registry = default_registry()
        # Job-state gauges are refreshed at scrape time — they mirror
        # the registry's current table rather than counting transitions.
        jobs = self.registry.jobs()
        for state in ("running", "done", "failed", "cancelled"):
            registry.gauge(
                "repro_service_jobs", "Jobs currently in each state",
                labels={"state": state},
            ).set(sum(1 for j in jobs if j.state == state))
        if fmt == "prometheus" or (fmt is None and "text/plain" in accept):
            self._send_text(
                200, registry.to_prometheus(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        else:
            self._send_json(200, {"metrics": registry.snapshot()})

    def _timeline(self, fp: str) -> None:
        self._send_json(200, self.registry.timeline(fp))

    def _submit(self) -> None:
        body = self._read_body()
        if not isinstance(body, dict) or "spec" not in body:
            raise BadRequest('body must be {"spec": <tagged spec document>}')
        document = body["spec"]
        validate_document(document, self.server.config.allow_modules)
        try:
            spec = decode(document)
        except Exception as exc:
            raise BadRequest(f"cannot decode spec document: {exc}")
        try:
            job, outcome = self.registry.submit(spec)
        except JobError as exc:
            raise BadRequest(str(exc))
        self._send_json(200 if outcome == "hit" else 202, {
            "job": job.fingerprint,
            "outcome": outcome,
            "state": job.state,
            "url": f"/jobs/{job.fingerprint}",
        })

    def _list_jobs(self) -> None:
        self._send_json(200, {
            "jobs": [self.registry.status(j.fingerprint)
                     for j in self.registry.jobs()],
        })

    def _partial(self, fp: str) -> None:
        snapshot = self.registry.partial(fp)
        # The snapshot holds live objects (Result envelopes, ndarrays);
        # the tagged codec keeps them reversible on the client side.
        self._send_json(200, encode(snapshot))

    def _result(self, fp: str) -> None:
        # Stream the stored text verbatim: every fetch of a fingerprint
        # returns the same bytes, which is the store's whole point.
        self._send_text(200, self.registry.result_text(fp))

    def _cancel(self, fp: str) -> None:
        cancelled = self.registry.cancel(fp)
        self._send_json(200, {
            "job": fp,
            "cancelled": cancelled,
            "state": self.registry.get(fp).state,
        })

    do_GET = lambda self: self._dispatch("GET")        # noqa: E731
    do_POST = lambda self: self._dispatch("POST")      # noqa: E731
    do_DELETE = lambda self: self._dispatch("DELETE")  # noqa: E731


class AnalysisServer(ThreadingHTTPServer):
    """The daemon: HTTP listener + registry + store, one object.

    ``port=0`` binds an ephemeral port (tests); :meth:`start` serves on
    a background thread, :meth:`stop` shuts the listener and registry
    down.  ``stop(abandon_running=True)`` leaves journal + checkpoints
    on disk so the next daemon over the same store resumes the work.
    """

    daemon_threads = True

    def __init__(self, config: ServiceConfig, technology=None,
                 verbose: bool = False):
        self.config = config
        # Kept for API compatibility; request logging is structured now
        # (repro.service.http logger), not gated on this flag.
        self.verbose = verbose
        store = ResultStore(config.store)
        session = Session(
            technology=technology,
            seed=config.seed,
            executor=config.executor,
        )
        self.registry = JobRegistry(store, session)
        self._thread: Optional[threading.Thread] = None
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "AnalysisServer":
        """Recover journaled jobs and serve on a background thread."""
        self.registry.recover()
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, abandon_running: bool = False,
             timeout: Optional[float] = 30.0) -> None:
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
        self.server_close()
        self.registry.shutdown(abandon_running=abandon_running,
                               timeout=timeout)


def serve(config: ServiceConfig, technology=None) -> int:
    """Blocking daemon entry point (``python -m repro serve``).

    All daemon output except the one human-readable stdout banner is
    structured JSON on stderr (one line per request and per job state
    transition); ``config.log_level`` sets the threshold.
    """
    log = configure_logging(config.log_level)
    server = AnalysisServer(config, technology=technology)
    resumed = server.registry.recover()
    print(f"repro analysis service on {server.url}")
    log_event(log, "serve.start", url=server.url,
              store=str(server.registry.store.root),
              store_stats=server.registry.store.stats(),
              workers=config.workers, seed=config.seed,
              cluster=config.cluster, log_level=config.log_level)
    if resumed:
        log_event(log, "serve.resume", jobs=len(resumed),
                  fingerprints=[fp[:12] for fp in resumed])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log_event(log, "serve.shutdown", abandon_running=True)
        server.server_close()
        server.registry.shutdown(abandon_running=True)
    return 0
