"""Tests for the analysis service (PR 7): store, registry, HTTP, client.

Three layers, tested bottom-up:

* :class:`repro.service.ResultStore` — the content-addressed directory
  (atomic writes, journal/checkpoint co-location);
* :class:`repro.service.JobRegistry` — in-flight dedup, cache hits,
  wave-boundary cancel, crash recovery via the journal + checkpoints;
* the HTTP surface end-to-end over an ephemeral port — including the
  malformed-payload contract: structured JSON 400s, never tracebacks.

The acceptance property threaded throughout: a service envelope is
bit-identical (up to scheduling metadata — see ``scrub_envelope``) to
``Session(executor=1).run(spec)`` on the same seed, whether it was
computed fresh, deduped, cache-hit, resumed after a kill, or resumed
after a cancel.
"""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import (
    DCOp,
    Execution,
    ImportanceSampling,
    MonteCarlo,
    Session,
    Sweep,
    Yield,
    fingerprint,
)
from repro.api.serialize import dumps, encode
from repro.service import (
    AnalysisServer,
    JobRegistry,
    ResultStore,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    scrub_envelope,
)
from repro.service.jobs import JobError, UnknownJob
from repro.service.server import BadRequest, validate_document
from repro.stats import ParameterMetric

SEED = 20260101


@dataclasses.dataclass(frozen=True)
class SleepyVt0:
    """Codec-expressible vt0 metric with a controllable runtime.

    The sleep widens the window between wave boundaries so cancel /
    kill-mid-run tests land deterministically; the returned values are
    identical to ``ParameterMetric("vt0")``.
    """

    delay_s: float = 0.01

    def __call__(self, params):
        time.sleep(self.delay_s)
        return np.asarray(params.vt0)


def _threshold(technology, n_sigma: float = 3.0) -> float:
    model = technology["nmos"].statistical
    sigma = model.sigmas(600.0, 40.0)["vt0"]
    return float(np.asarray(model.nominal.vt0)) + n_sigma * sigma


def _yield_spec(technology, **overrides) -> Yield:
    base = dict(
        metric=ParameterMetric("vt0"), threshold=_threshold(technology),
        shifts={"vt0": 3.0}, n_samples=2048, n_rounds=2, n_per_round=512,
        block_size=128, w_nm=600.0, l_nm=40.0, fail_below=False,
    )
    base.update(overrides)
    return Yield(**base)


def _sleepy_spec(technology, delay_s: float = 0.01, **overrides) -> Yield:
    return _yield_spec(
        technology, metric=SleepyVt0(delay_s), n_samples=4096,
        n_rounds=1, n_per_round=512, block_size=64, **overrides,
    )


def _local_run(technology, spec):
    """The reference envelope: a plain 1-worker local session run."""
    session = Session(technology=technology, seed=SEED, executor=1)
    try:
        return session.run(spec)
    finally:
        session.close()


def _wait_state(registry, fp, *, leaving="running", timeout=60.0):
    deadline = time.monotonic() + timeout
    while registry.get(fp).state == leaving:
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {fp} still {leaving}")
        time.sleep(0.02)
    return registry.get(fp).state


def _wait_progress(registry, fp, completed=2, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status = registry.status(fp)
        if (status["progress"]["completed"] or 0) >= completed:
            return status
        if status["state"] != "running":
            raise AssertionError(f"job left running state early: {status}")
        if time.monotonic() > deadline:
            raise TimeoutError("no progress")
        time.sleep(0.02)


@pytest.fixture()
def store(tmp_path) -> ResultStore:
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture()
def registry(technology, store) -> JobRegistry:
    reg = JobRegistry(store, Session(technology=technology, seed=SEED,
                                     executor=1))
    yield reg
    reg.shutdown(abandon_running=True, timeout=60.0)


# ----------------------------------------------------------------------
# Store.
# ----------------------------------------------------------------------
class TestResultStore:
    def test_put_get_roundtrip(self, store, technology):
        envelope = _local_run(technology, MonteCarlo(n_samples=64))
        fp = fingerprint(MonteCarlo(n_samples=64), seed=SEED)
        assert not store.has(fp)
        store.put(fp, envelope)
        assert store.has(fp)
        loaded = store.get(fp)
        assert dumps(loaded) == dumps(envelope)
        np.testing.assert_array_equal(
            loaded.payload.samples["idsat"], envelope.payload.samples["idsat"]
        )

    def test_get_text_is_byte_stable(self, store, technology):
        envelope = _local_run(technology, MonteCarlo(n_samples=64))
        store.put("f" * 64, envelope)
        assert store.get_text("f" * 64) == store.get_text("f" * 64)

    def test_journal_lifecycle(self, store):
        store.journal("a" * 64, {"spec": {"kind": "test"}})
        assert list(store.pending()) == ["a" * 64]
        store.clear_journal("a" * 64)
        assert store.pending() == {}
        store.clear_journal("a" * 64)  # idempotent

    def test_put_retires_journal_and_checkpoints(self, store, technology):
        fp = "b" * 64
        store.journal(fp, {"spec": {}})
        with open(store.checkpoint_prefix(fp) + ".0123456789ab.ckpt", "w"):
            pass
        assert store.checkpoints(fp)
        store.put(fp, _local_run(technology, MonteCarlo(n_samples=64)))
        assert store.pending() == {}
        assert store.checkpoints(fp) == []

    def test_stats(self, store):
        assert store.stats() == {"results": 0, "pending": 0, "checkpoints": 0}


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------
class TestJobRegistry:
    def test_run_and_store_matches_local_session(self, registry, technology):
        spec = _yield_spec(technology)
        job, outcome = registry.submit(spec)
        assert outcome == "started"
        _wait_state(registry, job.fingerprint)
        assert registry.get(job.fingerprint).state == "done"
        stored = registry.store.get(job.fingerprint)
        reference = _local_run(technology, spec)
        assert dumps(scrub_envelope(stored)) == dumps(scrub_envelope(reference))
        # The stored spec is canonical: no service scheduling leaked in.
        assert stored.spec == spec

    def test_execution_options_are_stripped_for_identity(self, registry,
                                                         technology):
        bare = _yield_spec(technology)
        dressed = dataclasses.replace(
            bare, execution=Execution(workers=4, wave_size=2)
        )
        job, outcome = registry.submit(bare)
        _wait_state(registry, job.fingerprint)
        job2, outcome2 = registry.submit(dressed)
        assert outcome2 == "hit"
        assert job2.fingerprint == job.fingerprint

    def test_in_flight_dedup(self, registry, technology):
        spec = _sleepy_spec(technology)
        job, outcome = registry.submit(spec)
        assert outcome == "started"
        job2, outcome2 = registry.submit(spec)
        assert outcome2 == "attached"
        assert job2 is job
        assert job.submissions == 2
        _wait_state(registry, job.fingerprint)
        assert registry.store.stats()["results"] == 1

    def test_cache_hit_after_completion(self, registry, technology):
        spec = _yield_spec(technology)
        job, _ = registry.submit(spec)
        _wait_state(registry, job.fingerprint)
        before = registry.store.get_text(job.fingerprint)
        job2, outcome = registry.submit(spec)
        assert outcome == "hit"
        # A hit is served from disk: the stored bytes are untouched.
        assert registry.store.get_text(job.fingerprint) == before

    def test_circuit_specs_are_rejected(self, registry):
        with pytest.raises(JobError, match="circuit"):
            registry.submit(DCOp())

    def test_unknown_job(self, registry):
        with pytest.raises(UnknownJob):
            registry.status("0" * 64)

    def test_cancel_keeps_checkpoints_clears_journal(self, registry,
                                                     technology):
        spec = _sleepy_spec(technology)
        job, _ = registry.submit(spec)
        _wait_progress(registry, job.fingerprint)
        assert registry.cancel(job.fingerprint)
        state = _wait_state(registry, job.fingerprint)
        assert state == "cancelled"
        stats = registry.store.stats()
        assert stats["pending"] == 0      # a cancel is a decision...
        assert stats["checkpoints"] >= 1  # ...but the work is kept
        # The truncated envelope is available as the partial.
        partial = registry.partial(job.fingerprint)
        assert partial["envelope"].runtime.stop_reason == "cancelled"

    def test_resubmit_after_cancel_resumes(self, registry, technology):
        spec = _sleepy_spec(technology)
        job, _ = registry.submit(spec)
        # Wait past the CE adaptation rounds (8 blocks) into the
        # estimation phase so wave-boundary checkpoints exist.
        _wait_progress(registry, job.fingerprint, completed=12)
        registry.cancel(job.fingerprint)
        _wait_state(registry, job.fingerprint)
        job2, outcome = registry.submit(spec)
        assert outcome == "started"
        _wait_state(registry, job2.fingerprint)
        stored = registry.store.get(job2.fingerprint)
        assert stored.runtime.resumed_shards > 0
        reference = _local_run(technology, spec)
        assert dumps(scrub_envelope(stored)) == dumps(scrub_envelope(reference))

    def test_abandon_and_recover_resumes_from_checkpoint(self, technology,
                                                         store):
        spec = _sleepy_spec(technology)
        fp = fingerprint(spec, seed=SEED)

        first = JobRegistry(store, Session(technology=technology, seed=SEED,
                                           executor=1))
        job, _ = first.submit(spec)
        # Past adaptation, into checkpointed estimation waves.
        _wait_progress(first, fp, completed=12)
        # Abandoning shutdown = what SIGKILL leaves on disk: pending
        # journal + wave-boundary checkpoints, no stored result.
        first.shutdown(abandon_running=True, timeout=60.0)
        assert store.stats()["pending"] == 1
        assert store.stats()["checkpoints"] >= 1
        assert not store.has(fp)

        second = JobRegistry(store, Session(technology=technology, seed=SEED,
                                            executor=1))
        try:
            resumed = second.recover()
            assert resumed == [fp]
            _wait_state(second, fp)
            stored = store.get(fp)
            assert stored.runtime.resumed_shards > 0
            reference = _local_run(technology, spec)
            assert dumps(scrub_envelope(stored)) == (
                dumps(scrub_envelope(reference))
            )
            assert store.stats()["pending"] == 0
        finally:
            second.shutdown(timeout=60.0)

    def test_recover_drops_journal_from_other_seed(self, technology, store):
        # Regression: a journal entry written by a daemon rooted at a
        # different seed must not be replayed (the re-fingerprint under
        # the new seed would silently rerun the work under a new store
        # key) and must be cleared so it is not replayed again on every
        # subsequent restart.
        spec = _yield_spec(technology)
        other_seed = SEED + 1
        fp_other = fingerprint(spec, seed=other_seed)
        store.journal(fp_other, {
            "fingerprint": fp_other,
            "seed": other_seed,
            "spec": encode(spec),
        })

        registry = JobRegistry(store, Session(technology=technology,
                                              seed=SEED, executor=1))
        try:
            with pytest.warns(RuntimeWarning, match="this daemon runs seed"):
                resumed = registry.recover()
            assert resumed == []
            assert store.stats()["pending"] == 0
            assert registry.jobs() == []
        finally:
            registry.shutdown(timeout=60.0)

    def test_store_failure_fails_job_instead_of_hanging(self, registry,
                                                        technology,
                                                        monkeypatch):
        # Regression: if persisting the envelope raises, the watcher
        # must file the job as "failed" — not die and leave the job in
        # "running" forever with pollers never seeing completion.
        def boom(fingerprint, envelope):
            raise OSError("no space left on device")

        monkeypatch.setattr(registry.store, "put", boom)
        job, _ = registry.submit(_yield_spec(technology))
        state = _wait_state(registry, job.fingerprint)
        assert state == "failed"
        assert "no space left" in registry.get(job.fingerprint).error
        with pytest.raises(JobError, match="failed"):
            registry.result_text(job.fingerprint)


# ----------------------------------------------------------------------
# Wire-document validation.
# ----------------------------------------------------------------------
class TestValidateDocument:
    def test_allows_repro_types(self, technology):
        validate_document(encode(_yield_spec(technology)), ("repro",))

    def test_rejects_disallowed_callable(self):
        with pytest.raises(BadRequest, match="os:system"):
            validate_document({"__callable__": "os:system"}, ("repro",))

    def test_rejects_disallowed_dataclass(self):
        with pytest.raises(BadRequest):
            validate_document({"__dataclass__": "subprocess:Popen",
                               "fields": {}}, ("repro",))

    def test_rejects_nested_disallowed_import(self):
        nested = {"fields": {"metric": [{"__callable__": "os.path:join"}]}}
        with pytest.raises(BadRequest):
            validate_document(nested, ("repro",))

    def test_prefix_cannot_be_spoofed(self):
        # "reprox" must not satisfy the "repro" root.
        with pytest.raises(BadRequest):
            validate_document({"__callable__": "reprox.evil:f"}, ("repro",))

    def test_dotted_qualname_cannot_reach_reimported_modules(self):
        # Regression (RCE): repro.service.store imports os at module
        # level, so a dotted qualname under an allowed module prefix
        # getattr-walks to os.system — decode() would then execute
        # cls(**fields).  Both tag kinds must reject it before decode.
        evil = "repro.service.store:os.system"
        with pytest.raises(BadRequest, match="top-level"):
            validate_document(
                {"__dataclass__": evil, "fields": {"command": "true"}},
                ("repro",),
            )
        with pytest.raises(BadRequest, match="top-level"):
            validate_document({"__callable__": evil}, ("repro",))

    def test_rejects_objects_reexported_into_allowed_modules(self):
        # Even an undotted name must resolve to an object *defined*
        # under an allowed root — repro.api.serialize's own top-level
        # imports (json, np) are not admissible.
        for name in ("repro.api.serialize:json", "repro.api.serialize:np"):
            with pytest.raises(BadRequest, match="defined in"):
                validate_document({"__callable__": name}, ("repro",))

    def test_dataclass_tag_must_name_a_dataclass(self):
        with pytest.raises(BadRequest, match="dataclass"):
            validate_document(
                {"__dataclass__": "repro.api.serialize:encode",
                 "fields": {}}, ("repro",),
            )

    def test_rejects_unresolvable_tag(self):
        with pytest.raises(BadRequest, match="cannot resolve"):
            validate_document(
                {"__callable__": "repro.api.serialize:no_such_name"},
                ("repro",),
            )


# ----------------------------------------------------------------------
# HTTP end-to-end.
# ----------------------------------------------------------------------
@pytest.fixture()
def server(technology, tmp_path):
    config = ServiceConfig(
        port=0, store=str(tmp_path / "store"), workers=1, seed=SEED,
        allow_modules=("repro", SleepyVt0.__module__),
    )
    instance = AnalysisServer(config, technology=technology).start()
    yield instance
    instance.stop(abandon_running=True, timeout=60.0)


def _post_error(server, raw: bytes):
    """POST *raw* to ``/jobs``; ``(status, error document)`` of the
    expected error response."""
    request = urllib.request.Request(
        f"{server.url}/jobs", data=raw, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30):
            raise AssertionError("expected an error status")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHTTPService:
    @pytest.mark.parametrize("body", [
        b"[" * 2000 + b"]" * 2000,
        b'{"spec": ' + b"[" * 2000 + b"]" * 2000 + b"}",
        b'{"spec": ' + b'{"a": ' * 2000 + b"0" + b"}" * 2001,
    ], ids=["root-lists", "spec-lists", "spec-dicts"])
    def test_deeply_nested_body_is_a_400(self, server, body):
        # Nesting past the recursion limit is the client's problem, not
        # a 500 RecursionError.
        code, error = _post_error(server, body)
        assert code == 400
        assert error["error"]["type"] == "BadRequest"
        assert "nests too deeply" in error["error"]["message"]
        # The connection thread survived: the daemon still answers.
        assert ServiceClient(server.url).health()["ok"] is True

    def test_healthz(self, server):
        health = ServiceClient(server.url).health()
        assert health["ok"] is True
        assert health["seed"] == SEED

    def test_submit_poll_fetch_matches_local(self, server, technology):
        client = ServiceClient(server.url)
        spec = _yield_spec(technology)
        job = client.submit(spec)
        assert job["outcome"] == "started"
        envelope = client.result(job, timeout=120.0)
        reference = _local_run(technology, spec)
        assert dumps(scrub_envelope(envelope)) == (
            dumps(scrub_envelope(reference))
        )
        # Identical second POST is a cache hit with the same id.
        again = client.submit(spec)
        assert again["outcome"] == "hit"
        assert again["job"] == job["job"]
        # Result bytes are stable fetch-to-fetch.
        assert client.result_document(job) == client.result_document(job)

    def test_sweep_progress_and_partial(self, server, technology):
        client = ServiceClient(server.url)
        sweep = Sweep(
            ImportanceSampling(
                metric=SleepyVt0(0.01), threshold=_threshold(technology),
                shifts={"vt0": 3.0}, n_samples=256, w_nm=600.0, l_nm=40.0,
                fail_below=False,
            ),
            over={"w_nm": tuple(float(w) for w in (600, 800, 1000, 1200,
                                                   1400, 1600, 1800, 2000))},
        )
        job = client.submit(sweep)
        saw_points = False
        for _ in range(2000):
            status = client.status(job)
            if status["state"] != "running":
                break
            snapshot = client.partial(job)
            partial = snapshot.get("partial")
            if partial and partial.get("points"):
                saw_points = True
                # Atomic pair: the point count always matches progress.
                assert len(partial["points"]) == (
                    snapshot["progress"]["completed"]
                )
            time.sleep(0.01)
        assert client.status(job)["state"] == "done"
        assert saw_points
        envelope = client.result(job, timeout=120.0)
        assert len(envelope.points) == sweep.n_points

    def test_cancel_over_http(self, server, technology):
        client = ServiceClient(server.url)
        job = client.submit(_sleepy_spec(technology, delay_s=0.02))
        while (client.status(job)["progress"]["completed"] or 0) < 2:
            time.sleep(0.02)
        assert client.cancel(job)["cancelled"] is True
        while client.status(job)["state"] == "running":
            time.sleep(0.02)
        assert client.status(job)["state"] == "cancelled"
        snapshot = client.partial(job)
        assert snapshot["envelope"].runtime.stop_reason == "cancelled"
        with pytest.raises(ServiceError) as err:
            client.result(job)
        assert err.value.status == 409

    def test_result_before_done_is_409(self, server, technology):
        client = ServiceClient(server.url)
        job = client.submit(_sleepy_spec(technology, delay_s=0.02))
        with pytest.raises(ServiceError) as err:
            client.result(job, wait=False)
        assert err.value.status == 409
        assert err.value.kind == "JobNotReady"
        client.cancel(job)

    def test_malformed_payloads_are_structured_400s(self, server):
        def post(raw: bytes):
            return _post_error(server, raw)

        # Not JSON at all.
        code, body = post(b"this is not json {")
        assert code == 400
        assert body["error"]["type"] == "BadRequest"
        # JSON, wrong shape.
        code, body = post(b'{"nope": 1}')
        assert code == 400 and "spec" in body["error"]["message"]
        # Well-formed document, disallowed import.
        code, body = post(json.dumps(
            {"spec": {"__callable__": "os:system"}}).encode())
        assert code == 400 and "os:system" in body["error"]["message"]
        # Valid type, invalid field value: the spec's own validation
        # fires during decode and surfaces as a structured BadRequest.
        bad = encode(MonteCarlo(n_samples=100))
        bad["fields"]["n_samples"] = -5
        code, body = post(json.dumps({"spec": bad}).encode())
        assert code == 400 and body["error"]["type"] == "BadRequest"
        assert "n_samples" in body["error"]["message"]
        # A circuit-bound spec cannot be served.
        code, body = post(json.dumps({"spec": encode(DCOp())}).encode())
        assert code == 400 and "circuit" in body["error"]["message"]

    def test_kept_alive_requests_do_not_stall(self, server):
        """Regression: the handler writes headers and body in two sends;
        with Nagle on, every response on a kept-alive connection waited
        ~40 ms for the client's delayed ACK (20 requests took ~0.84 s)."""
        import http.client
        from urllib.parse import urlsplit

        url = urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port,
                                          timeout=30)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.5

    def test_unknown_routes_and_jobs(self, server):
        client = ServiceClient(server.url)
        with pytest.raises(ServiceError) as err:
            client.status("0" * 64)
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nonsense")
        assert err.value.status == 404


# ----------------------------------------------------------------------
# Observability surface (PR 8): /metrics and /jobs/<fp>/timeline.
# ----------------------------------------------------------------------
class TestObservabilitySurface:
    def test_metrics_json_reflects_requests_and_jobs(self, server,
                                                     technology):
        client = ServiceClient(server.url)
        job = client.submit(_yield_spec(technology))
        client.result(job, timeout=120.0)
        snapshot = client.metrics()
        requests = snapshot["repro_service_requests_total"]
        assert requests["type"] == "counter"
        routes = {tuple(sorted(s["labels"].items())): s["value"]
                  for s in requests["series"]}
        assert any(dict(k)["route"] == "/jobs" for k in routes)
        # Job-state gauges are refreshed at scrape time.
        states = {s["labels"]["state"]: s["value"]
                  for s in snapshot["repro_service_jobs"]["series"]}
        assert states["done"] >= 1
        # Request latency histogram carries cumulative buckets.
        latency = snapshot["repro_service_request_seconds"]["series"][0]
        assert latency["buckets"]["+Inf"] == latency["count"]
        assert "repro_service_job_seconds" in snapshot
        assert "repro_service_submissions_total" in snapshot

    def test_metrics_prometheus_exposition(self, server):
        from tests.test_obs import _assert_valid_prometheus

        client = ServiceClient(server.url)
        client.health()
        text = client.metrics(format="prometheus")
        _assert_valid_prometheus(text)
        assert "# TYPE repro_service_requests_total counter" in text
        assert "# TYPE repro_service_request_seconds histogram" in text
        assert "# TYPE repro_service_jobs gauge" in text
        # Accept-header negotiation picks the text exposition too.
        import urllib.request

        request = urllib.request.Request(
            f"{server.url}/metrics", headers={"Accept": "text/plain"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.headers["Content-Type"].startswith("text/plain")
        # And an unknown format is a structured 400.
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/metrics?format=xml")
        assert err.value.status == 400

    def test_timeline_records_job_lifecycle(self, server, technology):
        client = ServiceClient(server.url)
        spec = _yield_spec(technology)
        job = client.submit(spec)
        client.result(job, timeout=120.0)
        timeline = client.timeline(job)
        events = [entry["event"] for entry in timeline["events"]]
        assert events[:2] == ["submitted", "started"]
        assert events[-1] == "done"
        assert timeline["state"] == "done"
        assert timeline["duration_s"] >= 0.0
        stamps = [entry["t"] for entry in timeline["events"]]
        assert stamps == sorted(stamps)
        # A store hit shows up on the same job's timeline.
        again = client.submit(spec)
        assert again["outcome"] == "hit"
        assert "hit" in [e["event"]
                         for e in client.timeline(job)["events"]]

    def test_timeline_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as err:
            ServiceClient(server.url).timeline("0" * 64)
        assert err.value.status == 404

    def test_cancel_shows_on_timeline(self, server, technology):
        client = ServiceClient(server.url)
        job = client.submit(_sleepy_spec(technology, delay_s=0.02))
        while (client.status(job)["progress"]["completed"] or 0) < 2:
            time.sleep(0.02)
        client.cancel(job)
        while client.status(job)["state"] == "running":
            time.sleep(0.02)
        events = [e["event"] for e in client.timeline(job)["events"]]
        assert "cancel_requested" in events
        assert events[-1] == "cancelled"


# ----------------------------------------------------------------------
# RunHandle snapshot atomicity (the PR 7 cross-thread polling fix).
# ----------------------------------------------------------------------
class TestRunHandleSnapshot:
    def test_polling_thread_sees_consistent_pairs(self, technology):
        """Regression: progress() and partial() used to be two separate
        lock acquisitions, so a poller could pair wave k's progress with
        wave k+1's accumulator.  snapshot() must always return a
        matching (progress, partial) pair."""
        session = Session(technology=technology, seed=SEED, executor=1)
        sweep = Sweep(
            ImportanceSampling(
                metric=SleepyVt0(0.005), threshold=_threshold(technology),
                shifts={"vt0": 3.0}, n_samples=128, w_nm=600.0, l_nm=40.0,
                fail_below=False,
            ),
            over={"w_nm": tuple(float(w) for w in range(600, 1800, 100))},
        )
        handle = session.submit(sweep)
        observations = []
        violations = []

        def poll():
            while not handle.done():
                snap = handle.snapshot()
                if snap.partial is not None and "points" in snap.partial:
                    pair = (snap.progress.completed,
                            len(snap.partial["points"]))
                    observations.append(pair)
                    if pair[0] != pair[1]:
                        violations.append(pair)

        pollers = [threading.Thread(target=poll) for _ in range(3)]
        for thread in pollers:
            thread.start()
        result = handle.result()
        for thread in pollers:
            thread.join()
        session.close()
        assert violations == []
        assert observations, "pollers never observed a wave boundary"
        assert len(result.points) == sweep.n_points
        # Finished handles report a terminal snapshot.
        final = handle.snapshot()
        assert final.progress.done
        assert final.progress.completed == final.progress.total
