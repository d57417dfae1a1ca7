"""Tests for the observability layer (PR 8): tracing, metrics, logging.

The load-bearing property throughout is the scheduling-side contract:
telemetry *observes* runs and never steers them.  The determinism
matrix at the bottom is the executable statement of that contract —
envelopes are bit-identical (after ``scrub_envelope``) with tracing and
metrics enabled vs disabled, at 1 and 2 workers, for every spec family
the matrix names.
"""

import json
import logging
import re

import numpy as np
import pytest

from repro.api import (
    Characterize,
    Execution,
    MonteCarlo,
    Session,
    Sweep,
    Yield,
)
from repro.api.serialize import dumps
from repro.obs import (
    MetricsRegistry,
    Tracer,
    activate,
    configure_logging,
    current_tracer,
    default_registry,
    event,
    get_logger,
    log_event,
    span,
)
from repro.service.store import scrub_envelope
from repro.stats import ParameterMetric

SEED = 20130318


# ----------------------------------------------------------------------
# Tracer.
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sorted(tracer.records, key=lambda r: r["name"])
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert inner["dur_s"] <= outer["dur_s"]

    def test_set_attaches_attributes_mid_span(self):
        tracer = Tracer()
        with tracer.span("work", shard=3) as sp:
            sp.set(samples=128)
        (record,) = tracer.records
        assert record["args"] == {"shard": 3, "samples": 128}

    def test_name_is_positional_only(self):
        # An attribute literally called "name" must not collide with
        # the span's own name parameter.
        tracer = Tracer()
        with tracer.span("experiment.run", name="fig2"):
            pass
        (record,) = tracer.records
        assert record["name"] == "experiment.run"
        assert record["args"]["name"] == "fig2"

    def test_exception_is_recorded_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.records
        assert record["args"]["error"] == "RuntimeError"

    def test_module_helpers_noop_without_activation(self):
        assert current_tracer() is None
        with span("ignored", x=1) as sp:
            sp.set(y=2)   # must be silently absorbed
        event("also-ignored")

    def test_activation_routes_module_helpers(self):
        tracer = Tracer()
        with activate(tracer):
            assert current_tracer() is tracer
            with span("traced"):
                event("ping", n=1)
        assert current_tracer() is None
        names = [r["name"] for r in tracer.records]
        assert names == ["ping", "traced"]  # event appended before exit
        ping = tracer.records[0]
        traced = tracer.records[1]
        assert ping["parent"] == traced["id"]

    def test_activate_none_is_noop(self):
        with activate(None):
            assert current_tracer() is None

    def test_add_span_synthesizes_worker_attribution(self):
        tracer = Tracer()
        tracer.add_span("shard.execute", 0.5, 0.25, pid=4242, worker_pid=4242)
        (record,) = tracer.records
        assert record["pid"] == 4242
        assert record["start_s"] == 0.5 and record["dur_s"] == 0.25
        assert record["args"]["worker_pid"] == 4242

    def test_summary_aggregates_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("wave"):
                pass
        mark = tracer.mark()
        with tracer.span("wave"):
            pass
        assert tracer.summary()["wave"]["count"] == 4
        assert tracer.summary(since=mark)["wave"]["count"] == 1

    def test_jsonl_export_one_object_per_line(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.event("b")
        lines = tracer.to_jsonl().strip().split("\n")
        assert len(lines) == 2
        assert {json.loads(line)["name"] for line in lines} == {"a", "b"}

    def test_chrome_export_shape(self):
        tracer = Tracer()
        with tracer.span("region"):
            pass
        tracer.event("instant")
        doc = tracer.to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        instant = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 1 and "dur" in complete[0]
        assert len(instant) == 1 and instant[0]["s"] == "t"
        json.dumps(doc)  # must be a pure-JSON document

    def test_write_picks_format_from_suffix(self, tmp_path):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.trace.json"
        tracer.write(str(jsonl))
        tracer.write(str(chrome))
        assert json.loads(jsonl.read_text().splitlines()[0])["name"] == "x"
        assert json.loads(chrome.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("jobs")
        g.set(5)
        g.dec(2)
        assert g.value == 3.0

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 5.0):
            h.observe(value)
        assert h.count == 4
        assert h.sum == pytest.approx(6.25)
        assert h.cumulative() == [("0.1", 1), ("1", 3), ("+Inf", 4)]

    def test_series_are_label_keyed(self):
        reg = MetricsRegistry()
        a = reg.counter("req", labels={"route": "/jobs"})
        b = reg.counter("req", labels={"route": "/healthz"})
        same = reg.counter("req", labels={"route": "/jobs"})
        assert a is same and a is not b

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_snapshot_is_plain_json(self):
        reg = MetricsRegistry()
        reg.counter("c", "help me").inc(2)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["series"][0]["value"] == 2
        assert snap["h"]["series"][0]["buckets"] == {"1": 1, "+Inf": 1}

    def test_prometheus_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter("repro_req_total", "Requests",
                    labels={"route": "/jobs", "status": "200"}).inc(7)
        reg.gauge("repro_jobs", "Jobs", labels={"state": "running"}).set(1)
        reg.histogram("repro_lat_seconds", "Latency",
                      buckets=(0.1, 1.0)).observe(0.25)
        text = reg.to_prometheus()
        _assert_valid_prometheus(text)
        assert '# TYPE repro_req_total counter' in text
        assert 'repro_req_total{route="/jobs",status="200"} 7' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_lat_seconds_sum 0.25" in text

    def test_reset_zeroes_in_place(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc(9)
        reg.reset()
        assert c.value == 0.0           # the cached handle stays live
        c.inc()
        assert reg.counter("n") is c

    def test_default_registry_is_process_singleton(self):
        assert default_registry() is default_registry()


# The label block is matched greedily to the *last* closing brace:
# label values may themselves contain braces (route="/jobs/{fp}").
_PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9+.eE\-Inf]+)$"
)


def _assert_valid_prometheus(text: str) -> None:
    """Line-level validation of the text exposition format."""
    assert text.endswith("\n")
    for line in text.strip().split("\n"):
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"


# ----------------------------------------------------------------------
# Structured logging.
# ----------------------------------------------------------------------
class TestLogging:
    def test_one_json_object_per_line(self, capsys):
        import io

        stream = io.StringIO()
        configure_logging("info", stream=stream)
        try:
            log_event(get_logger("service.http"), "http.request",
                      method="GET", path="/healthz", status=200)
            line = stream.getvalue().strip()
            document = json.loads(line)
            assert document["event"] == "http.request"
            assert document["logger"] == "repro.service.http"
            assert document["method"] == "GET" and document["status"] == 200
            assert document["level"] == "info"
        finally:
            _teardown_logging()

    def test_configure_is_idempotent(self):
        import io

        stream = io.StringIO()
        configure_logging("info", stream=stream)
        configure_logging("info", stream=stream)
        try:
            log_event(get_logger("x"), "once")
            assert stream.getvalue().count("\n") == 1
        finally:
            _teardown_logging()

    def test_level_threshold(self):
        import io

        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        try:
            log_event(get_logger("x"), "dropped")                # info
            log_event(get_logger("x"), "kept", level=logging.ERROR)
            lines = stream.getvalue().strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["event"] == "kept"
        finally:
            _teardown_logging()

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging("loud")


def _teardown_logging():
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_json", False):
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True


# ----------------------------------------------------------------------
# Telemetry attachment + wall-time population.
# ----------------------------------------------------------------------
def _mc_spec(workers=None):
    execution = None if workers is None else Execution(
        workers=workers, shard_size=16)
    return MonteCarlo(n_samples=48, execution=execution)


def _yield_spec(workers=None):
    execution = None if workers is None else Execution(
        workers=workers, shard_size=64)
    return Yield(
        metric=ParameterMetric("vt0"), threshold=-3.0, shifts={"vt0": -2.0},
        n_samples=192, n_rounds=1, n_per_round=128, block_size=64,
        execution=execution,
    )


def _sweep_spec(workers=None):
    return Sweep(_mc_spec(workers), over={"w_nm": (600.0, 900.0)})


def _characterize_spec(workers=None):
    # One worker is the serial default (execution=None).
    execution = None if workers in (None, 1) else Execution(workers=workers)
    return Characterize(cell="inv", slews=(5e-12,), loads=(1e-15, 4e-15),
                        n_mc=4, execution=execution)


class TestTelemetryAttachment:
    def test_traced_run_attaches_span_summary(self, technology):
        tracer = Tracer()
        session = Session(technology=technology, seed=SEED, tracer=tracer,
                          metrics=True)
        try:
            result = session.run(_mc_spec(workers=1))
        finally:
            session.close()
        telemetry = result.runtime.telemetry
        assert set(telemetry) == {"spans", "metrics"}
        assert "run.wave" in telemetry["spans"]
        assert "shard.execute" in telemetry["spans"]
        assert "repro_waves_total" in telemetry["metrics"]
        # The live tracer kept recording the same spans.
        assert any(r["name"] == "session.run" for r in tracer.records)

    @pytest.mark.parametrize("build", [_sweep_spec, _characterize_spec])
    def test_serial_grids_carry_telemetry(self, technology, build):
        session = Session(technology=technology, seed=SEED, tracer=Tracer())
        try:
            result = session.run(build())
        finally:
            session.close()
        assert result.runtime.executor == "serial"
        assert {"run.wave", "shard.execute"} <= set(
            result.runtime.telemetry["spans"])

    def test_untraced_pool_shards_reach_the_latency_histogram(
            self, technology):
        """Pool workers time every shard whether or not the parent
        traces, so an untraced 2-worker run observes one
        ``repro_shard_seconds`` sample per shard, like a serial run."""
        def totals():
            snapshot = default_registry().snapshot()
            executed = snapshot.get("repro_shards_executed_total")
            seconds = snapshot.get("repro_shard_seconds")
            return (
                sum(s["value"] for s in executed["series"]) if executed else 0,
                sum(s["count"] for s in seconds["series"]) if seconds else 0,
            )

        before = totals()
        session = Session(technology=technology, seed=SEED)
        try:
            result = session.run(MonteCarlo(
                n_samples=128, execution=Execution(workers=2, shard_size=16)))
        finally:
            session.close()
        assert result.runtime.executor == "process-pool"
        assert result.runtime.n_shards == 8
        after = totals()
        assert after[0] - before[0] == 8
        assert after[1] - before[1] == 8

    def test_untraced_run_has_no_telemetry(self, technology):
        session = Session(technology=technology, seed=SEED)
        try:
            result = session.run(_mc_spec(workers=1))
        finally:
            session.close()
        assert result.runtime.telemetry is None

    def test_scrub_strips_telemetry(self, technology):
        session = Session(technology=technology, seed=SEED, tracer=Tracer())
        try:
            result = session.run(_mc_spec(workers=1))
        finally:
            session.close()
        assert scrub_envelope(result).runtime is None

    def test_wall_time_populated_on_every_path(self, technology):
        """Satellite audit: no envelope path leaves wall_time_s at 0.0."""
        session = Session(technology=technology, seed=SEED)
        try:
            mc = session.run(_mc_spec())            # legacy unsharded
            sharded = session.run(_mc_spec(workers=1))
            sweep = session.run(_sweep_spec())
            yld = session.run(_yield_spec())
        finally:
            session.close()
        assert mc.wall_time_s > 0.0
        assert sharded.wall_time_s > 0.0
        assert yld.wall_time_s > 0.0
        assert sweep.wall_time_s > 0.0
        for point in sweep.points:
            assert point.wall_time_s > 0.0


# ----------------------------------------------------------------------
# Determinism matrix: observability never perturbs results.
# ----------------------------------------------------------------------
class TestDeterminismMatrix:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("family",
                             ["montecarlo", "sweep", "yield", "characterize"])
    def test_envelopes_bit_identical_with_and_without_telemetry(
            self, technology, family, workers):
        build = {
            "montecarlo": _mc_spec,
            "sweep": _sweep_spec,
            "yield": _yield_spec,
            "characterize": _characterize_spec,
        }[family]
        spec = build(workers=workers)

        plain_session = Session(technology=technology, seed=SEED)
        try:
            plain = plain_session.run(spec)
        finally:
            plain_session.close()

        traced_session = Session(technology=technology, seed=SEED,
                                 tracer=Tracer(), metrics=True)
        try:
            traced = traced_session.run(spec)
        finally:
            traced_session.close()

        assert dumps(scrub_envelope(plain)) == dumps(scrub_envelope(traced))
