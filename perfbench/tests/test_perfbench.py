"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

They check that every named metric is emitted with its unit, that the
traced layer rows plus ``unattributed_s`` add up to ``traced_total_s``,
that a corrupted output lands in ``failed``, and that the host-speed
probe scales time as documented and stops its sidecar.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import hostspeed, layers, mc, svc, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _assert_identity(result):
    table = result["table"]
    attributed = sum(table["self_s"].values())
    assert table["unattributed_s"] >= 0.0
    assert math.isclose(attributed + table["unattributed_s"], table["total_s"],
                        rel_tol=1e-9)
    metrics = result["layers"]
    fracs = sum(v for k, v in metrics.items() if k.endswith("_frac")
                and k in workloads._SELF_FRAC)
    assert fracs <= 1.0 + 1e-9
    assert metrics["traced_total_s"] == table["total_s"]


def test_benchmark_json_names_every_metric_with_its_unit():
    bench = _benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == workloads.PER_LAYER
    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as handle:
        predictions = json.load(handle)
    named = set(workloads.END_TO_END) | set(workloads.PER_LAYER)
    for row in predictions["layers"]:
        assert set(row["metrics"]) <= named
        assert set(row["moves"]) <= set(workloads.END_TO_END) | {
            "cold_p50_ms", "cold_p90_ms", "warm_p50_ms", "warm_p90_ms",
            "failed_frac"}
        assert set(row["workloads"]) <= set(workloads.WORKLOADS)


def test_self_times_split_concurrent_threads_and_sum_to_the_window():
    def span(name, start, dur, tid, ident):
        return {"ph": "X", "name": name, "start_s": start, "dur_s": dur,
                "tid": tid, "id": ident, "parent": None, "args": {}}

    records = [
        span("stats.yield", 0.0, 4.0, 1, 1),
        span("runtime.checkpoint", 1.0, 1.0, 1, 2),   # child of stats.yield
        span("service.http", 1.5, 1.0, 2, 3),         # another thread
        span("analysis.snm", 9.0, 1.0, 1, 4),         # outside the window
    ]
    table = layers.layer_table(records, [(0.0, 5.0)])
    selfs = table["self_s"]
    assert selfs["runtime.checkpoint"] == pytest.approx(0.5 + 0.25)
    assert selfs["service.http"] == pytest.approx(0.25 + 0.25)
    assert selfs["stats.yield"] == pytest.approx(1.0 + 0.25 + 1.5)
    assert selfs["analysis.snm"] == 0.0
    assert table["unattributed_s"] == pytest.approx(1.0)
    assert sum(selfs.values()) + table["unattributed_s"] == pytest.approx(5.0)


def test_reference_time_takes_out_probes_and_scales_by_their_mean():
    probe = hostspeed.HostProbe()
    ref = hostspeed.REFERENCE_S
    # Two probes inside [0, 1) at twice the reference duration, one after.
    probe.samples = [(0.1, 2 * ref), (0.6, 2 * ref), (1.5, ref)]
    assert probe.wall_s(0.0, 1.0) == pytest.approx(1.0 - 4 * ref)
    assert probe.slowdown(0.0, 1.0) == pytest.approx(2.0)
    assert probe.reference_s(0.0, 1.0) == pytest.approx((1.0 - 4 * ref) / 2)
    assert probe.slowdown() == pytest.approx(5 / 3)
    # No probe inside: wall time as it is.
    assert probe.reference_s(2.0, 2.5) == pytest.approx(0.5)


def test_host_probe_samples_on_its_own_cpu_and_stops():
    with workloads.one_cpu(), hostspeed.HostProbe() as probe:
        sidecar = probe._proc
        assert os.sched_getaffinity(sidecar.pid) == os.sched_getaffinity(0)
        t0 = time.perf_counter()
        time.sleep(0.5)
        t1 = time.perf_counter()
    assert sidecar.returncode == 0
    inside = [d for s, d in probe.samples if t0 <= s < t1]
    assert len(inside) >= 5 and all(d > 0 for d in inside)
    assert probe.reference_s(t0, t1) > 0


def test_corrupted_batch_misses_its_reference():
    values = np.linspace(0.05, 0.2, 50)
    reference = mc.summarize(values)
    assert mc.failed_samples(values, reference) == 0
    corrupted = values.copy()
    corrupted[7] *= 1.5
    assert mc.failed_samples(corrupted, reference) == values.size
    corrupted[7] = np.nan
    assert mc.failed_samples(corrupted, None) == 1


def test_pinned_references_cover_every_seed_slot():
    refs = mc.load_references()
    for name, n_samples in mc.BATCH_SAMPLES.items():
        entry = refs["workloads"][name]
        assert entry["n_samples"] == n_samples
        assert len(entry["seeds"]) == mc.SEED_SLOTS
        for seed in range(mc.SEED_SLOTS):
            assert mc.reference_for(name, seed, n_samples) is not None


def test_mc_tiny_run_emits_metrics_and_traced_layers():
    plain = workloads.run_mc("snm_read_mc", 0, 0.0, False, n_samples=4, setups=1)
    assert plain["correct"] and plain["failed"] == 0
    for name, (unit, _) in workloads.END_TO_END.items():
        assert plain["metrics"][name]["unit"] == unit
        assert plain["metrics"][name]["value"] > 0

    traced = workloads.run_mc("snm_read_mc", 0, 0.0, True, n_samples=4, setups=1)
    assert traced["correct"], traced["notes"]
    assert set(traced["layers"]) == set(workloads.PER_LAYER)
    _assert_identity(traced)
    per_batch = traced["layers"]
    assert per_batch["devices.iv.calls"] > 0
    assert per_batch["devices.charge.calls"] == 0
    assert per_batch["circuit.sweep.points"] == 2 * 61
    assert per_batch["circuit.newton.calls"] == 2 * 61
    assert 0.0 < per_batch["circuit.assemble.active_frac"] <= 1.0
    assert per_batch["hooks.missing"] == 0


def test_mc_corrupted_output_lands_in_failed():
    def corrupt(values):
        values = values.copy()
        values[0] = np.nan
        return values

    result = workloads.run_mc("snm_read_mc", 0, 0.0, False, n_samples=4,
                              setups=1, corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_service_tiny_run_emits_metrics_and_traced_layers():
    plain = workloads.run_service(0, 1.0, False, setups=1)
    assert plain["correct"], plain["notes"]
    for name, (unit, _) in workloads.END_TO_END.items():
        assert plain["metrics"][name]["unit"] == unit
        assert plain["metrics"][name]["value"] > 0
    for name in ("cold_p50_ms", "cold_p90_ms", "warm_p50_ms", "warm_p90_ms"):
        assert plain["metrics"][name]["unit"] == "ms"

    traced = workloads.run_service(0, 1.0, True, setups=1)
    assert traced["correct"], traced["notes"]
    assert set(traced["layers"]) == set(workloads.PER_LAYER)
    _assert_identity(traced)
    assert traced["layers"]["runtime.waves"] == 6
    assert traced["layers"]["stats.yield.rounds"] == 2
    assert traced["layers"]["devices.iv.calls"] == 0


def test_service_corrupted_warm_fetch_lands_in_failed():
    def corrupt(records):
        warm = next(r for r in records if r["kind"] == "warm" and r["timed"])
        warm["text"] = warm["text"].replace(b"probability", b"probabilitY", 1)

    result = workloads.run_service(0, 1.0, False, setups=1, corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_service_checked_cold_envelope_must_match_a_local_run():
    from repro.api.serialize import dumps, loads

    def corrupt(records):
        # The last timed cold envelope that is checked: it still decodes
        # and stays in range, so only the local re-run catches it.
        colds = [r for r in records if r["kind"] == "cold" and r["timed"]]
        cold = colds[svc.CHECKED_COLD - 1]
        envelope = loads(cold["text"].decode())
        payload = dataclasses.replace(
            envelope.payload, probability=envelope.payload.probability * 1.01)
        cold["text"] = dumps(dataclasses.replace(envelope, payload=payload)).encode()

    result = workloads.run_service(0, 1.0, False, setups=1, corrupt=corrupt)
    assert not result["correct"]
    assert "envelope differs from a local Session run" in result["notes"]


def test_missing_entry_point_is_counted(monkeypatch):
    monkeypatch.setattr(layers, "_TARGETS", layers._TARGETS + (
        ("analysis.snm", "repro.cells.sram:renamed_away", {}),))
    traced = workloads.run_mc("snm_read_mc", 0, 0.0, True, n_samples=4, setups=1)
    assert traced["missing_hooks"] == ["repro.cells.sram:renamed_away"]
    assert traced["layers"]["hooks.missing"] == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snm_read_mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
