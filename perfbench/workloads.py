"""Run one workload: timed window, fresh starts, traced layers, checks.

Each run interleaves its fresh starts with its timed work (fresh start,
work chunk, fresh start, ...), so both the ``setup_s`` median and the
throughput window span the whole run rather than one phase of the host.
Every run is pinned to one CPU.  Untraced runs sample that CPU's speed
throughout (:class:`perfbench.hostspeed.HostProbe`) and report
``samples_per_s`` and ``setup_s`` in reference-CPU seconds, with the
wall-clock figures beside them.  With tracing on, work alternates
between untraced and traced chunks: the traced ones give the layer
table, the pair gives the tracing overhead, and every traced output must
equal the untraced one bit for bit.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional

from perfbench import hostspeed, layers, mc, svc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
COLDSTART = os.path.join(HERE, "coldstart.py")

#: Fresh starts per run (``setup_s`` is their median).
SETUPS = 3

#: End-to-end metrics: name -> (unit, better).  The two times are in
#: reference-CPU seconds (see :mod:`perfbench.hostspeed`).
END_TO_END = {
    "samples_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> unit.  Counts are per
#: unit of traced work (a batch, or a cold request for the service),
#: except ``api.plan.compiles`` (per fresh start); ``*_frac`` self times
#: are shares of ``traced_total_s``.
PER_LAYER = {
    "devices.iv.calls": "count",
    "devices.iv.self_frac": "fraction",
    "devices.charge.calls": "count",
    "devices.charge.self_frac": "fraction",
    "circuit.assemble.calls": "count",
    "circuit.assemble.self_frac": "fraction",
    "circuit.assemble.rows": "count",
    "circuit.linsolve.calls": "count",
    "circuit.linsolve.self_frac": "fraction",
    "circuit.linsolve.rows": "count",
    "circuit.assemble.active_frac": "fraction",
    "circuit.newton.calls": "count",
    "circuit.newton.self_frac": "fraction",
    "circuit.newton.iterations": "count",
    "circuit.newton.gmin_ladder": "count",
    "circuit.newton.nonconverged": "count",
    "circuit.sweep.points": "count",
    "circuit.transient.steps": "count",
    "analysis.snm.self_frac": "fraction",
    "analysis.delay.self_frac": "fraction",
    "cells.draw.self_frac": "fraction",
    "api.plan.calls": "count",
    "api.plan.self_frac": "fraction",
    "api.plan.compiles": "count",
    "setup.import_thirdparty_s": "s",
    "setup.import_repro_s": "s",
    "setup.technology_s": "s",
    "setup.warmup_s": "s",
    "api.fingerprint.self_frac": "fraction",
    "api.codec.self_frac": "fraction",
    "service.http.self_frac": "fraction",
    "service.polls_per_cold": "count",
    "service.store.write_frac": "fraction",
    "service.store.read_frac": "fraction",
    "runtime.waves": "count",
    "runtime.merge.self_frac": "fraction",
    "runtime.checkpoint.writes": "count",
    "runtime.checkpoint.bytes": "bytes",
    "runtime.checkpoint.self_frac": "fraction",
    "runtime.checkpoint.loads": "count",
    "stats.yield.rounds": "count",
    "stats.yield.self_frac": "fraction",
    "obs.trace_overhead_frac": "fraction",
    "unattributed_s": "s",
    "traced_total_s": "s",
    "hooks.missing": "count",
}

#: ``*_frac`` metric -> the layer whose self time it is.
_SELF_FRAC = {
    "service.store.write_frac": "service.store.write",
    "service.store.read_frac": "service.store.read",
    **{name: name[: -len(".self_frac")] for name in PER_LAYER
       if name.endswith(".self_frac")},
}

#: Workload names in run order (why each exists: BENCHMARK.json, README.md).
WORKLOADS = (*mc.BATCH_SAMPLES, "service_cold_warm")


def peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def _metric(value, unit: str, n: int, of: str) -> dict:
    return {"value": value, "unit": unit, "n": n, "of": of}


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and every process it starts in the block, to one
    CPU.  The host-speed sidecar must share the workload's CPU (the
    slowdown it measures belongs to one vCPU).  The service's client and
    daemons hand control to each other several times per request; across
    vCPUs every hand-off to an idle vCPU waits on the host, and in busy
    phases of a shared 2-vCPU VM that halved the cold-job rate, against a
    quarter lost on one CPU."""
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def _sampling(probe: hostspeed.HostProbe, trace: bool):
    """The probe's context in an untraced run; none in a traced one, whose
    layer table must hold program time only."""
    return contextlib.nullcontext() if trace else probe


def _timing_metrics(probe: hostspeed.HostProbe, samples: int,
                    windows: List[tuple], setups: List[tuple],
                    n: int, of_samples: str, of_setups: str) -> dict:
    """``samples_per_s`` and ``setup_s`` in reference-CPU seconds, their
    wall-clock forms and the CPU's mean slowdown.  *windows* and *setups*
    are ``(t0, t1)`` intervals of timed work and of fresh starts; *n*
    counts the units of work (*of_samples*) the windows held."""
    ref = sum(probe.reference_s(*w) for w in windows)
    wall = sum(probe.wall_s(*w) for w in windows)
    k = len(setups)
    return {
        "samples_per_s": _metric(samples / ref, "1/s", n, of_samples),
        "setup_s": _metric(median(probe.reference_s(*s) for s in setups), "s",
                           k, of_setups),
        "wall_samples_per_s": _metric(samples / wall, "1/s", n, of_samples),
        "wall_setup_s": _metric(median(probe.wall_s(*s) for s in setups), "s",
                                k, of_setups),
        "host_slowdown": _metric(probe.slowdown(), "ratio", len(probe.samples),
                                 "probes"),
    }


def layer_metrics(table: dict, per: float, setup_rows: List[dict],
                  trace_overhead: Optional[float], missing: List[str],
                  polls_per_cold: float = 0.0) -> Dict[str, float]:
    """The :data:`PER_LAYER` values from a layer table.

    *per* is the number of work units (batches or cold requests) the
    traced windows held; counts are divided by it.  *missing* lists the
    layer entry points that no longer exist: their rows read 0, and
    ``hooks.missing`` counts them so that a rename does not pass for a
    saving.
    """
    total = table["total_s"]
    counts = table["counts"]
    out: Dict[str, float] = {}
    for name in PER_LAYER:
        if name in _SELF_FRAC:
            out[name] = table["self_s"].get(_SELF_FRAC[name], 0.0) / total
        elif name.startswith("setup."):
            key = name[len("setup."):]
            out[name] = median(row[key] for row in setup_rows)
        else:
            out[name] = counts.get(name, 0.0) / per
    # Plans compile in a fresh start's first batch, never in a warm one.
    out["api.plan.compiles"] = median(row.get("plan_compiles", 0)
                                      for row in setup_rows)
    rows = counts.get("circuit.assemble.rows", 0.0)
    out["circuit.assemble.active_frac"] = (
        counts.get("circuit.linsolve.rows", 0.0) / rows if rows else 0.0
    )
    out["service.polls_per_cold"] = polls_per_cold
    out["obs.trace_overhead_frac"] = trace_overhead if trace_overhead is not None else 0.0
    out["unattributed_s"] = table["unattributed_s"]
    out["traced_total_s"] = total
    out["hooks.missing"] = len(missing)
    return out


# ----------------------------------------------------------------------
# Monte-Carlo workloads.
# ----------------------------------------------------------------------
def fresh_start_mc(name: str, seed: int) -> dict:
    """One fresh interpreter to its first warm-up result."""
    t_launch = time.perf_counter()
    done = subprocess.run([sys.executable, COLDSTART, name, str(seed)],
                          capture_output=True, check=True, cwd=ROOT,
                          timeout=600)
    row = json.loads(done.stdout.decode().strip().splitlines()[-1])
    row.update(t_launch=t_launch, setup_s=row["t_end"] - t_launch)
    return row


def run_mc(name: str, seed: int, seconds: float, trace: bool,
           n_samples: Optional[int] = None, setups: int = SETUPS,
           corrupt=None) -> dict:
    """Timed batches of a Monte-Carlo workload (see :mod:`perfbench.mc`).

    *corrupt* (tests only) maps a batch's output array before it is
    checked, to prove that a wrong output lands in ``failed``.
    """
    from repro.api import Session
    from repro.obs import Tracer, activate

    n = n_samples or mc.BATCH_SAMPLES[name]
    reference = mc.reference_for(name, seed, n)
    session = Session(seed=mc.session_seed(seed))
    batch = mc.make_batch(name, session, n)
    mc.make_batch(name, session, mc.WARMUP_SAMPLES)()
    tracer = Tracer() if trace else None
    probe = hostspeed.HostProbe()
    batches: List[dict] = []
    setup_rows: List[dict] = []
    missing: List[str] = []

    def one_batch() -> None:
        traced = trace and len(batches) % 2 == 1
        # Each batch starts with the earlier ones' garbage collected, so
        # ``peak_rss_mb`` reads one batch's peak, not where the collector
        # happened to run (otherwise it varied by up to 15 % between runs).
        gc.collect()
        if traced:
            with layers.Hooks(tracer) as hooks, activate(tracer):
                t0 = time.perf_counter()
                values = batch()
                t1 = time.perf_counter()
            missing[:] = hooks.missing
        else:
            t0 = time.perf_counter()
            values = batch()
            t1 = time.perf_counter()
        if corrupt is not None:
            values = corrupt(values)
        batches.append({"traced": traced, "t0": t0, "t1": t1, "values": values})

    def fresh_start() -> None:
        row = fresh_start_mc(name, seed)
        if not row["warmup_finite"]:
            raise RuntimeError("fresh-start warm-up batch has non-finite samples")
        setup_rows.append(row)

    # Whole batches until the window is within half a batch of full (at
    # least one batch, and with tracing one of each kind); fresh start k
    # runs once the batches have filled k/setups of the window.
    elapsed = 0.0
    with one_cpu(), _sampling(probe, trace):
        while len(batches) < 1 + trace or elapsed + elapsed / len(batches) / 2 < seconds:
            if len(setup_rows) < setups and elapsed >= len(setup_rows) * seconds / setups:
                fresh_start()
            one_batch()
            elapsed = sum(b["t1"] - b["t0"] for b in batches)
        while len(setup_rows) < setups:
            fresh_start()

    first = batches[0]["values"].tobytes()
    failed = 0
    notes = []
    for b in batches:
        bad = mc.failed_samples(b["values"], reference)
        if b["values"].tobytes() != first:
            bad = b["values"].size
            notes.append("traced batch output differs from the untraced one"
                         if b["traced"] else "batch output differs from the first")
        failed += bad
    attempted = sum(b["values"].size for b in batches)
    if reference is None:
        notes.append(f"no pinned reference for n={n}: checked finiteness and "
                     "batch-to-batch identity only")
    result = {
        "workload": name, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "notes": notes, "missing_hooks": missing,
        "summary": mc.summarize(batches[0]["values"]),
    }
    wall = [b["t1"] - b["t0"] for b in batches]
    result["batch_wall_s"] = wall
    if not trace:
        result["metrics"] = {
            **_timing_metrics(probe, attempted,
                              [(b["t0"], b["t1"]) for b in batches],
                              [(r["t_launch"], r["t_end"]) for r in setup_rows],
                              len(batches), f"batches of {n} samples",
                              "fresh starts"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB", 1, "process"),
            "failed_frac": _metric(failed / attempted, "fraction", attempted,
                                   "samples"),
        }
        return result

    traced = [b for b in batches if b["traced"]]
    epoch = layers.epoch_of(tracer)
    windows = layers.to_tracer_windows([(b["t0"], b["t1"]) for b in traced], epoch)
    table = layers.layer_table(tracer.records, windows)
    overhead = layers.overhead(
        [b["t1"] - b["t0"] for b in batches if not b["traced"]],
        [b["t1"] - b["t0"] for b in traced])
    result.update(
        table=table, tracer=tracer,
        layers=layer_metrics(table, len(traced), setup_rows, overhead, missing),
    )
    return result


# ----------------------------------------------------------------------
# Service workload.
# ----------------------------------------------------------------------
def _quantile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values), q))


def run_service(seed: int, seconds: float, trace: bool,
                setups: int = SETUPS, corrupt=None,
                chrome_out: Optional[str] = None) -> dict:
    """Closed-loop cold/warm traffic against ``serve --workers 1``."""
    stream = svc.SpecStream(seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="service-", dir=OUT)
    daemons: List[svc.Daemon] = []
    setup_rows: List[dict] = []
    windows: Dict[str, List[tuple]] = {"untraced": [], "traced": []}
    clients: Dict[str, svc.Client] = {}
    probe = hostspeed.HostProbe()
    try:
        with one_cpu():
            for kind in ("untraced", "traced") if trace else ("untraced",):
                daemon = svc.Daemon(workdir, kind, trace=kind == "traced")
                daemons.append(daemon)
                clients[kind] = svc.Client(daemon.wait_ready(), stream, seed)
                for _ in range(svc.WARMUP_BLOCKS * (svc.WARM_PER_COLD + 1)):
                    clients[kind].step(timed=False)
            chunk = seconds / (setups * len(clients))
            with _sampling(probe, trace):
                for k in range(setups):
                    setup_rows.append(svc.fresh_start(workdir, f"setup{k}", stream))
                    for kind, client in clients.items():
                        windows[kind].append(client.run_for(chunk))
        rss = peak_rss_mb(daemons[0].proc.pid)
        reports = {kind: d.stop() for kind, d in zip(clients, daemons)}
        if trace and chrome_out:
            shutil.copyfile(daemons[1].chrome_path, chrome_out)
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    records = {kind: c.records for kind, c in clients.items()}
    if corrupt is not None:
        corrupt(records["untraced"])
    for kind in records:
        svc.check_records(records[kind], stream)
    notes = []
    if trace:
        # Same seeded request sequence on both daemons: every common cold
        # envelope must match up to the wall-time/scheduling fields.
        for u, t in zip(records["untraced"], records["traced"]):
            if (u["kind"] == "cold" and not u["error"] and not t["error"]
                    and svc.scrubbed(u["text"]) != svc.scrubbed(t["text"])):
                t["error"] = "traced envelope differs from the untraced one"
                notes.append(t["error"])
    # Warm-up requests are checked like timed ones, so they count too.
    every = [r for recs in records.values() for r in recs]
    failed = sum(1 for r in every if r["error"])
    notes += sorted({r["error"] for r in every if r["error"]})
    result = {
        "workload": "service_cold_warm", "correct": failed == 0,
        "attempted": len(every), "failed": failed, "notes": notes,
    }
    timed = {kind: [r for r in recs if r["timed"]] for kind, recs in records.items()}

    main = timed["untraced"]
    cold = [1e3 * (r["t1"] - r["t0"]) for r in main if r["kind"] == "cold"]
    warm = [1e3 * (r["t1"] - r["t0"]) for r in main if r["kind"] == "warm"]
    if not trace:
        samples = sum(r.get("samples", 0) for r in main if r["kind"] == "cold")
        result["metrics"] = {
            **_timing_metrics(probe, samples, windows["untraced"],
                              [(r["t_launch"], r["t_end"]) for r in setup_rows],
                              len(cold), "cold jobs", "fresh daemons"),
            "peak_rss_mb": _metric(rss, "MB", 1, "daemon"),
            "failed_frac": _metric(failed / len(every), "fraction", len(every),
                                   "requests"),
            "cold_p50_ms": _metric(median(cold), "ms", len(cold), "cold requests"),
            "cold_p90_ms": _metric(_quantile(cold, 0.9), "ms", len(cold),
                                   "cold requests"),
            "warm_p50_ms": _metric(median(warm), "ms", len(warm), "warm requests"),
            "warm_p90_ms": _metric(_quantile(warm, 0.9), "ms", len(warm),
                                   "warm requests"),
        }
        return result

    report = reports["traced"]
    table = layers.layer_table(
        report["records"],
        layers.to_tracer_windows(windows["traced"], report["epoch"]))
    traced_cold = [r for r in timed["traced"] if r["kind"] == "cold"]
    m = min(len(timed["untraced"]), len(timed["traced"]))
    overhead = (sum(r["t1"] - r["t0"] for r in timed["traced"][:m])
                / sum(r["t1"] - r["t0"] for r in timed["untraced"][:m]) - 1.0)
    missing = report.get("missing", [])
    result.update(
        table=table, missing_hooks=missing,
        layers=layer_metrics(
            table, max(1, len(traced_cold)), setup_rows, overhead, missing,
            polls_per_cold=(sum(r["polls"] for r in traced_cold)
                            / max(1, len(traced_cold)))),
    )
    return result
