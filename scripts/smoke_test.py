#!/usr/bin/env python
"""End-to-end smoke test for the analysis service daemon.

Drives a real ``python -m repro serve`` subprocess over HTTP and proves
the two store contracts that make the service trustworthy:

1. **Content addressing / dedup** — the same yield spec submitted twice
   computes once: the second submission is a store hit, the result text
   is byte-identical fetch-to-fetch, and the envelope matches a plain
   in-process ``Session(executor=1).run(spec)`` bit-for-bit (up to wall
   time / scheduling metadata, which ``scrub_envelope`` removes).

2. **Crash durability** — SIGKILL the daemon mid-job, restart it over
   the same store directory, and the job resumes from its wave-boundary
   checkpoints (``runtime.resumed_shards > 0``) to an envelope that is
   still bit-identical to an uninterrupted local run.  Proven twice: on
   a ``Yield`` job, and on a 12-point ``Characterize`` grid killed after
   its first checkpointed wave of points.

3. **Observability** — ``GET /metrics`` serves the request counters,
   job-state gauges and latency histograms in both JSON and valid
   Prometheus text exposition, and ``GET /jobs/<fp>/timeline`` yields a
   job timing summary (printed below the checks).

Run from the repository root::

    python scripts/smoke_test.py
    python scripts/smoke_test.py --cluster

``--cluster`` runs the distributed variant instead: the daemon starts
with ``--cluster 127.0.0.1:<port>`` so jobs execute on worker agents,
two ``python -m repro worker`` subprocesses join, one is SIGKILLed
mid-job (the coordinator reshards its leases to the survivor), and the
checks prove the envelope is still bit-identical to a local serial run
and that a resubmission is a store hit.

Exit status 0 on success, 1 on any failed check.
"""

import os
import re
import signal
import socket
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import numpy as np  # noqa: E402

from repro.api import Characterize, Session, Yield  # noqa: E402
from repro.api.fingerprint import fingerprint  # noqa: E402
from repro.api.seeding import EXPERIMENT_SEED  # noqa: E402
from repro.api.serialize import dumps  # noqa: E402
from repro.service import ServiceClient, ServiceError, scrub_envelope  # noqa: E402
from repro.stats import ParameterMetric  # noqa: E402

STORE = os.environ.get("SMOKE_STORE", os.path.join(REPO_ROOT, ".smoke-store"))
failures = []


def check(label: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"[smoke] {status:4s} {label}{(' — ' + detail) if detail else ''}")
    if not ok:
        failures.append(label)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_daemon(port: int, cluster: str = None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    argv = [sys.executable, "-m", "repro", "serve", "--port", str(port),
            "--store", STORE, "--workers", "1"]
    if cluster is not None:
        argv += ["--cluster", cluster]
    return subprocess.Popen(
        argv, cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def start_worker(address: str, name: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--connect", address,
         "--name", name],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def wait_healthy(client: ServiceClient, proc: subprocess.Popen,
                 timeout: float = 180.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited early (rc={proc.returncode})")
        try:
            if client.health()["ok"]:
                return
        except (ServiceError, OSError):
            time.sleep(0.2)
    raise RuntimeError("daemon never became healthy")


# One Prometheus exposition line: a HELP/TYPE comment or a sample.  The
# label block is matched to the last brace — label values may contain
# braces themselves (route="/jobs/{fp}").
PROM_LINE = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?[0-9+.eE\-Inf]+)$"
)


def check_metrics(client: ServiceClient) -> None:
    """``/metrics`` sanity in both renderings."""
    snapshot = client.metrics()
    check("metrics JSON has request counters",
          "repro_service_requests_total" in snapshot)
    check("metrics JSON has job-state gauges",
          "repro_service_jobs" in snapshot)
    check("metrics JSON has latency histograms",
          snapshot.get("repro_service_request_seconds", {}).get("type")
          == "histogram")
    text = client.metrics(format="prometheus")
    bad = [line for line in text.strip().split("\n")
           if not PROM_LINE.match(line)]
    check("prometheus exposition parses", text.endswith("\n") and not bad,
          f"{len(bad)} bad line(s)" if bad else f"{len(text)} bytes")


def print_job_timing(client: ServiceClient, job) -> None:
    """Pretty-print one job's lifecycle timing from its timeline."""
    timeline = client.timeline(job)
    events = timeline["events"]
    if not events:
        print(f"[smoke] job {timeline['job'][:12]}: no timeline events")
        return
    t0 = events[0]["t"]
    print(f"[smoke] job {timeline['job'][:12]} timing "
          f"({timeline['state']}, {timeline.get('duration_s', 0.0):.3f} s):")
    for entry in events:
        extra = {k: v for k, v in entry.items() if k not in ("t", "event")}
        detail = f"  {extra}" if extra else ""
        print(f"[smoke]   +{entry['t'] - t0:8.3f}s {entry['event']}{detail}")


def yield_spec(technology, n_samples: int) -> Yield:
    model = technology["nmos"].statistical
    threshold = (float(np.asarray(model.nominal.vt0))
                 + 3.0 * model.sigmas(600.0, 40.0)["vt0"])
    return Yield(
        metric=ParameterMetric("vt0"), threshold=threshold,
        shifts={"vt0": 3.0}, n_samples=n_samples, n_rounds=1,
        n_per_round=16384, block_size=16384, w_nm=600.0, l_nm=40.0,
        fail_below=False,
    )


def characterize_spec() -> Characterize:
    """A 12-point (4 slews x 3 loads) Monte-Carlo INV grid; a point takes
    about a second, so a checkpointed 4-point wave takes several."""
    return Characterize(
        cell="inv", slews=(5e-12, 10e-12, 20e-12, 40e-12),
        loads=(1e-15, 2e-15, 4e-15), n_mc=16,
    )


def cluster_main() -> int:
    """The ``--cluster`` variant: serve --cluster + worker agents."""
    import shutil

    shutil.rmtree(STORE, ignore_errors=True)
    port = free_port()
    cluster_port = free_port()
    cluster = f"127.0.0.1:{cluster_port}"
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)

    print(f"[smoke] starting daemon on port {port} with cluster at "
          f"{cluster}, store {STORE}")
    daemon = start_daemon(port, cluster=cluster)
    workers = [start_worker(cluster, f"smoke{i}") for i in range(2)]
    session = None
    try:
        wait_healthy(client, daemon)
        check("daemon healthy with --cluster", True)

        session = Session(seed=EXPERIMENT_SEED, executor=1)

        # --- submit: the job executes on the worker agents ----------
        spec = yield_spec(session.technology, n_samples=2_000_000)
        job = client.submit(spec)
        check("cluster job started", job["outcome"] == "started",
              f"outcome={job['outcome']}")

        # --- worker death mid-job -----------------------------------
        # Wait for real progress (leases are out), then SIGKILL one
        # agent; the coordinator must reshard its leases and resume on
        # the survivor without touching the result.
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            progress = client.status(job)["progress"]
            if (progress["completed"] or 0) >= 2:
                break
            time.sleep(0.02)
        else:
            raise RuntimeError("cluster job never made progress")
        workers[0].send_signal(signal.SIGKILL)
        workers[0].wait(timeout=30)
        check("worker SIGKILLed mid-job", True,
              f"at {progress['completed']}/{progress['total']} shards")

        envelope = client.result(job, timeout=600.0)
        check("job completed on the surviving worker", True)
        reference = session.run(spec)
        check("cluster envelope bit-identical to Session(executor=1).run",
              dumps(scrub_envelope(envelope)) == (
                  dumps(scrub_envelope(reference))),
              f"p={envelope.payload.probability:.3e}")

        # --- store hit on resubmission ------------------------------
        again = client.submit(spec)
        check("resubmission is a store hit",
              again["outcome"] == "hit" and again["job"] == job["job"],
              f"outcome={again['outcome']}")
        print_job_timing(client, job)
    finally:
        if session is not None:
            session.close()
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
        shutil.rmtree(STORE, ignore_errors=True)

    if failures:
        print(f"[smoke] FAILED: {failures}")
        return 1
    print("[smoke] all cluster checks passed")
    return 0


def main() -> int:
    import shutil

    if "--cluster" in sys.argv[1:]:
        return cluster_main()
    shutil.rmtree(STORE, ignore_errors=True)
    port = free_port()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)

    print(f"[smoke] starting daemon on port {port}, store {STORE}")
    daemon = start_daemon(port)
    try:
        wait_healthy(client, daemon)
        check("daemon healthy", True)

        # The local reference session: same default technology, same
        # seed, serial executor — the service's envelope contract.
        session = Session(seed=EXPERIMENT_SEED, executor=1)

        # --- 1. dedup / store hit -----------------------------------
        quick = yield_spec(session.technology, n_samples=200_000)
        first = client.submit(quick)
        check("first submission runs", first["outcome"] == "started",
              f"outcome={first['outcome']}")
        envelope = client.result(first, timeout=300.0)
        again = client.submit(quick)
        check("second submission is a store hit",
              again["outcome"] == "hit" and again["job"] == first["job"],
              f"outcome={again['outcome']}")
        text_a = client.result_document(first)
        text_b = client.result_document(first)
        check("result text is byte-stable", text_a == text_b)
        reference = session.run(quick)
        check("envelope bit-identical to Session(executor=1).run",
              dumps(scrub_envelope(envelope)) == (
                  dumps(scrub_envelope(reference))),
              f"p={envelope.payload.probability:.3e}")

        # --- observability: /metrics + job timeline -----------------
        check_metrics(client)
        timeline = client.timeline(first)
        events = [e["event"] for e in timeline["events"]]
        # The dedup re-submission above already appended a "hit" event,
        # so "done" is inside the list, not necessarily last.
        check("job timeline records the lifecycle",
              events[:2] == ["submitted", "started"] and "done" in events,
              "->".join(events))
        print_job_timing(client, first)

        # --- 2. SIGKILL mid-job, restart, resume --------------------
        big = yield_spec(session.technology, n_samples=8_000_000)
        fp = fingerprint(big, seed=EXPERIMENT_SEED)
        job = client.submit(big)
        check("long job started", job["outcome"] == "started")
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            progress = client.status(job)["progress"]
            # Past the adaptation round, several estimation waves in:
            # checkpoints exist on disk.
            if (progress["total"] or 0) > 100 and (
                    progress["completed"] or 0) >= 8:
                break
            time.sleep(0.02)
        else:
            raise RuntimeError("long job never reached estimation waves")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        check("daemon killed mid-job", True,
              f"at {progress['completed']}/{progress['total']} shards")
        journal = os.path.join(STORE, "jobs", f"{fp}.json")
        ckpt_dir = os.path.join(STORE, "ckpt")
        check("journal survives the kill", os.path.exists(journal))
        check("checkpoints survive the kill",
              any(name.startswith(fp) for name in os.listdir(ckpt_dir)))

        daemon = start_daemon(port)
        wait_healthy(client, daemon)
        check("daemon restarted over the same store", True)
        resumed = client.result(fp, timeout=600.0)
        check("recovered job resumed from checkpoint",
              resumed.runtime.resumed_shards > 0,
              f"resumed_shards={resumed.runtime.resumed_shards}")
        reference = session.run(big)
        check("resumed envelope bit-identical to uninterrupted run",
              dumps(scrub_envelope(resumed)) == (
                  dumps(scrub_envelope(reference))))

        # --- 3. SIGKILL a characterization grid mid-run -------------
        grid = characterize_spec()
        fp = fingerprint(grid, seed=EXPERIMENT_SEED)
        job = client.submit(grid)
        check("characterization job started", job["outcome"] == "started",
              f"outcome={job['outcome']}")
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            status = client.status(job)
            progress = status["progress"]
            if status["state"] != "running":
                raise RuntimeError(
                    f"characterization job ended ({status['state']}) "
                    "before the kill")
            # The runner writes the checkpoint before it reports
            # progress, so reported points are points on disk.
            if (progress["completed"] or 0) >= 4:
                break
            time.sleep(0.02)
        else:
            raise RuntimeError("characterization job never made progress")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        check("daemon killed mid-grid", True,
              f"at {progress['completed']}/{progress['total']} "
              f"{progress.get('unit', 'points')}")
        check("grid checkpoints survive the kill",
              any(name.startswith(fp) for name in os.listdir(ckpt_dir)))

        daemon = start_daemon(port)
        wait_healthy(client, daemon)
        resumed = client.result(fp, timeout=600.0)
        check("recovered grid resumed from checkpoint",
              resumed.runtime.resumed_shards > 0,
              f"resumed_shards={resumed.runtime.resumed_shards}")
        reference = session.run(grid)
        check("resumed grid bit-identical to Session(executor=1).run",
              dumps(scrub_envelope(resumed)) == (
                  dumps(scrub_envelope(reference))))
        session.close()
    finally:
        if daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
        shutil.rmtree(STORE, ignore_errors=True)

    if failures:
        print(f"[smoke] FAILED: {failures}")
        return 1
    print("[smoke] all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
