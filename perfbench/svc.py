"""The ``service_cold_warm`` workload: one closed-loop client over HTTP.

The daemon is ``serve --workers 1`` on a fresh store (see
``serve_entry.py``).  One client, one connection at a time, sends a
seeded mix of two request kinds:

* **cold** — submit a never-seen device-level ``Yield(metric=
  ParameterMetric("vt0"), ...)`` spec, poll its status every
  :data:`POLL_S` seconds until it leaves ``running``, fetch the result;
* **warm** — re-submit a spec whose result is stored (a store hit) and
  fetch the result.

Requests come in blocks of one cold and :data:`WARM_PER_COLD` warm
requests, the cold one at a seeded place in its block.  The ratio makes
cold and warm requests each take about half of the loop's time, so the
loop's throughput moves with either path.

Cold specs are sized to run six waves (two CE rounds of one wave each
plus a four-wave estimation phase), so every cold job journals, rewrites
its checkpoint per wave and puts a result; warm requests only read the
store.  The benchmark seed picks each cold spec's threshold and stream
offset, the cold request's place in each block and which stored spec
each warm request re-fetches.  Latency is submit to result bytes
received.  Every check that decodes an envelope runs after the timed
window.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENTRY = os.path.join(HERE, "serve_entry.py")

#: Cold spec geometry: 2 rounds x 512 + 2048 estimation samples in blocks
#: of 128 -> waves of 4 blocks: 1 + 1 + 4 waves, 3072 samples per job.
COLD_SPEC = dict(n_samples=2048, n_rounds=2, n_per_round=512, block_size=128,
                 w_nm=600.0, l_nm=40.0, fail_below=False)
COLD_SAMPLES = 3072
#: Threshold range in vt0 sigmas.  Above ~4.3 sigma the CE schedule never
#: reaches the threshold in round one, so every cold job does the same work.
SIGMA_RANGE = (4.5, 5.0)
#: Status poll interval of a cold request, well under its latency.
POLL_S = 0.004
#: Warm requests per cold one.  Measured on a 2-vCPU VM (Intel Xeon), a
#: cold request took ~42 ms and a warm one ~3.6 ms, so eleven warm ones
#: take about as long as one cold one.
WARM_PER_COLD = 11
#: Untimed request blocks that warm a daemon before its window.
WARMUP_BLOCKS = 2
#: Leading timed cold envelopes re-run locally as a reference, after the
#: window.
CHECKED_COLD = 3
REQUEST_TIMEOUT_S = 60.0
_BANNER = re.compile(rb"repro analysis service on (http://[0-9.]+:[0-9]+)")


class SpecStream:
    """The seeded sequence of never-seen cold specs and their request bodies."""

    def __init__(self, seed: int):
        import numpy as np
        from repro.pipeline import default_technology

        model = default_technology()["nmos"].statistical
        self.sigma = float(model.sigmas(600.0, 40.0)["vt0"])
        self.nominal = float(np.asarray(model.nominal.vt0))
        self._rng = np.random.default_rng([int(seed) % 2**32, 1])
        self.specs: list = []
        self.bodies: List[bytes] = []

    def body(self, index: int) -> bytes:
        from repro.api import Yield
        from repro.api.serialize import encode
        from repro.stats import ParameterMetric

        while len(self.bodies) <= index:
            k = len(self.specs)
            spec = Yield(
                metric=ParameterMetric("vt0"),
                threshold=self.nominal + self.sigma * float(
                    self._rng.uniform(*SIGMA_RANGE)),
                shifts={"vt0": 3.0}, seed_offset=k + 1, **COLD_SPEC,
            )
            self.specs.append(spec)
            self.bodies.append(json.dumps({"spec": encode(spec)}).encode())
        return self.bodies[index]


def http_request(port: int, method: str, path: str,
                 body: Optional[bytes] = None):
    """One request on a fresh connection: ``(status, body bytes)``.

    A connection per request, as ``repro.service.client.ServiceClient``
    makes.  (On a kept-alive connection the daemon's responses stall
    ~40 ms each: it writes headers and body in two sends without
    TCP_NODELAY, and the second waits for the client's delayed ACK.)
    """
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Client:
    """Closed-loop client of one daemon: blocks of one cold request and
    :data:`WARM_PER_COLD` warm ones, the cold one at a seeded place (the
    first block starts with it, since nothing is stored yet)."""

    def __init__(self, port: int, stream: SpecStream, seed: int):
        import numpy as np

        self.port = port
        self.stream = stream
        self._rng = np.random.default_rng([int(seed) % 2**32, 2])
        self._block: List[str] = []
        self.next_cold = 0
        self.stored: List[int] = []          # cold indices with results
        self.fingerprints: Dict[int, str] = {}
        self.records: List[dict] = []

    def step(self, timed: bool) -> dict:
        if not self._block:
            self._block = ["warm"] * WARM_PER_COLD
            at = int(self._rng.integers(WARM_PER_COLD + 1)) if self.stored else 0
            self._block.insert(at, "cold")
        if self._block.pop(0) == "cold" or not self.stored:
            record = self._cold()
        else:
            record = self._warm()
        record["timed"] = timed
        self.records.append(record)
        return record

    def _cold(self) -> dict:
        index = self.next_cold
        self.next_cold += 1
        body = self.stream.body(index)
        record = {"kind": "cold", "index": index, "polls": 0, "error": None}
        t0 = time.perf_counter()
        status, data = http_request(self.port, "POST", "/jobs", body)
        doc = json.loads(data)
        if status != 202 or doc.get("outcome") != "started":
            record.update(error=f"submit {status} {doc}", t0=t0,
                          t1=time.perf_counter())
            return record
        fp = doc["job"]
        state = "running"
        while state == "running":
            time.sleep(POLL_S)
            status, data = http_request(self.port, "GET", f"/jobs/{fp}")
            record["polls"] += 1
            state = json.loads(data).get("state") if status == 200 else "error"
            if time.perf_counter() - t0 > REQUEST_TIMEOUT_S:
                state = "timeout"
        status, text = http_request(self.port, "GET", f"/jobs/{fp}/result")
        record.update(t0=t0, t1=time.perf_counter(), fp=fp, text=text)
        if state != "done" or status != 200:
            record["error"] = f"job {state}, result {status}"
        else:
            self.stored.append(index)
            self.fingerprints[index] = fp
        return record

    def _warm(self) -> dict:
        index = self.stored[int(self._rng.integers(len(self.stored)))]
        fp = self.fingerprints[index]
        record = {"kind": "warm", "index": index, "fp": fp, "error": None}
        t0 = time.perf_counter()
        status, data = http_request(self.port, "POST", "/jobs",
                                    self.stream.body(index))
        outcome = json.loads(data).get("outcome")
        status_r, text = http_request(self.port, "GET", f"/jobs/{fp}/result")
        record.update(t0=t0, t1=time.perf_counter(), text=text)
        if status != 200 or outcome != "hit" or status_r != 200:
            record["error"] = f"submit {status} {outcome}, result {status_r}"
        return record

    def run_for(self, seconds: float) -> tuple:
        """Send requests until *seconds* have passed; the window's span."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.step(timed=True)
        return start, time.perf_counter()


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM the daemon if the benchmark dies first."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


class Daemon:
    """A launched daemon with its own store, logs and report file."""

    def __init__(self, workdir: str, label: str, trace: bool = False):
        self.dir = os.path.join(workdir, label)
        os.makedirs(self.dir)
        self.report_path = os.path.join(self.dir, "report.json")
        self.chrome_path = os.path.join(self.dir, "trace.json")
        cmd = [sys.executable, ENTRY, "--store", os.path.join(self.dir, "store"),
               "--report", self.report_path]
        if trace:
            cmd += ["--trace", "--chrome", self.chrome_path]
        self._out_path = os.path.join(self.dir, "stdout.log")
        # Logs go to files: the daemon writes a JSON line per request and
        # would block on a pipe nobody drains.
        self._out = open(self._out_path, "wb")
        self._err = open(os.path.join(self.dir, "stderr.log"), "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self._out, stderr=self._err,
                                     cwd=ROOT, preexec_fn=_die_with_parent)

    def wait_ready(self, timeout: float = 180.0) -> int:
        deadline = time.perf_counter() + timeout
        while True:
            with open(self._out_path, "rb") as handle:
                match = _BANNER.search(handle.read())
            if match:
                return int(match.group(1).rsplit(b":", 1)[1])
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"daemon in {self.dir} did not start")
            time.sleep(0.002)

    def stop(self) -> dict:
        """SIGINT, wait for exit (kill after a grace period), read report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()
        try:
            with open(self.report_path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


def fresh_start(workdir: str, label: str, stream: SpecStream) -> dict:
    """Launch -> /healthz -> first cold job's result; then stop."""
    daemon = Daemon(workdir, label)
    try:
        port = daemon.wait_ready()
        status, data = http_request(port, "GET", "/healthz")
        if status != 200 or not json.loads(data).get("ok"):
            raise RuntimeError(f"healthz answered {status}")
        client = Client(port, stream, 0)
        record = client.step(timed=False)
        if record["error"]:
            raise RuntimeError(f"first cold job failed: {record['error']}")
        setup_s = record["t1"] - daemon.t_launch
        warmup_s = record["t1"] - record["t0"]
    finally:
        report = daemon.stop()
    phases = dict(report.get("phases", {}))
    phases.update(setup_s=setup_s, warmup_s=warmup_s, t_launch=daemon.t_launch,
                  t_end=record["t1"])
    return phases


def check_records(records: List[dict], stream: SpecStream) -> None:
    """Mark failed requests: a cold envelope that does not decode to a
    finite estimate of :data:`COLD_SAMPLES` samples, a warm fetch that is
    not byte-equal to the first fetch of its spec, and any of the first
    :data:`CHECKED_COLD` timed cold envelopes that differs from a local
    ``Session(executor=1).run(spec)`` up to ``scrub_envelope``."""
    from repro.api import Session
    from repro.api.serialize import dumps, loads
    from repro.service.store import scrub_envelope

    first_text = {r["fp"]: r["text"] for r in reversed(records)
                  if r["kind"] == "cold" and not r["error"]}
    for record in records:
        if record["error"]:
            continue
        if record["kind"] == "warm":
            if record["text"] != first_text.get(record["fp"]):
                record["error"] = "warm fetch differs from the first fetch"
            continue
        try:
            payload = loads(record["text"].decode()).payload
            record["samples"] = payload.total_samples
            in_range = (payload.total_samples == COLD_SAMPLES
                        and 0.0 < payload.probability < 1.0)
        except Exception as exc:  # whatever the daemon sent, it is a failure
            record["error"] = f"cold envelope does not decode: {exc!r}"
            continue
        if not in_range:
            record["error"] = "cold envelope payload out of range"

    checked = [r for r in records if r["kind"] == "cold" and r["timed"]][:CHECKED_COLD]
    with Session(executor=1) as session:
        for record in checked:
            if record["error"]:
                continue
            local = session.run(stream.specs[record["index"]])
            if dumps(scrub_envelope(local)) != scrubbed(record["text"]):
                record["error"] = "envelope differs from a local Session run"


def scrubbed(text: bytes) -> str:
    from repro.api.serialize import dumps, loads
    from repro.service.store import scrub_envelope

    return dumps(scrub_envelope(loads(text.decode())))
