"""Host-speed probe: a fixed reference computation sampled through a run.

On a shared VM the same code runs up to twice as slow in busy host
phases, which last from seconds to minutes, so the wall time of one run
differs from the next by more than any change worth measuring.  CPU time
does not help: steal time is near zero, and the slowdown is in how fast
each CPU second goes.  It is also a property of one vCPU, not of the VM.

:class:`HostProbe` starts this file as a sidecar process on the CPU the
workload is pinned to.  Every :data:`PERIOD_S` seconds the sidecar runs
:func:`probe`, a small fixed computation (interpreted Python and small
numpy operations, the mix the workloads spend their time in, and no
``repro`` code, so no change to the program can move it), and records
how long it took.  An interval's *reference time* is its wall time less
the probes that ran in it, scaled by :data:`REFERENCE_S` over the mean
probe duration in it: the time the interval would have taken with the
CPU at its reference speed.

Two variants did worse on the same VM.  Timing the probe by CPU time
left the service's rate spreading 17 % of its median over five runs
(26 % unscaled).  Splitting it into three chunks and taking their median,
so that a chunk delayed by the service's own processes would not count,
steadied the service (8 %, 20 % unscaled) but unsteadied READ-SNM (15 %,
6 % unscaled).

Measured on a 2-vCPU VM (Intel Xeon), the wall time of 500-sample
READ-SNM batches correlated 0.85 with the mean probe time over the same
batch when the sidecar shared the workload's CPU (0.86 for 150-sample
NAND2 batches), and 0.18 when it ran on the other vCPU.  The probe runs
in its own process because inside the workload's process its duration
followed the workload's heap and garbage-collector state (2.4 times
slower inside NAND2 batches than inside READ-SNM ones).

    python3 perfbench/hostspeed.py      # the sidecar; stdin EOF stops it
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import List, Optional, Tuple

import numpy as np

#: Seconds between probes.
PERIOD_S = 0.05
#: Mean probe duration that defines the reference CPU speed: about the
#: mean in quiet phases of a 2-vCPU VM (Intel Xeon) while a workload runs
#: on the same CPU (a probe after 50 ms of other work finds its data out
#: of cache).
REFERENCE_S = 0.0009
#: Probes the sidecar runs before it reports ready.
WARMUP_PROBES = 20

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((64, 11, 11)) + 11.0 * np.eye(11)
_B = _RNG.standard_normal((64, 11, 1))
_V = np.linspace(0.0, 1.0, 2500)


class _Cell:
    __slots__ = ("x",)

    def __init__(self):
        self.x = 0.0


def probe() -> float:
    """The reference computation (about 0.6-1 ms on the VM above)."""
    cell, table = _Cell(), {}
    for i in range(1500):
        cell.x += i * 0.5
        table[i & 63] = cell.x
    y = _V
    for _ in range(8):
        y = np.exp(-y) * 0.5 + np.sqrt(y + 1.0)
    x = np.linalg.solve(_A, _B)
    return float(y[-1] + x[0, 0, 0] + table[0])


def sidecar(period: float = PERIOD_S) -> None:
    """Probe every *period* seconds until stdin closes, then print the
    ``(start, duration)`` samples as one JSON list."""
    for _ in range(WARMUP_PROBES):
        probe()
    print("ready", flush=True)
    samples: List[Tuple[float, float]] = []
    due = time.perf_counter()
    while True:
        due += period
        wait = max(0.0, due - time.perf_counter())
        if select.select([sys.stdin], [], [], wait)[0] and not os.read(0, 4096):
            break
        t0 = time.perf_counter()
        probe()
        samples.append((t0, time.perf_counter() - t0))
    print(json.dumps(samples), flush=True)


class HostProbe:
    """Samples the speed of the calling process's CPU while the ``with``
    block runs.

    Call it with the process pinned to one CPU: the sidecar inherits the
    pinning, and its probes cost the workload their own time, which
    :meth:`wall_s` takes out again.  Samples are read when the block
    exits.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (start, duration)
        self._proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostProbe":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        if self._proc.stdout.readline() != b"ready\n":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("host-speed sidecar did not start")
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
            self._proc.wait()
        if self._proc.returncode != 0:
            raise RuntimeError(f"host-speed sidecar exited {self._proc.returncode}")
        self.samples = [tuple(s) for s in json.loads(out)]

    def _inside(self, t0: float, t1: float) -> List[float]:
        return [d for s, d in self.samples if t0 <= s < t1]

    def wall_s(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1)`` less the probes that ran in it."""
        return t1 - t0 - sum(self._inside(t0, t1))

    def slowdown(self, t0: float = -np.inf, t1: float = np.inf) -> float:
        """Mean probe duration in ``[t0, t1)`` over :data:`REFERENCE_S`
        (1.0 when no probe ran in it: too short, or no probe at all)."""
        inside = self._inside(t0, t1)
        return float(np.mean(inside)) / REFERENCE_S if inside else 1.0

    def reference_s(self, t0: float, t1: float) -> float:
        """:meth:`wall_s` of ``[t0, t1)`` at the reference CPU speed."""
        return self.wall_s(t0, t1) / self.slowdown(t0, t1)


if __name__ == "__main__":
    sidecar()
