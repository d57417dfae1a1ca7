"""Fast Newton path layers on the Fig. 9 SRAM SNM workload (PR 9).

Times two layers of the fast path against their fallbacks:

* **coalescing** — sharded serial with cross-shard batching vs the same
  shard plan solved shard by shard, on the same 400-sample READ-SNM
  Monte-Carlo;
* **analytic derivatives** — a device-level microbenchmark of
  ``ids_and_derivatives`` in analytic vs stacked finite-difference mode
  on the fig9-shaped ``(400, 6)`` stacked-device batch.

Both Monte-Carlo configurations are asserted bit-identical (the layers
are constant-factor optimizations, never approximations), and the
ratios land in ``BENCH_fig9_fast_path.json``.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.api import Execution, Session
from repro.cells.sram import SRAMSpec
from repro.data.cards import vs_nmos_40nm
from repro.devices.vs.model import VSDevice
from repro.experiments.fig9_sram_snm import SNMWork

N_SAMPLES = 400
SHARD_SIZE = 50
N_DEVICES = 6  # stacked MOSFETs per forced butterfly half-cell


def _timed_map(session, work, execution):
    # Warm run (plan compiles, allocator) outside the timed window.
    session.map_mc(work, SHARD_SIZE, model="vs", seed_offset=71,
                   execution=execution)
    start = time.perf_counter()
    values, _ = session.map_mc(work, N_SAMPLES, model="vs",
                               seed_offset=70, execution=execution)
    return np.asarray(values), time.perf_counter() - start


def _device_eval_rate(derivatives: str, repeats: int = 40) -> float:
    """Model evaluations/sec of one stacked fig9-shaped device batch."""
    rng = np.random.default_rng(7)
    card = vs_nmos_40nm(300.0, 40.0)
    vt0 = float(np.asarray(card.vt0)) + rng.normal(
        0.0, 0.03, size=(N_SAMPLES, N_DEVICES)
    )
    device = VSDevice(card.replace(vt0=vt0), derivatives=derivatives)
    vg = rng.uniform(0.0, 0.9, size=(N_SAMPLES, N_DEVICES))
    vd = rng.uniform(0.05, 0.9, size=(N_SAMPLES, N_DEVICES))
    vs = np.zeros((N_SAMPLES, N_DEVICES))
    device.ids_and_derivatives(vg, vd, vs)  # warm
    start = time.perf_counter()
    for _ in range(repeats):
        device.ids_and_derivatives(vg, vd, vs)
    return repeats / (time.perf_counter() - start)


def test_fig9_fast_path_layers(results_dir, record_report):
    session = Session()
    work = SNMWork(SRAMSpec(), session.technology.vdd, "read")
    sharded = Execution(shard_size=SHARD_SIZE, workers=1)

    fast, t_fast = _timed_map(session, work, sharded)
    uncoalesced, t_uncoalesced = _timed_map(
        session, work,
        Execution(shard_size=SHARD_SIZE, workers=1, coalesce=False),
    )

    # The layer is exact: the fallback produces the same bits.
    np.testing.assert_array_equal(fast, uncoalesced)

    analytic_rate = _device_eval_rate("analytic")
    fd_rate = _device_eval_rate("fd")

    record = {
        "benchmark": "fig9 SRAM READ-SNM fast-path layer decomposition",
        "n_samples": N_SAMPLES,
        "shard_size": SHARD_SIZE,
        "samples_per_sec": {
            "fast_path": N_SAMPLES / t_fast,
            "uncoalesced": N_SAMPLES / t_uncoalesced,
        },
        "coalescing_speedup": t_uncoalesced / t_fast,
        "device_grad_evals_per_sec": {
            "analytic": analytic_rate,
            "fd": fd_rate,
        },
        "analytic_over_fd": analytic_rate / fd_rate,
        "all_layers_bit_identical": True,
    }
    (results_dir / "BENCH_fig9_fast_path.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"fig9 fast-path layers ({N_SAMPLES} MC, shard {SHARD_SIZE})",
        f"fast path (coalesced)            {t_fast:7.2f} s  "
        f"{N_SAMPLES / t_fast:8.1f} samples/s",
        f"  without coalescing             {t_uncoalesced:7.2f} s  "
        f"{N_SAMPLES / t_uncoalesced:8.1f} samples/s  "
        f"({record['coalescing_speedup']:.2f}x layer gain)",
        f"analytic vs FD device gradients: "
        f"{record['analytic_over_fd']:.2f}x "
        f"({analytic_rate:.0f} vs {fd_rate:.0f} stacked evals/s)",
        "All configurations bit-identical.",
    ]
    record_report("fig9_fast_path", "\n".join(lines))

    # Layer acceptance: coalescing must be a clear win over per-shard
    # solving, and one analytic evaluation must clearly beat the four
    # stacked evaluations of the finite-difference path.
    assert record["coalescing_speedup"] >= 1.5
    assert record["analytic_over_fd"] >= 1.8
