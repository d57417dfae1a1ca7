"""The two circuit-level Monte-Carlo workloads and their output checks.

``snm_read_mc`` is the Fig. 9 READ-SNM batch: ``Session.map_mc(SNMWork(
SRAMSpec(), vdd, "read"), 2500, model="vs")``, two 61-point DC sweeps of
the SRAM half cell per batch (the large-batch DC regime).
``nand2_delay_low_vdd`` is the Fig. 7 NAND2 FO3 tpHL at 0.55 V:
``Session.run(FactoryMap(Nand2DelayWork(Nand2Spec(), 0.55), 150,
model="vs"))``, ~720 fixed transient steps (the small-batch transient
regime).  Both take the default serial path (``execution=None``).

The benchmark seed selects the session root seed (one of
:data:`SEED_SLOTS` slots), so the program receives only the generated
sample stream.  Every batch's summary is checked against the reference
pinned in ``references.json`` for that slot.

Nothing here imports numpy or ``repro`` at module level: the fresh-start
probe (``coldstart.py``) times those imports itself.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

#: Number of distinct session seeds the benchmark ships references for;
#: benchmark seed ``s`` runs session root seed ``SEED_BASE + s % SEED_SLOTS``.
SEED_SLOTS = 16
SEED_BASE = 9000

#: Relative tolerance of the summary check (the golden-figure RTOL).
RTOL = 1e-6

#: Samples of the warm-up batch a fresh start runs before reporting.
WARMUP_SAMPLES = 2

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


#: Workload name -> samples per batch (the paper's fig9 batch, fig7's
#: quick batch).
BATCH_SAMPLES: Dict[str, int] = {"snm_read_mc": 2500, "nand2_delay_low_vdd": 150}


def session_seed(seed: int) -> int:
    """Session root seed of benchmark seed *seed*."""
    return SEED_BASE + int(seed) % SEED_SLOTS


def make_batch(name: str, session, n_samples: int) -> Callable[[], "object"]:
    """A zero-argument callable running one batch; returns the sample array."""
    import numpy as np

    if name == "snm_read_mc":
        from repro.cells.sram import SRAMSpec
        from repro.experiments.fig9_sram_snm import SNMWork

        work = SNMWork(SRAMSpec(), session.technology.vdd, "read")
        return lambda: np.asarray(session.map_mc(work, n_samples, model="vs")[0])
    if name == "nand2_delay_low_vdd":
        from repro.api import FactoryMap
        from repro.cells.nand import Nand2Spec
        from repro.experiments.fig7_nand2_vdd import Nand2DelayWork

        spec = FactoryMap(Nand2DelayWork(Nand2Spec(), 0.55), n_samples, model="vs")
        return lambda: np.asarray(session.run(spec).payload)
    raise KeyError(f"unknown Monte-Carlo workload {name!r}")


def import_workload_modules(name: str) -> None:
    """Import what :func:`make_batch` needs (timed by the fresh start)."""
    import repro.api  # noqa: F401

    if name == "snm_read_mc":
        import repro.experiments.fig9_sram_snm  # noqa: F401
    else:
        import repro.experiments.fig7_nand2_vdd  # noqa: F401


def summarize(values) -> dict:
    """Sample count, finite count and distribution summary of a batch."""
    import numpy as np

    values = np.asarray(values, dtype=float).ravel()
    finite = values[np.isfinite(values)]
    out = {"n": int(values.size), "finite": int(finite.size)}
    if finite.size:
        out.update(mean=float(finite.mean()), std=float(finite.std()),
                   min=float(finite.min()), max=float(finite.max()))
        for q in QUANTILES:
            out[f"q{round(q * 100):02d}"] = float(np.quantile(finite, q))
    return out


def summary_matches(summary: dict, reference: dict) -> bool:
    """Counts equal and every statistic within :data:`RTOL` of the reference."""
    if set(summary) != set(reference):
        return False
    for key, ref in reference.items():
        got = summary[key]
        if key in ("n", "finite"):
            if got != ref:
                return False
        elif not math.isclose(got, ref, rel_tol=RTOL, abs_tol=0.0):
            return False
    return True


def failed_samples(values, reference: Optional[dict]) -> int:
    """Failed samples of one batch: non-finite ones, or all of them when
    the summary misses the pinned reference."""
    summary = summarize(values)
    if reference is not None and not summary_matches(summary, reference):
        return summary["n"]
    return summary["n"] - summary["finite"]


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_for(name: str, seed: int, n_samples: int) -> Optional[dict]:
    """The pinned summary of *name* at benchmark seed *seed*, or None when
    no reference exists for that batch size (tiny self-test runs)."""
    entry = load_references()["workloads"].get(name, {})
    if entry.get("n_samples") != n_samples:
        return None
    return entry["seeds"].get(str(session_seed(seed)))
