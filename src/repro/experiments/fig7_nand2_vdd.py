"""Fig. 7 — NAND2 FO3 delay PDFs and QQ plots at Vdd = 0.9/0.7/0.55 V.

The headline: although every statistical VS parameter is an independent
Gaussian, the *delay* distribution turns non-Gaussian at low supply — and
the VS model tracks the golden model's distortion without any extra
fitting (unlike PSP's per-Vgs variance patching, Sec. IV-B).  The QQ
series quantify the tail curvature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.api import FactoryMap, Sweep, default_session, experiment
from repro.cells.nand import Nand2Spec, nand2_delays
from repro.experiments.common import finite, format_table, si
from repro.stats.distributions import (
    DistributionSummary,
    centered_ks,
    ks_between,
    qq_tail_nonlinearity,
    summarize,
)

DEFAULT_VDDS = (0.9, 0.7, 0.55)

#: Legacy per-model stream bases (sweep point *k* runs at ``base + k``
#: under the sweep's legacy seed contract — the historical offsets).
SEED_BASE = {"vs": 40, "bsim": 50}


@dataclass(frozen=True)
class VddCase:
    """Delay statistics of both models at one supply."""

    vdd: float
    vs_delays: np.ndarray
    golden_delays: np.ndarray
    vs_summary: DistributionSummary
    golden_summary: DistributionSummary
    vs_qq_nonlinearity: float
    golden_qq_nonlinearity: float
    ks_distance: float
    shape_ks: float


@dataclass(frozen=True)
class Fig7Result:
    n_samples: int
    cases: Tuple[VddCase, ...]


@dataclass(frozen=True)
class Nand2DelayWork:
    """Picklable NAND2 ``tphl`` workload for ``FactoryMap`` sweeps.

    It measures tpHL only, so its transient stops once every sample's
    tpHL is settled (:func:`~repro.cells.nand.nand2_delays` with
    ``arcs=("tphl",)``).
    """

    spec: Nand2Spec
    vdd: float

    def __call__(self, factory) -> np.ndarray:
        return nand2_delays(factory, self.spec, self.vdd,
                            arcs=("tphl",))["tphl"].delay


def _delay_sweep(model: str, vdds, n_samples: int) -> Sweep:
    """The per-model supply sweep (legacy streams: point k at base + k)."""
    return Sweep(
        FactoryMap(
            work=Nand2DelayWork(Nand2Spec(), vdds[0]),
            n_samples=n_samples,
            model=model,
            seed_offset=SEED_BASE[model],
        ),
        over={"work.vdd": vdds},
        seed_mode="legacy",
    )


@experiment(
    "fig7",
    title="NAND2 FO3 delay PDFs at three supplies",
    quick={"n_samples": 150},
    full={"n_samples": 2500},
)
def run(n_samples: int = 2500, vdds=DEFAULT_VDDS, *, session=None) -> Fig7Result:
    """Monte-Carlo the NAND2 delay across supplies and models.

    Both models run as one supply :class:`Sweep` each through
    ``session.run`` — on a parallel session the grid points fan out as
    shard tasks, with per-point streams identical to the serial run.
    """
    session = session or default_session()
    vdds = tuple(vdds)
    vs_sweep = session.run(_delay_sweep("vs", vdds, n_samples))
    golden_sweep = session.run(_delay_sweep("bsim", vdds, n_samples))
    cases = []
    for k, vdd in enumerate(vdds):
        vs = finite(vs_sweep.points[k].payload)
        golden = finite(golden_sweep.points[k].payload)
        cases.append(
            VddCase(
                vdd=vdd,
                vs_delays=vs,
                golden_delays=golden,
                vs_summary=summarize(vs),
                golden_summary=summarize(golden),
                vs_qq_nonlinearity=qq_tail_nonlinearity(vs),
                golden_qq_nonlinearity=qq_tail_nonlinearity(golden),
                ks_distance=ks_between(vs, golden),
                shape_ks=centered_ks(vs, golden),
            )
        )
    return Fig7Result(n_samples=n_samples, cases=tuple(cases))


def report(result: Fig7Result) -> str:
    """Mean/sigma/skew/QQ-curvature rows per supply, both models."""
    rows = []
    for case in result.cases:
        rows.append(
            (
                f"{case.vdd:.2f}",
                si(case.golden_summary.mean, "s"),
                f"{case.golden_summary.skewness:+.2f}",
                f"{case.golden_qq_nonlinearity:.3f}",
                si(case.vs_summary.mean, "s"),
                f"{case.vs_summary.skewness:+.2f}",
                f"{case.vs_qq_nonlinearity:.3f}",
                f"{case.ks_distance:.3f}",
                f"{case.shape_ks:.3f}",
            )
        )
    table = format_table(
        (
            "Vdd (V)",
            "golden mean",
            "g.skew",
            "g.QQ-curve",
            "VS mean",
            "v.skew",
            "v.QQ-curve",
            "KS",
            "shape-KS",
        ),
        rows,
    )
    lines = [
        f"Fig. 7 -- NAND2 FO3 delay vs supply ({result.n_samples} MC)",
        table,
        "Expected: skewness and QQ curvature grow as Vdd drops; VS tracks "
        "golden (small KS).",
    ]
    return "\n".join(lines)


if __name__ == "__main__":
    print(report(run(n_samples=400)))
