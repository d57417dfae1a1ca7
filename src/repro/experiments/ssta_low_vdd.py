"""SSTA extension — Gaussian SSTA vs Monte-Carlo at low supply.

Fig. 7's closing point: non-Gaussian delay at low Vdd makes (Gaussian)
SSTA "more difficult".  This experiment quantifies that with the full
stack: NAND2 arc-delay samples from the statistical VS model feed a
reconvergent timing graph, evaluated by both the Clark moment-matching
engine (sees only mean/sigma) and the bootstrap Monte-Carlo engine (sees
the true shape).  The figure of merit is the 99.9 %-quantile error — the
timing-sign-off number — at nominal vs low supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.api import (
    Characterize,
    FactoryMap,
    Sweep,
    default_session,
    experiment,
    sweep_point_offset,
)
from repro.cells.nand import Nand2Spec, nand2_delays
from repro.experiments.common import format_table, si
from repro.ssta import EmpiricalDelay, TimingGraph, clark_arrival, monte_carlo_arrival

#: Timing-graph shape: reconvergent fanout of parallel NAND chains.
N_CHAINS = 8
CHAIN_DEPTH = 3

#: Stream bases.  The supply axis advances each base per the sweep seed
#: contract (``sweep_point_offset``) — no hand-rolled ``base + k``.
ARC_SEED = 410       #: arc characterization sweep (legacy point streams)
DRAW_SEED = 420      #: table-arc bootstrap draws, per supply
GRAPH_SEED = 430     #: sharded graph Monte-Carlo, per supply
GRAPH_SERIAL_SEED = 400  #: one shared serial graph stream (golden-pinned)


@dataclass(frozen=True)
class SSTACase:
    """One supply's sign-off comparison."""

    vdd: float
    arc_skewness: float
    mc_mean: float
    mc_q999: float
    clark_mean: float
    clark_q999: float

    @property
    def q999_error(self) -> float:
        """Relative sign-off error of Gaussian SSTA vs Monte-Carlo."""
        return (self.clark_q999 - self.mc_q999) / self.mc_q999


@dataclass(frozen=True)
class SSTAResult:
    n_device_mc: int
    n_graph_mc: int
    cases: Tuple[SSTACase, ...]
    #: Where the arc delays came from: raw Monte-Carlo ``samples``
    #: (bootstrap arcs) or characterized NLDM ``table`` arcs.
    arc_source: str = "samples"


@dataclass(frozen=True)
class ArcDelayWork:
    """Picklable NAND2 arc-delay workload (``FactoryMap``/``map_mc``).

    It measures tpHL only, so its transient stops once every sample's
    tpHL is settled (:func:`~repro.cells.nand.nand2_delays` with
    ``arcs=("tphl",)``).
    """

    spec: Nand2Spec
    vdd: float

    def __call__(self, factory) -> np.ndarray:
        return nand2_delays(factory, self.spec, self.vdd,
                            arcs=("tphl",))["tphl"].delay


def _arc_sample_sweep(vdds, n_samples: int, execution=None) -> Sweep:
    """The supply sweep of raw NAND2 arc-delay Monte-Carlo."""
    return Sweep(
        FactoryMap(
            work=ArcDelayWork(Nand2Spec(), vdds[0]),
            n_samples=n_samples,
            seed_offset=ARC_SEED,
        ),
        over={"work.vdd": vdds},
        seed_mode="legacy",
        execution=execution,
    )


def _build_graph(samples: np.ndarray, gaussian: bool) -> TimingGraph:
    from scipy import stats as sps

    chains = []
    for _ in range(N_CHAINS):
        if gaussian:
            from repro.ssta import GaussianDelay

            arc = GaussianDelay(float(np.mean(samples)),
                                float(np.std(samples, ddof=1)))
        else:
            arc = EmpiricalDelay(samples)
        chains.append([arc] * CHAIN_DEPTH)
    return TimingGraph.parallel_chains(chains)


_TABLE_LOADS = (1e-15, 4e-15)


def _table_slews(vdd: float):
    """Per-supply slew window, stretched for low Vdd like direct runs."""
    stretch = (0.9 / vdd) ** 2
    return (8e-12 * stretch, 24e-12 * stretch)


def _table_arc_sweep(vdds, n_device_mc: int, execution=None) -> Sweep:
    """The supply sweep of statistical NAND2 characterization grids.

    A zipped (vdd, slews) axis: each supply characterizes over its own
    stretched slew window.  The worst-case ``tphl`` arc is read at each
    grid's center operating point by :func:`_table_arc_from_point`.
    """
    vdd_slews = tuple((vdd, _table_slews(vdd)) for vdd in vdds)
    return Sweep(
        Characterize(
            cell="nand2", vdd=vdds[0], slews=_table_slews(vdds[0]),
            loads=_TABLE_LOADS, n_mc=n_device_mc, seed_offset=ARC_SEED,
        ),
        over={("vdd", "slews"): vdd_slews},
        seed_mode="legacy",
        execution=execution,
    )


def _table_arc_from_point(point_result):
    """A :class:`TableDelay` arc at a sweep point's center operating point."""
    from repro.ssta import TableDelay

    slews = point_result.spec.slews
    loads = point_result.spec.loads
    return TableDelay.from_timing(
        point_result.payload, "tphl",
        slew=0.5 * (slews[0] + slews[1]), load=0.5 * (loads[0] + loads[1]),
    )


def _table_graph(arc) -> TimingGraph:
    return TimingGraph.parallel_chains(
        [[arc] * CHAIN_DEPTH for _ in range(N_CHAINS)]
    )


@experiment(
    "ssta",
    title="Gaussian SSTA vs Monte-Carlo at low supply",
    quick={"n_device_mc": 120, "n_graph_mc": 20000},
)
def run(
    vdds=(0.9, 0.55),
    n_device_mc: int = 400,
    n_graph_mc: int = 50000,
    arc_source: str = "samples",
    *,
    session=None,
    execution=None,
) -> SSTAResult:
    """Arc characterization + both SSTA engines per supply.

    The arc stage is one supply :class:`Sweep` through ``session.run``
    — raw ``FactoryMap`` Monte-Carlo (``arc_source="samples"``) or
    statistical ``Characterize`` grids (``"table"``, the full
    characterize -> NLDM tables -> timing graph loop) — with legacy
    per-supply point streams, so the serial numbers are golden-stable
    at every worker count.  With *execution* options the sweep points
    and the timing-graph sampling fan out through the parallel runtime
    (``python -m repro ssta --workers 4``).
    """
    from scipy import stats as sps

    if arc_source not in ("samples", "table"):
        raise ValueError(
            f"arc_source must be 'samples' or 'table', got {arc_source!r}"
        )
    session = session or default_session()
    # Resolve the session default once, so the arc and graph stages
    # always run under the same regime (a parallel session must not
    # shard one stage and leave the other on the legacy stream).
    if execution is None:
        execution = session.default_execution()
    vdds = tuple(vdds)
    if arc_source == "table":
        arc_sweep = session.run(
            _table_arc_sweep(vdds, n_device_mc, execution=execution)
        )
    else:
        arc_sweep = session.run(
            _arc_sample_sweep(vdds, n_device_mc, execution=execution)
        )
    rng = session.rng(GRAPH_SERIAL_SEED)
    cases = []
    for k, vdd in enumerate(vdds):
        point = arc_sweep.points[k]
        if arc_source == "table":
            arc = _table_arc_from_point(point)
            graph_mc = _table_graph(arc)
            samples = arc.draw(
                max(n_device_mc, 64),
                session.rng(sweep_point_offset(DRAW_SEED, k)),
            )
        else:
            tphl = np.asarray(point.payload)
            samples = tphl[np.isfinite(tphl)]
            graph_mc = _build_graph(samples, gaussian=False)
        if execution is None:
            arrivals = monte_carlo_arrival(graph_mc, "src", "snk",
                                           n_graph_mc, rng)
        else:
            # Per-supply stream of the session tree (the shared legacy
            # stream cannot be split across shards).
            arrivals = monte_carlo_arrival(
                graph_mc, "src", "snk", n_graph_mc,
                execution=execution,
                base_seed=session.seeds.seed(
                    sweep_point_offset(GRAPH_SEED, k)
                ),
                executor=session.executor_for(execution),
            )
        # The Clark engine consumes the same graph's moments (the
        # Gaussian twin arcs give identical means/sigmas by construction).
        analytic = clark_arrival(graph_mc, "src", "snk")

        cases.append(
            SSTACase(
                vdd=vdd,
                arc_skewness=float(sps.skew(samples)),
                mc_mean=float(np.mean(arrivals)),
                mc_q999=float(np.quantile(arrivals, 0.999)),
                clark_mean=analytic.mean,
                clark_q999=analytic.quantile(0.999),
            )
        )
    return SSTAResult(
        n_device_mc=n_device_mc, n_graph_mc=n_graph_mc, cases=tuple(cases),
        arc_source=arc_source,
    )


def report(result: SSTAResult) -> str:
    """Sign-off comparison rows per supply."""
    rows = []
    for case in result.cases:
        rows.append(
            (
                f"{case.vdd:.2f}",
                f"{case.arc_skewness:+.2f}",
                si(case.mc_mean, "s"),
                si(case.mc_q999, "s"),
                si(case.clark_q999, "s"),
                f"{100 * case.q999_error:+.1f} %",
            )
        )
    table = format_table(
        ("Vdd (V)", "arc skew", "MC mean", "MC q99.9", "Clark q99.9",
         "sign-off err"),
        rows,
    )
    source = ("characterized TableDelay arcs" if result.arc_source == "table"
              else "bootstrap Monte-Carlo")
    return "\n".join(
        [
            f"SSTA extension -- Gaussian (Clark) vs {source} "
            f"({N_CHAINS} chains x {CHAIN_DEPTH} NAND2 arcs, "
            f"{result.n_graph_mc} graph MC)",
            table,
            "Expected: Clark's sign-off error grows at low Vdd, where the "
            "arc distributions develop tails (Fig. 7's SSTA warning).",
        ]
    )


if __name__ == "__main__":
    print(report(run()))
