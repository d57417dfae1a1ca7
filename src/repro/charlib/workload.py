"""Library characterization as a sharded grid workload.

The characterization grid — every (cell, input slew, output load) point
of a ``Characterize`` / ``CharacterizeLibrary`` spec — is embarrassingly
parallel: each point is one independent testbench transient.  This
module turns the grid into the runtime's vocabulary:

* :class:`CharGridTask` is the picklable shard task.  Grid points are
  enumerated in row-major ``(cell, slew, load)`` order; a shard covers a
  contiguous flat-index range and evaluates its points one by one.

* **Grid-point seed contract** (ROADMAP "Conventions (PR 4)"): point
  *k*'s Monte-Carlo factory draws from
  ``SeedSequence(base_seed, spawn_key=(k,))`` — the runtime's shard
  derivation applied to *grid-point* indices, not shard indices.  The
  tables are therefore a pure function of ``(session seed,
  seed_offset)`` alone: worker count, shard size and completion order
  cannot move a single bit.  (Shard size only changes scheduling
  granularity, which is one notch stronger than the sample-shard
  contract of PR 3.)

* Per-point statistics are folded through the runtime's
  :class:`~repro.runtime.accumulators.StreamStats` — mean/sigma of each
  arc's delay and output transition over the Monte-Carlo axis, with
  non-finite samples dropped and counted as diagnostics.

``Session.run`` runs every grid, serial ones included, on the point-grid
runner it shares with sweeps (:func:`repro.api.sweep.run_points`): one
point per shard unless the spec's own ``execution.shard_size`` says
otherwise, progress in points, checkpoint/resume at point-wave
boundaries.  :func:`assemble_library` folds the ordered point results
into :class:`~repro.charlib.characterize.CellTiming` tables and a
:class:`LibraryTiming`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.charlib.characterize import (
    CellTiming,
    CharacterizationError,
)
from repro.charlib.tables import LookupTable2D
from repro.runtime.accumulators import StreamStats
from repro.runtime.sharding import shard_rng

__all__ = [
    "ArcPointStats",
    "GridPointResult",
    "CharGridTask",
    "LibraryTiming",
    "assemble_library",
]


@dataclass(frozen=True)
class ArcPointStats:
    """Streamed statistics of one arc at one grid point."""

    delay_mean: float
    delay_sigma: float          #: NaN for nominal / single-sample points
    transition_mean: float
    transition_sigma: float
    n_valid: int                #: finite (delay, transition) sample pairs
    n_total: int


@dataclass(frozen=True)
class GridPointResult:
    """One evaluated grid point: every arc of one cell at one (slew, load)."""

    cell_index: int
    i_slew: int
    j_load: int
    #: ``(arc_name, stats)`` pairs in the adapter's arc order.
    arcs: Tuple[Tuple[str, ArcPointStats], ...]


def _point_stats(delays, transitions) -> ArcPointStats:
    """Fold one arc's point samples through StreamStats accumulators."""
    delays = np.atleast_1d(np.asarray(delays, dtype=float)).ravel()
    transitions = np.atleast_1d(np.asarray(transitions, dtype=float)).ravel()
    valid = np.isfinite(delays) & np.isfinite(transitions)
    d_stats = StreamStats().update(delays[valid])
    t_stats = StreamStats().update(transitions[valid])
    nan = float("nan")
    return ArcPointStats(
        delay_mean=float(d_stats.mean) if d_stats.n else nan,
        delay_sigma=d_stats.std(),
        transition_mean=float(t_stats.mean) if t_stats.n else nan,
        transition_sigma=t_stats.std(),
        n_valid=int(d_stats.n),
        n_total=int(delays.size),
    )


@dataclass(frozen=True)
class CharGridTask:
    """Picklable shard task over the flat (cell, slew, load) grid.

    ``n_mc == 0`` characterizes nominally (no random stream at all);
    otherwise each point builds a fresh Monte-Carlo factory on its own
    grid-point stream (see the module docstring's seed contract).
    Circuits compile into *plan_cache* (the submitting session's) when
    the task runs in the process that built it.  Pickling drops the
    cache, like ``FactoryMapTask``'s, so pool and cluster workers use
    their per-process caches and checkpoint fingerprints never see it.
    """

    technology: object              #: Technology
    adapters: Tuple                 #: per-cell ArcAdapter instances
    vdd: float
    slews: Tuple[float, ...]
    loads: Tuple[float, ...]
    n_mc: int = 0
    model: str = "vs"
    base_seed: int = 0
    backend: Optional[str] = None
    #: Enclosing sweep-point indices: under sweep point *j* grid point
    #: *k* draws from ``SeedSequence(base_seed, spawn_key=(j, k))`` —
    #: the nested sweep/seed contract.
    spawn_prefix: Tuple[int, ...] = ()
    plan_cache: object = field(default=None, compare=False, repr=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["plan_cache"]
        return state

    @property
    def points_per_cell(self) -> int:
        return len(self.slews) * len(self.loads)

    @property
    def n_points(self) -> int:
        return len(self.adapters) * self.points_per_cell

    def _factory(self, point_index: int):
        from repro.cells.factory import (
            MonteCarloDeviceFactory,
            NominalDeviceFactory,
        )
        from repro.runtime.tasks import _process_plan_cache

        if self.n_mc:
            factory = MonteCarloDeviceFactory(
                self.technology, self.n_mc,
                rng=shard_rng(self.base_seed, point_index,
                              self.spawn_prefix),
                model=self.model,
            )
        else:
            factory = NominalDeviceFactory(self.technology, self.model)
        factory.plan_cache = (self.plan_cache if self.plan_cache is not None
                              else _process_plan_cache())
        if self.backend is not None:
            factory.backend = self.backend
        return factory

    def measure_index(self, point_index: int,
                      factory=None) -> GridPointResult:
        """Evaluate flat grid point *point_index* (any process, any order).

        *factory* replaces the point's own factory — the nominal
        :func:`~repro.charlib.characterize.characterize_arcs` path
        measures every point on its caller's factory.
        """
        cell_index, rest = divmod(point_index, self.points_per_cell)
        i_slew, j_load = divmod(rest, len(self.loads))
        adapter = self.adapters[cell_index]
        if factory is None:
            factory = self._factory(point_index)
        point = adapter.measure_point(
            factory, self.vdd, self.slews[i_slew], self.loads[j_load]
        )
        arcs = []
        for arc in adapter.arcs:
            delays, transitions = point[arc.name]
            stats = _point_stats(delays, transitions)
            if self.n_mc == 0 and stats.n_valid == 0:
                raise CharacterizationError(
                    f"{adapter.name} arc {arc.name!r} never crossed its "
                    f"thresholds at slew={self.slews[i_slew]:.3g} s, "
                    f"load={self.loads[j_load]:.3g} F"
                )
            arcs.append((arc.name, stats))
        return GridPointResult(
            cell_index=cell_index, i_slew=i_slew, j_load=j_load,
            arcs=tuple(arcs),
        )

    def __call__(self, shard) -> Tuple[GridPointResult, ...]:
        """Runtime protocol: evaluate the shard's contiguous point range."""
        return tuple(
            self.measure_index(k) for k in range(shard.start, shard.stop)
        )


@dataclass(frozen=True)
class LibraryTiming:
    """A characterized multi-cell library (the spec payload)."""

    name: str
    vdd: float
    cells: Tuple[CellTiming, ...]
    slews: Tuple[float, ...]
    loads: Tuple[float, ...]
    n_mc: int = 0

    def cell(self, name: str) -> CellTiming:
        for cell in self.cells:
            if cell.name == name:
                return cell
        known = ", ".join(c.name for c in self.cells)
        raise KeyError(f"no cell {name!r} in library (have: {known})")

    def liberty(self, library_name: Optional[str] = None) -> str:
        """Render the library as Liberty text."""
        from repro.charlib.liberty import write_liberty

        return write_liberty(self.cells, library_name=library_name or self.name)


def assemble_library(
    task: CharGridTask,
    points: Sequence[GridPointResult],
    name: str = "repro_vs_40nm",
):
    """Fold ordered grid points into tables; returns (library, diagnostics).

    Diagnostics map ``"CELL.arc"`` to the dropped-sample accounting of
    every grid point that lost non-finite Monte-Carlo samples — the
    record the Result envelope carries per the fail-loudly policy.
    """
    slews = np.asarray(task.slews, dtype=float)
    loads = np.asarray(task.loads, dtype=float)
    statistical = task.n_mc > 0

    cells: List[CellTiming] = []
    diagnostics: Dict[str, Dict] = {}
    for cell_index, adapter in enumerate(task.adapters):
        arc_names = [arc.name for arc in adapter.arcs]
        shape = (slews.size, loads.size)
        tables = {
            kind: {a: np.full(shape, np.nan) for a in arc_names}
            for kind in ("delay", "tran", "delay_sigma", "tran_sigma")
        }
        for point in points:
            if point.cell_index != cell_index:
                continue
            i, j = point.i_slew, point.j_load
            for arc_name, stats in point.arcs:
                tables["delay"][arc_name][i, j] = stats.delay_mean
                tables["tran"][arc_name][i, j] = stats.transition_mean
                tables["delay_sigma"][arc_name][i, j] = stats.delay_sigma
                tables["tran_sigma"][arc_name][i, j] = stats.transition_sigma
                dropped = stats.n_total - stats.n_valid
                if dropped:
                    key = f"{adapter.name}.{arc_name}"
                    entry = diagnostics.setdefault(
                        key, {"dropped": 0, "points": []}
                    )
                    entry["dropped"] += dropped
                    entry["points"].append(
                        {"slew": float(slews[i]), "load": float(loads[j]),
                         "dropped": dropped, "n_total": stats.n_total}
                    )
        cells.append(
            CellTiming(
                name=adapter.name,
                vdd=task.vdd,
                delay={
                    a: LookupTable2D(slews, loads, tables["delay"][a])
                    for a in arc_names
                },
                transition={
                    a: LookupTable2D(slews, loads, tables["tran"][a])
                    for a in arc_names
                },
                delay_sigma=(
                    {a: LookupTable2D(slews, loads, tables["delay_sigma"][a])
                     for a in arc_names} if statistical else None
                ),
                transition_sigma=(
                    {a: LookupTable2D(slews, loads, tables["tran_sigma"][a])
                     for a in arc_names} if statistical else None
                ),
                arcs=tuple(adapter.arcs),
                liberty=adapter.liberty,
                n_mc=task.n_mc,
            )
        )
    library = LibraryTiming(
        name=name, vdd=task.vdd, cells=tuple(cells),
        slews=tuple(float(s) for s in slews),
        loads=tuple(float(c) for c in loads),
        n_mc=task.n_mc,
    )
    return library, diagnostics
