"""Cell timing characterization against explicit loads.

The characterization testbench is the standard one: drive the cell's
switching input with a controlled-slew ramp, load the output with a pure
capacitance, and measure 50 %-to-50 % delay plus 20-80 % output
transition, for every (input slew, output load) grid point and both
edges.  Statistical characterization repeats the measurement under a
Monte-Carlo factory and streams the samples through the runtime's
:class:`~repro.runtime.accumulators.StreamStats` — the raw material for
SSTA (:mod:`repro.ssta`).

Which arcs a cell has, and how one grid point is measured, is the
business of a per-cell **arc adapter** (:mod:`repro.charlib.arcs`); this
module holds the measurement primitives, the :class:`CellTiming` table
container, and the nominal helpers `characterize_arcs` /
`characterize_cell`, which measure each point with the grid workload
(:mod:`repro.charlib.workload`, behind ``Session.run``) on the
caller's factory and fold its tables the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.delay import crossing_time, propagation_delay
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec, _add_inverter
from repro.charlib.tables import LookupTable2D
from repro.circuit.dcop import initial_guess
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import Pulse
from repro.runtime.accumulators import StreamStats

#: Default characterization grids (40-nm scale).
DEFAULT_SLEWS = (4e-12, 12e-12, 30e-12)
DEFAULT_LOADS = (0.5e-15, 2e-15, 6e-15)


class CharacterizationError(RuntimeError):
    """A characterization point produced no valid measurement.

    Raised by the nominal paths when a threshold crossing is never
    found (the cell did not switch inside the observation window) —
    silently tabulating NaN or negative slews is exactly the failure
    mode this guards against.  Statistical runs instead drop invalid
    samples and record the counts as diagnostics in the
    :class:`~repro.api.result.Result` envelope.
    """


def build_loaded_inverter(
    factory: DeviceFactory,
    spec: InverterSpec,
    vdd: float,
    input_waveform,
    c_load: float,
) -> Tuple[Circuit, Dict[str, float]]:
    """Driver inverter with a pure capacitive load."""
    circuit = Circuit(title="INV_CL")
    circuit.add_vsource("vdd", GROUND, vdd, name="VDD")
    circuit.add_vsource("in", GROUND, input_waveform, name="VIN")
    _add_inverter(circuit, factory, spec, "in", "out", "drv")
    circuit.add_capacitor("out", GROUND, c_load, name="CL")
    factory.configure_circuit(circuit)
    return circuit, {"vdd": vdd, "out": vdd}


def output_slew(result, node: str, vdd: float, direction: str,
                t_min: float = 0.0):
    """20-80 % output transition time (batched).

    Samples whose thresholds are never crossed — or crossed in an order
    that would yield a non-positive transition (a stale crossing from an
    earlier edge) — come back NaN instead of a silently nonsensical
    value; callers either raise (:class:`CharacterizationError`, nominal
    paths) or drop-and-record (statistical paths).
    """
    lo, hi = 0.2 * vdd, 0.8 * vdd
    if direction == "rise":
        t_a = crossing_time(result.times, result[node], lo, "rise", t_min)
        t_b = crossing_time(result.times, result[node], hi, "rise", t_min)
    else:
        t_a = crossing_time(result.times, result[node], hi, "fall", t_min)
        t_b = crossing_time(result.times, result[node], lo, "fall", t_min)
    width = t_b - t_a
    return np.where(np.isfinite(width) & (width > 0.0), width, np.nan)


@dataclass(frozen=True)
class CellTiming:
    """NLDM-style tables for one cell.

    The mean tables (``delay``/``transition``) are keyed by arc name
    (``tphl``/``tplh`` for the combinational cells, ``tpcq_*`` for the
    flop).  Statistical characterization additionally fills the
    per-arc ``*_sigma`` tables.  ``arcs`` / ``liberty`` carry the
    adapter's Liberty metadata (group names, pins, function); both are
    optional so hand-built inverter-style timings keep working.
    """

    name: str
    vdd: float
    #: arc name -> mean delay table.
    delay: Dict[str, LookupTable2D]
    #: arc name -> mean output transition table.
    transition: Dict[str, LookupTable2D]
    #: arc name -> Monte-Carlo delay sigma table (None for nominal).
    delay_sigma: Optional[Dict[str, LookupTable2D]] = None
    #: arc name -> Monte-Carlo transition sigma table (None for nominal).
    transition_sigma: Optional[Dict[str, LookupTable2D]] = None
    #: Arc descriptors (``repro.charlib.arcs.Arc``) in table order;
    #: None -> the legacy inverter tphl/tplh mapping.
    arcs: Optional[tuple] = None
    #: Liberty cell metadata (``repro.charlib.arcs.LibertyCell``).
    liberty: Optional[object] = None
    #: Monte-Carlo samples behind the statistical tables (0 = nominal).
    n_mc: int = 0


def _measure_point(
    factory: DeviceFactory,
    spec: InverterSpec,
    vdd: float,
    slew_in: float,
    c_load: float,
    dt_factor: float = 25.0,
):
    """One inverter grid point: both edges' delay and output slew (batched)."""
    t_delay = 3.0 * slew_in + 10e-12
    width = max(12.0 * slew_in, 120e-12)
    pulse = Pulse(0.0, vdd, delay=t_delay, t_rise=slew_in, t_fall=slew_in,
                  width=width)
    circuit, hints = build_loaded_inverter(factory, spec, vdd, pulse, c_load)
    dt = max(min(slew_in / dt_factor, 1e-12), 0.2e-12)
    t_stop = t_delay + width + slew_in + max(width, 100e-12)
    result = transient(circuit, t_stop, dt,
                       dc_guess=initial_guess(circuit, hints))

    tphl = propagation_delay(result, "in", "out", vdd, input_edge="rise")
    fall_start = t_delay + slew_in + 0.5 * width
    tplh = propagation_delay(result, "in", "out", vdd, input_edge="fall",
                             t_min=fall_start)
    slew_hl = output_slew(result, "out", vdd, "fall")
    slew_lh = output_slew(result, "out", vdd, "rise", t_min=fall_start)
    return {
        "tphl": (tphl.delay, slew_hl),
        "tplh": (tplh.delay, slew_lh),
    }


def characterize_arcs(
    factory: DeviceFactory,
    adapter,
    vdd: float = 0.9,
    slews: Sequence[float] = DEFAULT_SLEWS,
    loads: Sequence[float] = DEFAULT_LOADS,
) -> CellTiming:
    """Nominal characterization of *adapter*'s arcs over the grid (serial).

    *adapter* is any :class:`repro.charlib.arcs.ArcAdapter`; the factory
    must be nominal (statistical grids run through the
    ``Characterize`` / ``CharacterizeLibrary`` specs instead).  Each
    point is the grid workload's own measurement
    (:meth:`~repro.charlib.workload.CharGridTask.measure_index`) on
    *factory*, folded by :func:`~repro.charlib.workload.assemble_library`
    — so the tables are bit-identical to a nominal ``Characterize`` run.
    A grid point whose measurement is non-finite raises
    :class:`CharacterizationError` naming the arc and point.
    """
    from repro.charlib.workload import CharGridTask, assemble_library

    if factory.batch_shape:
        raise ValueError(
            "characterize_arcs is the nominal path; run Monte-Carlo "
            "characterization through the Characterize spec"
        )
    task = CharGridTask(
        technology=None, adapters=(adapter,), vdd=vdd,
        slews=tuple(float(s) for s in slews),
        loads=tuple(float(c) for c in loads),
    )
    points = [task.measure_index(k, factory) for k in range(task.n_points)]
    library, _ = assemble_library(task, points)
    return library.cells[0]


def characterize_cell(
    factory: DeviceFactory,
    spec: InverterSpec = InverterSpec(600.0, 300.0),
    vdd: float = 0.9,
    slews: Sequence[float] = DEFAULT_SLEWS,
    loads: Sequence[float] = DEFAULT_LOADS,
    name: str = "INV",
) -> CellTiming:
    """Nominal inverter characterization over the (slew, load) grid.

    Thin wrapper over :func:`characterize_arcs` with the inverter arc
    adapter — same measurement code as every other path, so the serial
    result is bit-identical to the sharded grid workload.
    """
    from repro.charlib.arcs import InverterArcs

    return characterize_arcs(
        factory, InverterArcs(spec=spec, name=name), vdd=vdd,
        slews=slews, loads=loads,
    )


# ----------------------------------------------------------------------
# Statistical arc samples (streamed moments).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArcSamples:
    """Monte-Carlo delay samples of one timing arc at one operating point.

    Moments are streamed through the runtime's
    :class:`~repro.runtime.accumulators.StreamStats` at construction —
    the same accumulator the sharded grid workload folds shard payloads
    into — so serial and parallel statistics share one formula.
    """

    cell: str
    arc: str
    slew_in: float
    c_load: float
    samples: np.ndarray       #: (n,) finite delay samples [s]

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).ravel()
        samples = samples[np.isfinite(samples)]
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_stats", StreamStats().update(samples))

    @property
    def edge(self) -> str:
        """Legacy alias of :attr:`arc`."""
        return self.arc

    @property
    def stats(self) -> StreamStats:
        """The streamed accumulator behind :attr:`mean`/:attr:`sigma`."""
        return self._stats

    @property
    def mean(self) -> float:
        return float(self._stats.mean) if self._stats.n else float("nan")

    @property
    def sigma(self) -> float:
        return self._stats.std()

    def draw(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Bootstrap-resample arc delays (preserves non-Gaussian shape)."""
        return rng.choice(self.samples, size=n, replace=True)


def characterize_cell_statistics(
    factory_builder: Callable[[], DeviceFactory],
    spec: InverterSpec = InverterSpec(600.0, 300.0),
    vdd: float = 0.9,
    slew_in: float = DEFAULT_SLEWS[1],
    c_load: float = DEFAULT_LOADS[1],
    name: str = "INV",
) -> Dict[str, ArcSamples]:
    """Monte-Carlo characterization of both inverter arcs at one point.

    *factory_builder* must return a fresh Monte-Carlo factory (its batch
    size sets the sample count); a builder rather than a factory so each
    arc gets independent device draws.  Grid-shaped statistical
    characterization — any cell, sharded — runs through the
    ``Characterize`` spec instead.
    """
    factory = factory_builder()
    point = _measure_point(factory, spec, vdd, slew_in, c_load)
    result = {}
    for edge in ("tphl", "tplh"):
        delays, _ = point[edge]
        result[edge] = ArcSamples(
            cell=name, arc=edge, slew_in=slew_in, c_load=c_load,
            samples=np.asarray(delays),
        )
    return result
