"""Per-cell arc adapters: what a cell's timing arcs are and how to
measure one (input slew, output load) grid point.

An :class:`ArcAdapter` is a frozen, picklable dataclass — the grid
workload (:mod:`repro.charlib.workload`) ships adapters to pool workers
as part of shard tasks — that declares

* the cell's timing :class:`Arc` set (internal arc name + the Liberty
  delay/transition group it lands in),
* the :class:`LibertyCell` pin/function metadata the writer needs, and
* ``measure_point(factory, vdd, slew_in, c_load)``: one testbench
  transient returning ``{arc_name: (delay, output_slew)}`` with the
  factory's batch shape (nominal scalars or Monte-Carlo vectors).

The built-in adapters cover the paper's benchmark cells: INV (the
legacy hard-wired path, bit-identical), NAND2 (worst-case A-input arc,
B held high) and the master-slave DFF (CK-falling-edge to Q arcs for
both captured data values).  ``get_adapter`` resolves the spec-level
cell names.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.delay import crossing_time
from repro.cells.dff import DFFSpec, build_dff
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec
from repro.cells.nand import Nand2Spec
from repro.charlib.characterize import _measure_point, output_slew
from repro.circuit.dcop import initial_guess
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse

__all__ = [
    "Arc",
    "LibertyCell",
    "ArcAdapter",
    "InverterArcs",
    "Nand2Arcs",
    "DFFArcs",
    "ADAPTERS",
    "get_adapter",
]


@dataclass(frozen=True)
class Arc:
    """One timing arc: internal name + its Liberty table groups."""

    name: str                 #: e.g. "tphl", "tpcq_lh"
    delay_group: str          #: "cell_fall" / "cell_rise"
    transition_group: str     #: "fall_transition" / "rise_transition"


@dataclass(frozen=True)
class LibertyCell:
    """Pin-level Liberty metadata of one characterized cell."""

    input_pins: Tuple[str, ...]
    output_pin: str
    #: Boolean function of the output (None for sequential cells).
    function: Optional[str]
    #: Input pin the timing group relates to.
    related_pin: str
    #: ``negative_unate`` etc. (None when ``timing_type`` applies).
    timing_sense: Optional[str] = "negative_unate"
    #: Edge-triggered arcs: ``falling_edge`` / ``rising_edge``.
    timing_type: Optional[str] = None
    #: Sequential cells: (next_state, clocked_on) of the ``ff`` group.
    ff: Optional[Tuple[str, str]] = None


class ArcAdapter(abc.ABC):
    """Protocol every per-cell adapter implements (frozen dataclass)."""

    name: str

    @property
    @abc.abstractmethod
    def arcs(self) -> Tuple[Arc, ...]:
        """The cell's timing arcs, in table order."""

    @property
    @abc.abstractmethod
    def liberty(self) -> LibertyCell:
        """Pin/function metadata for the Liberty writer."""

    @abc.abstractmethod
    def measure_point(
        self, factory: DeviceFactory, vdd: float, slew_in: float,
        c_load: float,
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Measure every arc at one grid point: ``{arc: (delay, slew)}``."""


_COMBINATIONAL_ARCS = (
    Arc("tphl", "cell_fall", "fall_transition"),
    Arc("tplh", "cell_rise", "rise_transition"),
)


@dataclass(frozen=True)
class InverterArcs(ArcAdapter):
    """The legacy hard-wired inverter testbench, as an adapter.

    ``measure_point`` delegates to the original ``_measure_point`` so
    `characterize_cell` and every ``Characterize`` run — serial or
    sharded — produce bit-identical numbers.
    """

    spec: InverterSpec = InverterSpec(600.0, 300.0)
    name: str = "INV"

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return _COMBINATIONAL_ARCS

    @property
    def liberty(self) -> LibertyCell:
        return LibertyCell(
            input_pins=("A",), output_pin="Y", function="(!A)",
            related_pin="A", timing_sense="negative_unate",
        )

    def measure_point(self, factory, vdd, slew_in, c_load):
        return _measure_point(factory, self.spec, vdd, slew_in, c_load)


@dataclass(frozen=True)
class Nand2Arcs(ArcAdapter):
    """NAND2 worst-case single-input arc: A switches, B held high.

    Same testbench scheme as the inverter — controlled-slew ramp on A,
    pure capacitive load on the output — with the observation windows
    stretched ``(0.9 / vdd)**2`` like :func:`repro.cells.nand.
    nand2_delays`, so low-supply grids still capture their crossings.
    """

    spec: Nand2Spec = Nand2Spec()
    name: str = "NAND2"

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return _COMBINATIONAL_ARCS

    @property
    def liberty(self) -> LibertyCell:
        return LibertyCell(
            input_pins=("A", "B"), output_pin="Y", function="(!(A&B))",
            related_pin="A", timing_sense="negative_unate",
        )

    def measure_point(self, factory, vdd, slew_in, c_load):
        stretch = (0.9 / vdd) ** 2
        t_delay = 3.0 * slew_in + 10e-12 * stretch
        width = max(12.0 * slew_in, 120e-12 * stretch)
        pulse = Pulse(0.0, vdd, delay=t_delay, t_rise=slew_in,
                      t_fall=slew_in, width=width)

        circuit = Circuit(title="NAND2_CL")
        circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
        circuit.add_vsource("a", GROUND, pulse, name="VA")
        circuit.add_vsource("b", GROUND, DC(vdd), name="VB")
        spec = self.spec
        circuit.add_mosfet(factory("pmos", spec.wp_nm, spec.l_nm),
                           d="out", g="a", s="vdd", name="MPA")
        circuit.add_mosfet(factory("pmos", spec.wp_nm, spec.l_nm),
                           d="out", g="b", s="vdd", name="MPB")
        circuit.add_mosfet(factory("nmos", spec.wn_nm, spec.l_nm),
                           d="out", g="a", s="mid", name="MNA")
        circuit.add_mosfet(factory("nmos", spec.wn_nm, spec.l_nm),
                           d="mid", g="b", s=GROUND, name="MNB")
        circuit.add_capacitor("out", GROUND, c_load, name="CL")
        factory.configure_circuit(circuit)
        hints = {"vdd": vdd, "out": vdd, "mid": 0.0}

        dt = max(min(slew_in / 25.0, 1e-12 * stretch), 0.2e-12)
        t_stop = t_delay + width + slew_in + max(width, 100e-12 * stretch)
        result = transient(circuit, t_stop, dt,
                           dc_guess=initial_guess(circuit, hints))

        from repro.analysis.delay import propagation_delay

        tphl = propagation_delay(result, "a", "out", vdd, input_edge="rise")
        fall_start = t_delay + slew_in + 0.5 * width
        tplh = propagation_delay(result, "a", "out", vdd, input_edge="fall",
                                 t_min=fall_start)
        slew_hl = output_slew(result, "out", vdd, "fall")
        slew_lh = output_slew(result, "out", vdd, "rise", t_min=fall_start)
        return {
            "tphl": (tphl.delay, slew_hl),
            "tplh": (tplh.delay, slew_lh),
        }


@dataclass(frozen=True)
class DFFArcs(ArcAdapter):
    """Master-slave DFF clock-to-Q arcs at the capturing (falling) edge.

    Two transients per grid point, one per captured data value: D held
    high (slave releases a 0, Q rises — ``tpcq_lh``) and D held low with
    the slave holding 1 (Q falls — ``tpcq_hl``).  The "input slew" of
    the grid is the clock edge time; delay is measured from the clock's
    50 % falling crossing to Q's 50 % crossing, with the load capacitor
    on Q.
    """

    spec: DFFSpec = DFFSpec()
    name: str = "DFF"

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return (
            Arc("tpcq_lh", "cell_rise", "rise_transition"),
            Arc("tpcq_hl", "cell_fall", "fall_transition"),
        )

    @property
    def liberty(self) -> LibertyCell:
        return LibertyCell(
            input_pins=("D", "CK"), output_pin="Q", function=None,
            related_pin="CK", timing_sense=None, timing_type="falling_edge",
            ff=("D", "(!CK)"),
        )

    def _capture(self, factory, vdd, slew_in, c_load, d_high: bool):
        """One capture transient: (clk->q delay, q transition)."""
        stretch = (0.9 / vdd) ** 2
        t_clk = 3.0 * slew_in + 20e-12 * stretch
        t_stop = t_clk + slew_in + max(12.0 * slew_in, 200e-12 * stretch)

        clk = Pulse(vdd, 0.0, delay=t_clk, t_rise=slew_in, t_fall=slew_in,
                    width=4.0 * t_stop)
        clkb = Pulse(0.0, vdd, delay=t_clk, t_rise=slew_in, t_fall=slew_in,
                     width=4.0 * t_stop)
        d_wave = DC(vdd if d_high else 0.0)
        circuit, hints = build_dff(factory, self.spec, vdd, d_wave, clk, clkb)
        circuit.add_capacitor("q", GROUND, c_load, name="CLQ")
        if d_high:
            # Master transparent on 1; slave still holding 0 (build_dff's
            # default hints assume D low, so flip the master nodes only).
            hints.update({"x": vdd, "y": 0.0, "z": vdd})
        else:
            # Master transparent on 0 (the default); slave holding 1.
            hints.update({"u": 0.0, "q": vdd, "v": 0.0})
        guess = initial_guess(circuit, hints)

        dt = max(min(slew_in / 25.0, 1e-12 * stretch), 0.2e-12)
        result = transient(circuit, t_stop, dt, dc_guess=guess)

        t_ck = crossing_time(result.times, result["clk"], 0.5 * vdd, "fall")
        q_dir = "rise" if d_high else "fall"
        t_q = crossing_time(result.times, result["q"], 0.5 * vdd, q_dir,
                            t_min=t_clk)
        delay = t_q - t_ck
        slew = output_slew(result, "q", vdd, q_dir, t_min=t_clk)
        return delay, slew

    def measure_point(self, factory, vdd, slew_in, c_load):
        d_lh, s_lh = self._capture(factory, vdd, slew_in, c_load, d_high=True)
        d_hl, s_hl = self._capture(factory, vdd, slew_in, c_load, d_high=False)
        return {
            "tpcq_lh": (d_lh, s_lh),
            "tpcq_hl": (d_hl, s_hl),
        }


#: Spec-level cell names -> default adapter builders.
ADAPTERS = {
    "inv": InverterArcs,
    "nand2": Nand2Arcs,
    "dff": DFFArcs,
}


def get_adapter(cell) -> ArcAdapter:
    """Resolve a spec-level cell name (or pass an adapter through)."""
    if isinstance(cell, ArcAdapter):
        return cell
    try:
        return ADAPTERS[cell]()
    except KeyError:
        known = ", ".join(sorted(ADAPTERS))
        raise ValueError(f"unknown cell {cell!r}; known cells: {known}") from None
