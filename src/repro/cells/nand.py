"""Static CMOS NAND2 with fanout loading (Fig. 7).

The paper's second benchmark: a fanout-of-3 NAND2 operated at Vdd = 0.9,
0.7 and 0.55 V, where the delay distribution turns visibly non-Gaussian.
Input A (the transistor next to the output) switches while input B is
held high — the standard worst-case single-input switching arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.analysis.delay import DelayResult, DelayWatch, propagation_delay
from repro.cells.factory import DeviceFactory
from repro.cells.inverter import InverterSpec, _add_inverter
from repro.circuit.netlist import Circuit, GROUND
from repro.circuit.transient import transient
from repro.circuit.waveforms import DC, Pulse


@dataclass(frozen=True)
class Nand2Spec:
    """NAND2 sizing and loading.

    NMOS stack devices are double-width to compensate series resistance;
    defaults follow the 2x inverter sizing of the paper's Fig. 5.
    """

    wp_nm: float = 600.0
    wn_nm: float = 600.0
    l_nm: float = 40.0
    fanout: int = 3
    tail_cap_f: float = 5e-17
    #: Loads are inverters with these widths (2x cell of Fig. 5).
    load_wp_nm: float = 600.0
    load_wn_nm: float = 300.0


def build_nand2_fo(
    factory: DeviceFactory,
    spec: Nand2Spec,
    vdd: float,
    input_waveform=None,
) -> Tuple[Circuit, Dict[str, float]]:
    """NAND2 driver (A switching, B high) + fanout inverter loads."""
    circuit = Circuit(title=f"NAND2_FO{spec.fanout}")
    circuit.add_vsource("vdd", GROUND, DC(vdd), name="VDD")
    circuit.add_vsource(
        "a", GROUND, input_waveform if input_waveform is not None else DC(0.0),
        name="VA",
    )
    circuit.add_vsource("b", GROUND, DC(vdd), name="VB")

    # Pull-up: two PMOS in parallel.
    circuit.add_mosfet(factory("pmos", spec.wp_nm, spec.l_nm),
                       d="out", g="a", s="vdd", name="MPA")
    circuit.add_mosfet(factory("pmos", spec.wp_nm, spec.l_nm),
                       d="out", g="b", s="vdd", name="MPB")
    # Pull-down: series stack, A next to the output.
    circuit.add_mosfet(factory("nmos", spec.wn_nm, spec.l_nm),
                       d="out", g="a", s="mid", name="MNA")
    circuit.add_mosfet(factory("nmos", spec.wn_nm, spec.l_nm),
                       d="mid", g="b", s=GROUND, name="MNB")

    load_spec = InverterSpec(
        wp_nm=spec.load_wp_nm, wn_nm=spec.load_wn_nm, l_nm=spec.l_nm
    )
    for k in range(spec.fanout):
        load_out = f"load{k}"
        _add_inverter(circuit, factory, load_spec, "out", load_out, f"ld{k}")
        circuit.add_capacitor(load_out, GROUND, spec.tail_cap_f, name=f"CT{k}")

    hints = {"vdd": vdd, "out": vdd, "mid": 0.0}
    for k in range(spec.fanout):
        hints[f"load{k}"] = 0.0
    factory.configure_circuit(circuit)
    return circuit, hints


#: The A input's arcs, in the order :func:`nand2_delays` returns them.
NAND2_ARCS = ("tphl", "tplh")


def nand2_delays(
    factory: DeviceFactory,
    spec: Nand2Spec,
    vdd: float,
    dt: float = None,
    t_edge: float = None,
    arcs: Sequence[str] = NAND2_ARCS,
) -> Dict[str, DelayResult]:
    """tpHL / tpLH of the A input arc; timing scales with Vdd.

    At low supply the cell slows dramatically, so the default edge, step
    and observation window stretch as ``(0.9 / vdd)**2``.  *arcs* picks
    the arcs to measure (``ValueError`` for an unknown name or none);
    only those are returned.  Without ``"tplh"`` the transient stops on
    a :class:`~repro.analysis.delay.DelayWatch` once every sample's tpHL
    is settled, so it skips the rest of the pulse; the tpHL equals the
    full window's bit for bit.
    """
    unknown = sorted(set(arcs) - set(NAND2_ARCS))
    if unknown or not arcs:
        raise ValueError(
            f"arcs must be a non-empty subset of {NAND2_ARCS}, got {arcs!r}"
        )
    stretch = (0.9 / vdd) ** 2
    if t_edge is None:
        t_edge = 8e-12 * stretch
    if dt is None:
        dt = 0.5e-12 * stretch
    t_delay = 4.0 * t_edge
    width = 20.0 * t_edge
    pulse = Pulse(0.0, vdd, delay=t_delay, t_rise=t_edge, t_fall=t_edge, width=width)
    circuit, hints = build_nand2_fo(factory, spec, vdd, input_waveform=pulse)

    from repro.circuit.dcop import initial_guess

    t_stop = t_delay + width + t_edge + 20.0 * t_edge
    until = None
    if "tplh" not in arcs:
        until = DelayWatch(circuit, "a", "out", vdd, input_edge="rise")
    result = transient(circuit, t_stop, dt, dc_guess=initial_guess(circuit, hints),
                       until=until)

    delays = {}
    if "tphl" in arcs:
        delays["tphl"] = propagation_delay(result, "a", "out", vdd, input_edge="rise")
    if "tplh" in arcs:
        fall_start = t_delay + t_edge + width * 0.5
        delays["tplh"] = propagation_delay(result, "a", "out", vdd,
                                           input_edge="fall", t_min=fall_start)
    return delays
