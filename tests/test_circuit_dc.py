"""DC analyses of the MNA engine: linear sanity, nonlinear devices, sweeps."""

import warnings

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    GROUND,
    DC,
    dc_operating_point,
    dc_sweep,
)
from repro.circuit import dcop
from repro.circuit.dcop import initial_guess
from repro.circuit.mna import DEFAULT_VLIMIT, ConvergenceError, NewtonOptions
from repro.data.cards import vs_nmos_40nm, vs_pmos_40nm
from repro.devices.vs.model import VSDevice

VDD = 0.9


class TestLinearCircuits:
    def test_voltage_divider(self):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
        ckt.add_resistor("a", "b", 1e3)
        ckt.add_resistor("b", GROUND, 3e3)
        v = dc_operating_point(ckt)
        assert v[ckt.index_of("b")] == pytest.approx(0.75, rel=1e-5)

    def test_source_branch_current(self):
        ckt = Circuit()
        src = ckt.add_vsource("a", GROUND, DC(2.0), name="V1")
        ckt.add_resistor("a", GROUND, 1e3)
        v = dc_operating_point(ckt)
        # Branch current flows out of the positive node into the source:
        # the source *delivers* 2 mA, so the branch unknown is -2 mA.
        assert v[src.branch_index] == pytest.approx(-2e-3, rel=1e-4)

    def test_current_source_into_resistor(self):
        ckt = Circuit()
        ckt.add_isource("a", GROUND, DC(1e-3), name="I1")  # out of node a
        ckt.add_resistor("a", GROUND, 1e3)
        v = dc_operating_point(ckt)
        assert v[ckt.index_of("a")] == pytest.approx(-1.0, rel=1e-4)

    def test_floating_node_held_by_gmin(self):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
        ckt.add_resistor("a", "b", 1e3)
        ckt.node("c")  # totally floating node
        v = dc_operating_point(ckt)
        assert abs(v[ckt.index_of("c")]) < 1e-6

    def test_series_resistors_kcl(self):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(3.0), name="V1")
        ckt.add_resistor("a", "b", 1e3)
        ckt.add_resistor("b", "c", 1e3)
        ckt.add_resistor("c", GROUND, 1e3)
        v = dc_operating_point(ckt)
        assert v[ckt.index_of("b")] == pytest.approx(2.0, rel=1e-5)
        assert v[ckt.index_of("c")] == pytest.approx(1.0, rel=1e-5)

    def test_rejects_nonpositive_resistance(self):
        ckt = Circuit()
        with pytest.raises(ValueError):
            ckt.add_resistor("a", "b", -5.0)

    def test_duplicate_element_names_rejected(self):
        ckt = Circuit()
        ckt.add_resistor("a", "b", 1.0, name="R1")
        with pytest.raises(ValueError):
            ckt.add_resistor("b", "c", 1.0, name="R1")


def build_vs_inverter(vin: float, batch_vt0=None):
    card_n = vs_nmos_40nm(300.0, 40.0)
    if batch_vt0 is not None:
        card_n = card_n.replace(vt0=batch_vt0)
    ckt = Circuit()
    ckt.add_vsource("vdd", GROUND, DC(VDD), name="VDD")
    ckt.add_vsource("in", GROUND, DC(vin), name="VIN")
    ckt.add_mosfet(VSDevice(vs_pmos_40nm(600.0, 40.0)), d="out", g="in", s="vdd",
                   name="MP")
    ckt.add_mosfet(VSDevice(card_n), d="out", g="in", s=GROUND, name="MN")
    return ckt


class TestNonlinearDC:
    def test_inverter_logic_levels(self):
        for vin, expect_high in ((0.0, True), (VDD, False)):
            ckt = build_vs_inverter(vin)
            v = dc_operating_point(ckt)
            out = v[ckt.index_of("out")]
            if expect_high:
                assert out > 0.85 * VDD
            else:
                assert out < 0.15 * VDD

    def test_batched_operating_point(self):
        vt0 = np.linspace(0.35, 0.50, 7)
        ckt = build_vs_inverter(0.45, batch_vt0=vt0)
        v = dc_operating_point(ckt)
        out = v[..., ckt.index_of("out")]
        assert out.shape == (7,)
        # Higher NMOS VT -> weaker pulldown -> higher output.
        assert np.all(np.diff(out) > 0.0)

    def test_initial_guess_helper(self):
        ckt = build_vs_inverter(0.0)
        guess = initial_guess(ckt, {"vdd": VDD, "out": VDD})
        v = dc_operating_point(ckt, v0=guess)
        assert v[ckt.index_of("out")] > 0.85 * VDD

    def test_kcl_satisfied_at_solution(self):
        # The supply current equals the NMOS drain current (no other path).
        ckt = build_vs_inverter(VDD)
        v = dc_operating_point(ckt)
        vdd_branch = ckt["VDD"].branch_index
        out = v[ckt.index_of("out")]
        i_nmos = float(VSDevice(vs_nmos_40nm(300.0, 40.0)).ids(VDD, out, 0.0))
        # The supply current differs from the device current only by the
        # gmin conditioning current at the vdd node (~1e-10 * Vdd).
        assert -v[vdd_branch] == pytest.approx(i_nmos, rel=5e-3)


class TestDCSweep:
    def test_inverter_vtc_monotone(self):
        ckt = build_vs_inverter(0.0)
        guess = initial_guess(ckt, {"vdd": VDD, "out": VDD})
        result = dc_sweep(ckt, "VIN", np.linspace(0.0, VDD, 31), v0=guess)
        vtc = result["out"]
        assert vtc[0] > 0.85 * VDD
        assert vtc[-1] < 0.1 * VDD
        assert np.all(np.diff(vtc) < 1e-6)

    def test_sweep_restores_source_level(self):
        ckt = build_vs_inverter(0.3)
        level_before = ckt["VIN"].waveform.level
        dc_sweep(ckt, "VIN", np.linspace(0.0, VDD, 5))
        assert ckt["VIN"].waveform.level == level_before

    def test_sweep_requires_dc_source(self):
        from repro.circuit.waveforms import Pulse

        ckt = Circuit()
        ckt.add_vsource("a", GROUND, Pulse(0, 1, 0, 1e-12, 1e-12, 1e-9), name="VP")
        ckt.add_resistor("a", GROUND, 1e3)
        with pytest.raises(TypeError):
            dc_sweep(ckt, "VP", [0.0, 1.0])

    def test_sweep_rejects_empty_values(self):
        ckt = build_vs_inverter(0.0)
        with pytest.raises(ValueError):
            dc_sweep(ckt, "VIN", [])

    @pytest.mark.parametrize("values", [[0.0, np.nan, 0.2], [0.0, np.inf],
                                        [-np.inf, 0.3]])
    def test_sweep_rejects_non_finite_levels(self, values, monkeypatch):
        # Rejected before any point is solved: a NaN level would run the
        # plain pass and every gmin rung into a ConvergenceError, and
        # would poison the next point's predicted start.
        solves = _record_solves(monkeypatch)
        ckt = build_vs_inverter(0.0)
        with pytest.raises(ValueError, match="finite"):
            dc_sweep(ckt, "VIN", values)
        assert solves == []
        assert ckt["VIN"].waveform.level == 0.0


#: Per-sample NMOS thresholds of the batched inverter [V].
INVERTER_VT0 = np.array([0.38, 0.42, 0.47])
#: Level fractions of VDD: non-uniform steps, turning points included.
NON_UNIFORM = [0.0, 0.1, 0.15, 0.35, 0.4, 0.6, 1.0, 0.7, 0.3]


def _record_solves(monkeypatch):
    """Record every DC point's Newton start and solution, ``[(v0, v)]``."""
    solves = []
    newton_solve = dcop.newton_solve

    def recording(assemble, v0, *args, **kwargs):
        out = newton_solve(assemble, v0, *args, **kwargs)
        solves.append((np.array(v0), np.array(out[0])))
        return out

    monkeypatch.setattr(dcop, "newton_solve", recording)
    return solves


def _vtc(vt0, values, backend="auto", options=None):
    """Inverter transfer curve over *values* of VIN, from the output-high
    hint."""
    ckt = build_vs_inverter(0.0, batch_vt0=vt0)
    ckt.set_backend(backend)
    v0 = initial_guess(ckt, {"vdd": VDD, "out": VDD})
    return dc_sweep(ckt, "VIN", values, v0=v0, options=options), ckt, v0


def _secant_start(values, k, solves, n_nodes):
    """Point *k*'s start (k >= 2) by the sweep's contract: the last
    solution with its node voltages moved by the clamped secant step,
    or the last solution itself after a zero level step."""
    x, x_prev = solves[k - 1][1], solves[k - 2][1]
    if values[k - 1] == values[k - 2]:
        return x
    ratio = (values[k] - values[k - 1]) / (values[k - 1] - values[k - 2])
    start = x.copy()
    nodes, nodes_prev = x[..., :n_nodes], x_prev[..., :n_nodes]
    start[..., :n_nodes] = nodes + np.clip(ratio * (nodes - nodes_prev),
                                           -DEFAULT_VLIMIT, DEFAULT_VLIMIT)
    return start


class TestSecantPrediction:
    """Each sweep point starts Newton from the secant prediction of its
    node voltages, checked on the starts the point's solve receives."""

    @pytest.mark.parametrize("backend", ["compiled", "generic"])
    def test_first_two_points_start_zero_order(self, monkeypatch, backend):
        solves = _record_solves(monkeypatch)
        values = VDD * np.array(NON_UNIFORM)
        result, ckt, v0 = _vtc(INVERTER_VT0, values, backend)
        assert len(solves) == values.size
        np.testing.assert_array_equal(solves[0][0],
                                      np.broadcast_to(v0, solves[0][0].shape))
        np.testing.assert_array_equal(solves[1][0], solves[0][1])
        np.testing.assert_array_equal(
            result.voltages, np.stack([v for _, v in solves])[..., :ckt.n_nodes]
        )

    @pytest.mark.parametrize("fractions", [
        NON_UNIFORM,
        [1.0, 0.9, 0.6, 0.5, 0.45, 0.2, 0.0],
        [0.0, 0.2, 0.5, 0.7, 0.45, 0.3, 0.1],
        list(np.linspace(1.0, 0.0, 7)),
    ], ids=["non-uniform", "descending", "up-then-down", "uniform-descending"])
    @pytest.mark.parametrize("backend", ["compiled", "generic"])
    def test_points_start_from_the_step_ratio(self, monkeypatch, fractions,
                                              backend):
        solves = _record_solves(monkeypatch)
        values = VDD * np.array(fractions)
        _, ckt, _ = _vtc(INVERTER_VT0, values, backend)
        for k in range(2, values.size):
            np.testing.assert_array_equal(
                solves[k][0], _secant_start(values, k, solves, ckt.n_nodes),
                err_msg=f"point {k}",
            )

    @pytest.mark.parametrize("values, fallback", [
        ([0.0, 0.27, 0.54, 0.54, 0.27, 0.0], 4),
        ([0.0, 5e-324, 0.45, 0.63], 2),
    ], ids=["repeated-turning-level", "overflowing-ratio"])
    def test_zero_order_fallback(self, monkeypatch, values, fallback):
        # After a repeated level the step ratio would divide by zero, and
        # after a subnormal step it overflows: that point starts from the
        # previous solution, with no warning, and the next one predicts.
        solves = _record_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ckt, _ = _vtc(INVERTER_VT0, values)
        np.testing.assert_array_equal(solves[fallback][0],
                                      solves[fallback - 1][1])
        np.testing.assert_array_equal(
            solves[fallback + 1][0],
            _secant_start(values, fallback + 1, solves, ckt.n_nodes),
        )

    @pytest.mark.parametrize("vlimit", [None, 0.05])
    def test_clamp_binds_at_vlimit(self, monkeypatch, vlimit):
        # A coarse 5-point VTC: across the switching region the output's
        # secant step exceeds the clamp (NewtonOptions.vlimit, its
        # default without options), and the start moves by exactly it.
        solves = _record_solves(monkeypatch)
        options = None if vlimit is None else NewtonOptions(vlimit=vlimit)
        limit = DEFAULT_VLIMIT if vlimit is None else vlimit
        values = np.linspace(0.0, VDD, 5)
        _, ckt, _ = _vtc(INVERTER_VT0, values, options=options)
        out = ckt.index_of("out")
        bound = 0
        for k in range(2, values.size):
            x, x_prev = solves[k - 1][1][..., out], solves[k - 2][1][..., out]
            ratio = (values[k] - values[k - 1]) / (values[k - 1] - values[k - 2])
            secant = ratio * (x - x_prev)
            binds = np.abs(secant) > limit
            np.testing.assert_array_equal(
                solves[k][0][..., out][binds],
                (x + np.copysign(limit, secant))[binds],
            )
            bound += np.count_nonzero(binds)
        assert bound > 0

    @pytest.mark.parametrize("backend", ["compiled", "generic"])
    def test_batched_sweep_equals_scalar_sweeps(self, monkeypatch, backend):
        # Each sample's start depends on its own solutions only.
        solves = _record_solves(monkeypatch)
        values = VDD * np.array(NON_UNIFORM)
        batched, _, _ = _vtc(INVERTER_VT0, values, backend)
        starts = [start for start, _ in solves]
        for k, vt0 in enumerate(INVERTER_VT0):
            solves.clear()
            scalar, _, _ = _vtc(float(vt0), values, backend)
            np.testing.assert_array_equal(batched.voltages[:, k],
                                          scalar.voltages)
            for point, (start, (alone, _)) in enumerate(zip(starts, solves)):
                np.testing.assert_array_equal(start[k], alone,
                                              err_msg=f"point {point}")
