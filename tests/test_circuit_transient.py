"""Transient engine: RC analytics, charge conservation, batching."""

import importlib

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    GROUND,
    DC,
    Pulse,
    Step,
    transient,
)
from repro.data.cards import vs_nmos_40nm, vs_pmos_40nm
from repro.devices.vs.model import VSDevice

VDD = 0.9


class TestRCAnalytic:
    def build_rc(self, r=1e3, c=1e-12, v1=1.0, t_step=1e-10):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, Step(0.0, v1, t_step, t_rise=1e-13), name="VS")
        ckt.add_resistor("a", "b", r)
        ckt.add_capacitor("b", GROUND, c)
        return ckt

    def test_rc_charging_curve(self):
        r, c = 1e3, 1e-12
        tau = r * c
        ckt = self.build_rc(r, c)
        res = transient(ckt, t_stop=1.2e-9, dt=tau / 200.0)
        vb = res["b"]
        t = res.times
        # Compare against 1 - exp(-(t - t0)/tau) after the step.
        mask = t > 2e-10
        expected = 1.0 - np.exp(-(t[mask] - 1e-10 - 0.5e-13) / tau)
        np.testing.assert_allclose(vb[mask], expected, atol=0.01)

    def test_trapezoidal_second_order_convergence(self):
        # With a resolved input edge, halving dt must shrink the error by
        # ~4x (2nd order).  Reference: a much finer run.
        r, c = 1e3, 1e-12

        def run(dt):
            ckt = Circuit()
            ckt.add_vsource("a", GROUND, Step(0.0, 1.0, 1e-10, t_rise=4e-11),
                            name="VS")
            ckt.add_resistor("a", "b", r)
            ckt.add_capacitor("b", GROUND, c)
            res = transient(ckt, t_stop=8e-10, dt=dt)
            return res

        ref = run(1e-13)
        errors = []
        for dt in (8e-12, 4e-12):
            res = run(dt)
            v_ref = np.interp(res.times, ref.times, ref["b"])
            errors.append(np.abs(res["b"] - v_ref).max())
        ratio = errors[0] / errors[1]
        assert ratio > 2.5  # clearly better than 1st order (ratio 2)

    def test_capacitor_blocks_dc(self):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(1.0), name="VS")
        ckt.add_resistor("a", "b", 1e3)
        ckt.add_capacitor("b", GROUND, 1e-12)
        res = transient(ckt, t_stop=1e-9, dt=1e-11)
        # Started from DC: cap fully charged, nothing moves.
        np.testing.assert_allclose(res["b"], 1.0, atol=1e-6)

    def test_record_every(self):
        ckt = self.build_rc()
        res_full = transient(ckt, t_stop=4e-10, dt=1e-12)
        ckt2 = self.build_rc()
        res_thin = transient(ckt2, t_stop=4e-10, dt=1e-12, record_every=10)
        assert res_thin.times.size < res_full.times.size
        assert res_thin.times[-1] == pytest.approx(res_full.times[-1])

    def test_rejects_bad_arguments(self):
        ckt = self.build_rc()
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-9, dt=-1e-12)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=0.0, dt=1e-12)
        with pytest.raises(ValueError):
            transient(ckt, t_stop=1e-9, dt=1e-12, method="gear")

    @pytest.mark.parametrize("arguments,message", [
        ({"t_stop": 1e-9, "dt": 1e-11, "record_every": 0}, "record_every"),
        ({"t_stop": np.inf, "dt": 1e-11}, "finite"),
        ({"t_stop": np.nan, "dt": 1e-11}, "finite"),
        ({"t_stop": 1e-9, "dt": np.nan}, "finite"),
        ({"t_stop": 1e-9, "dt": np.inf}, "finite"),
        ({"t_stop": 1e-9, "dt": 1e-11, "t_start": np.nan}, "finite"),
    ])
    def test_rejects_bad_times_before_the_dc_solve(self, arguments, message,
                                                   monkeypatch):
        solves = []
        monkeypatch.setattr(
            importlib.import_module("repro.circuit.transient"),
            "dc_operating_point", lambda *args, **kwargs: solves.append(1),
        )
        with pytest.raises(ValueError, match=message):
            transient(self.build_rc(), **arguments)
        assert not solves


def build_inverter_tran(batch_vt0=None, cl=2e-15):
    card_n = vs_nmos_40nm(300.0, 40.0)
    if batch_vt0 is not None:
        card_n = card_n.replace(vt0=batch_vt0)
    ckt = Circuit()
    ckt.add_vsource("vdd", GROUND, DC(VDD), name="VDD")
    ckt.add_vsource(
        "in", GROUND,
        Pulse(0.0, VDD, delay=20e-12, t_rise=8e-12, t_fall=8e-12, width=120e-12),
        name="VIN",
    )
    ckt.add_mosfet(VSDevice(vs_pmos_40nm(600.0, 40.0)), d="out", g="in", s="vdd",
                   name="MP")
    ckt.add_mosfet(VSDevice(card_n), d="out", g="in", s=GROUND, name="MN")
    ckt.add_capacitor("out", GROUND, cl, name="CL")
    return ckt


class TestInverterTransient:
    def test_output_switches_and_recovers(self):
        ckt = build_inverter_tran()
        res = transient(ckt, t_stop=300e-12, dt=0.5e-12)
        out = res["out"]
        assert out[0] == pytest.approx(VDD, abs=0.01)
        mid_idx = np.searchsorted(res.times, 100e-12)
        assert out[mid_idx] < 0.05
        assert out[-1] == pytest.approx(VDD, abs=0.02)

    def test_rail_bounds_respected(self):
        ckt = build_inverter_tran()
        res = transient(ckt, t_stop=300e-12, dt=0.5e-12)
        out = res["out"]
        # Small over/undershoot through the gate-drain overlap cap is
        # physical; beyond ~10% of Vdd would indicate an integration bug.
        assert out.min() > -0.1 * VDD
        assert out.max() < 1.1 * VDD

    def test_batched_transient_consistent_with_scalar(self):
        vt0 = np.array([0.38, 0.46])
        ckt = build_inverter_tran(batch_vt0=vt0)
        res = transient(ckt, t_stop=200e-12, dt=1e-12)
        out_batched = res["out"]
        for k, v in enumerate(vt0):
            ckt_k = build_inverter_tran(batch_vt0=None)
            # Rebuild with scalar card.
            ckt_k = build_inverter_tran(batch_vt0=float(v))
            res_k = transient(ckt_k, t_stop=200e-12, dt=1e-12)
            np.testing.assert_allclose(out_batched[:, k], res_k["out"], atol=2e-4)

    def test_dt_refinement_converges(self):
        # Halving dt should barely move the waveform (2nd-order trap).
        ckt1 = build_inverter_tran()
        res1 = transient(ckt1, t_stop=150e-12, dt=1e-12)
        ckt2 = build_inverter_tran()
        res2 = transient(ckt2, t_stop=150e-12, dt=0.5e-12, record_every=2)
        n = min(res1.times.size, res2.times.size)
        np.testing.assert_allclose(res1["out"][:n], res2["out"][:n], atol=5e-3)


class _StopAt:
    """``until`` test that returns True from its *n*-th call on (the
    initial point is call 0) and logs every call."""

    def __init__(self, n):
        self.n = n
        self.calls = []

    def __call__(self, t, nodes):
        self.calls.append((t, nodes.copy(), nodes.flags.writeable))
        return len(self.calls) > self.n


class TestUntil:
    """``transient(until=...)`` ends a run early on a stop test."""

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("method", ["trap", "be"])
    @pytest.mark.parametrize("backend", ["compiled", "generic"])
    def test_prefix_equals_full_run_bitwise(self, backend, method,
                                            record_every):
        def run(until=None):
            ckt = build_inverter_tran(batch_vt0=np.array([0.38, 0.46]))
            ckt.set_backend(backend)
            return transient(ckt, t_stop=100e-12, dt=1e-12, method=method,
                             record_every=record_every, until=until)

        full = run()
        for n in (1, 7, full.times.size - 2, full.times.size - 1):
            stopped = run(_StopAt(n))
            assert stopped.times.size == n + 1
            assert stopped.times.tobytes() == full.times[:n + 1].tobytes()
            assert (stopped.voltages.tobytes()
                    == full.voltages[:n + 1].tobytes())
        assert (run(_StopAt(full.times.size)).voltages.tobytes()
                == full.voltages.tobytes())

    def test_called_at_every_recorded_point_with_node_voltages(self):
        ckt = build_inverter_tran(batch_vt0=np.array([0.38, 0.46]))
        until = _StopAt(4)
        result = transient(ckt, t_stop=100e-12, dt=1e-12, record_every=3,
                           until=until)
        # The stopping step (call 4, step 12) is recorded.
        assert [t for t, _, _ in until.calls] == list(result.times)
        assert result.times[-1] == pytest.approx(12e-12)
        for k, (_, nodes, writeable) in enumerate(until.calls):
            assert nodes.shape == (2, ckt.n_nodes)
            assert not writeable
            assert (nodes.tobytes()
                    == result.voltages[k][..., :ckt.n_nodes].tobytes())

    def test_true_at_the_initial_point_does_not_stop(self):
        until = _StopAt(0)
        result = transient(build_inverter_tran(), t_stop=100e-12, dt=1e-12,
                           until=until)
        assert len(until.calls) == 2
        np.testing.assert_array_equal(result.times, [0.0, 1e-12])

    @pytest.mark.parametrize("until", [True, "stop", 1])
    def test_rejects_non_callable_before_the_dc_solve(self, until,
                                                      monkeypatch):
        solves = []
        monkeypatch.setattr(
            importlib.import_module("repro.circuit.transient"),
            "dc_operating_point", lambda *args, **kwargs: solves.append(1),
        )
        with pytest.raises(TypeError, match="until"):
            transient(build_inverter_tran(), t_stop=1e-9, dt=1e-11,
                      until=until)
        assert not solves
