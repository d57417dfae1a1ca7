"""Benchmark cells: INV, NAND2, DFF, SRAM behaviour at nominal and small MC."""

import numpy as np
import pytest

import repro.cells.nand as nand_module
from repro.cells import (
    DFFSpec,
    InverterSpec,
    MonteCarloDeviceFactory,
    Nand2Spec,
    NominalDeviceFactory,
    SRAMSpec,
    butterfly_curves,
    dff_hold_time,
    dff_setup_time,
    inverter_delays,
    nand2_delays,
    sram_snm,
)
from repro.experiments.fig7_nand2_vdd import Nand2DelayWork
from repro.experiments.ssta_low_vdd import ArcDelayWork

VDD = 0.9


@pytest.fixture(scope="module")
def technology_module(technology):
    # Alias onto the session-wide characterized technology.
    return technology


@pytest.fixture(scope="module")
def nominal_vs(technology_module):
    return NominalDeviceFactory(technology_module, "vs")


@pytest.fixture(scope="module")
def nominal_bsim(technology_module):
    return NominalDeviceFactory(technology_module, "bsim")


class TestInverter:
    def test_nominal_delay_40nm_class(self, nominal_vs):
        d = inverter_delays(nominal_vs, InverterSpec(600.0, 300.0), VDD)
        tphl = float(d["tphl"].delay)
        tplh = float(d["tplh"].delay)
        # Paper Fig. 5: FO3 delays in the 4-9 ps decade.
        assert 1e-12 < tphl < 20e-12
        assert 1e-12 < tplh < 20e-12

    def test_bigger_cell_similar_delay(self, nominal_vs):
        # FO3 loading scales with the cell: delay roughly size-independent.
        d1 = inverter_delays(nominal_vs, InverterSpec(300.0, 150.0), VDD)
        d4 = inverter_delays(nominal_vs, InverterSpec(1200.0, 600.0), VDD)
        assert float(d4["tphl"].delay) == pytest.approx(
            float(d1["tphl"].delay), rel=0.5
        )

    def test_vs_and_bsim_delays_close(self, nominal_vs, nominal_bsim):
        dv = inverter_delays(nominal_vs, InverterSpec(600.0, 300.0), VDD)
        db = inverter_delays(nominal_bsim, InverterSpec(600.0, 300.0), VDD)
        assert float(dv["tphl"].delay) == pytest.approx(
            float(db["tphl"].delay), rel=0.25
        )

    def test_monte_carlo_delay_spread(self, technology_module):
        mc = MonteCarloDeviceFactory(technology_module, 60, model="vs", seed=5)
        d = inverter_delays(mc, InverterSpec(300.0, 150.0), VDD)
        delays = d["tphl"].delay
        assert delays.shape == (60,)
        assert np.all(np.isfinite(delays))
        rel_spread = np.std(delays, ddof=1) / np.mean(delays)
        assert 0.01 < rel_spread < 0.3


class TestNand2:
    def test_delay_grows_as_vdd_drops(self, nominal_vs):
        delays = []
        for vdd in (0.9, 0.7, 0.55):
            d = nand2_delays(nominal_vs, Nand2Spec(), vdd)
            delays.append(float(d["tphl"].delay))
        assert delays[0] < delays[1] < delays[2]
        # Fig. 7: roughly 3-4x slower at 0.55 V than at 0.9 V.
        assert delays[2] / delays[0] > 2.0

    @pytest.mark.parametrize("kind", ["mc16", "nominal"])
    @pytest.mark.parametrize("vdd", [0.9, 0.7, 0.55])
    @pytest.mark.parametrize("model", ["vs", "bsim"])
    def test_tphl_works_stop_early_with_full_window_delays(
            self, technology_module, monkeypatch, model, vdd, kind):
        # fig7's and SSTA's works stop the transient once every sample's
        # tpHL is settled; the delays equal the full window's bit for bit.
        def fresh_factory():
            if kind == "mc16":
                return MonteCarloDeviceFactory(technology_module, 16,
                                               model=model, seed=61)
            return NominalDeviceFactory(technology_module, model)

        points = []
        run_transient = nand_module.transient

        def counting_transient(*args, **kwargs):
            result = run_transient(*args, **kwargs)
            points.append(result.times.size)
            return result

        monkeypatch.setattr(nand_module, "transient", counting_transient)
        full = nand2_delays(fresh_factory(), Nand2Spec(), vdd)["tphl"].delay
        for work in (Nand2DelayWork(Nand2Spec(), vdd),
                     ArcDelayWork(Nand2Spec(), vdd)):
            payload = work(fresh_factory())
            assert payload.shape == full.shape
            assert payload.tobytes() == full.tobytes()
        assert np.isfinite(full).all()
        assert points[1] == points[2] < points[0]

    @pytest.mark.parametrize("arcs", [("tphl", "tpxx"), (), "tphl"])
    def test_rejects_unknown_arcs(self, nominal_vs, arcs):
        with pytest.raises(ValueError, match="arcs"):
            nand2_delays(nominal_vs, Nand2Spec(), VDD, arcs=arcs)

    def test_returns_the_requested_arcs(self, nominal_vs):
        both = nand2_delays(nominal_vs, Nand2Spec(), VDD)
        assert list(both) == ["tphl", "tplh"]
        tplh = nand2_delays(nominal_vs, Nand2Spec(), VDD, arcs=("tplh",))
        assert list(tplh) == ["tplh"]
        assert (tplh["tplh"].delay.tobytes()
                == both["tplh"].delay.tobytes())


class TestDFF:
    def test_nominal_setup_time_positive(self, nominal_vs):
        setup = dff_setup_time(nominal_vs, DFFSpec(), VDD, n_iterations=6)
        assert 1e-12 < float(setup) < 60e-12

    def test_nominal_hold_time_bracketed(self, nominal_vs):
        hold = dff_hold_time(nominal_vs, DFFSpec(), VDD, n_iterations=6)
        # Hold boundary lies inside the bisection window and is shorter
        # than the whole clock edge by construction.
        assert -30e-12 < float(hold) < 40e-12

    def test_setup_plus_hold_window_positive(self, nominal_vs):
        setup = dff_setup_time(nominal_vs, DFFSpec(), VDD, n_iterations=6)
        hold = dff_hold_time(nominal_vs, DFFSpec(), VDD, n_iterations=6)
        # The data-stability window (Eq. 11-12 context) must be nonempty.
        assert float(setup) + float(hold) > 0.0

    def test_mc_setup_spread(self, technology_module):
        mc = MonteCarloDeviceFactory(technology_module, 16, model="vs", seed=9)
        setup = dff_setup_time(mc, DFFSpec(), VDD, n_iterations=6)
        assert setup.shape == (16,)
        finite = np.isfinite(setup)
        assert finite.sum() >= 14  # allow a stray bracket failure
        assert np.std(setup[finite], ddof=1) > 0.0


class TestSRAM:
    def test_butterfly_shapes(self, nominal_vs):
        sweep, a, b = butterfly_curves(nominal_vs, SRAMSpec(), VDD, "hold",
                                       n_points=41)
        assert sweep.shape == (41,)
        assert a.shape[0] == 41
        # Transfer curves fall from ~Vdd to ~0.
        assert a[0] > 0.8 * VDD
        assert a[-1] < 0.2 * VDD

    def test_read_snm_lower_than_hold(self, nominal_vs):
        read = float(sram_snm(nominal_vs, SRAMSpec(), VDD, "read"))
        hold = float(sram_snm(nominal_vs, SRAMSpec(), VDD, "hold"))
        assert 0.02 < read < hold < 0.45

    def test_hold_snm_40nm_class(self, nominal_vs):
        hold = float(sram_snm(nominal_vs, SRAMSpec(), VDD, "hold"))
        # Paper Fig. 9e: HOLD SNM around 0.26-0.36 V.
        assert 0.2 < hold < 0.45

    def test_vs_and_bsim_snm_close(self, nominal_vs, nominal_bsim):
        for mode in ("read", "hold"):
            v = float(sram_snm(nominal_vs, SRAMSpec(), VDD, mode))
            b = float(sram_snm(nominal_bsim, SRAMSpec(), VDD, mode))
            assert v == pytest.approx(b, abs=0.03)

    def test_mc_snm_spread(self, technology_module):
        mc = MonteCarloDeviceFactory(technology_module, 80, model="vs", seed=11)
        snm = sram_snm(mc, SRAMSpec(), VDD, "read")
        assert snm.shape == (80,)
        assert np.std(snm, ddof=1) > 0.003  # read SNM is variation-sensitive

    def test_mode_validation(self, nominal_vs):
        with pytest.raises(ValueError):
            butterfly_curves(nominal_vs, SRAMSpec(), VDD, "write")


class TestFactories:
    def test_nominal_factory_model_validation(self, technology_module):
        with pytest.raises(ValueError):
            NominalDeviceFactory(technology_module, "psp")

    def test_mc_factory_batch_shape(self, technology_module):
        mc = MonteCarloDeviceFactory(technology_module, 12, model="bsim", seed=1)
        assert mc.batch_shape == (12,)
        device = mc("nmos", 300.0, 40.0)
        assert np.asarray(device.params.vth0).shape == (12,)

    def test_mc_factory_instances_independent(self, technology_module):
        mc = MonteCarloDeviceFactory(technology_module, 30, model="vs", seed=2)
        d1 = mc("nmos", 300.0, 40.0)
        d2 = mc("nmos", 300.0, 40.0)
        assert not np.allclose(
            np.asarray(d1.params.vt0), np.asarray(d2.params.vt0)
        )
