"""Virtual Source model: physics invariants of Eq. 2-4."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import PHI_T_NOMINAL
from repro.data.cards import vs_nmos_40nm, vs_pmos_40nm
from repro.devices.base import Polarity
from repro.devices.vs.model import VSDevice
from repro.devices.vs.params import VSParams

VDD = 0.9


@pytest.fixture()
def nmos() -> VSDevice:
    return VSDevice(vs_nmos_40nm(300.0, 40.0))


@pytest.fixture()
def pmos() -> VSDevice:
    return VSDevice(vs_pmos_40nm(300.0, 40.0))


class TestThresholdAndDIBL:
    def test_dibl_lowers_threshold(self, nmos):
        vt_low = nmos.threshold_voltage(0.0)
        vt_high = nmos.threshold_voltage(VDD)
        assert vt_high < vt_low

    def test_dibl_shift_matches_coefficient(self, nmos):
        delta = nmos.params.dibl()
        shift = nmos.threshold_voltage(0.0) - nmos.threshold_voltage(VDD)
        assert shift == pytest.approx(float(delta) * VDD)

    def test_dibl_grows_for_short_channels(self):
        card = vs_nmos_40nm()
        assert float(card.dibl(30.0)) > float(card.dibl(40.0)) > float(card.dibl(60.0))

    def test_dibl_at_reference_length(self):
        card = vs_nmos_40nm()
        assert float(card.dibl(float(np.asarray(card.l_ref_nm)))) == pytest.approx(
            float(np.asarray(card.delta0))
        )


class TestInversionCharge:
    def test_strong_inversion_linear_in_overdrive(self, nmos):
        # Deep strong inversion: Qixo ~ Cinv * (Vgs - VT).
        q1 = float(nmos.inversion_charge_density(0.9, 0.0))
        vt = float(nmos.threshold_voltage(0.0))
        cinv = float(np.asarray(nmos.params.cinv_si))
        # alpha-smoothing shifts the effective threshold; allow 15 %.
        assert q1 == pytest.approx(cinv * (0.9 - vt), rel=0.15)

    def test_subthreshold_exponential_slope(self, nmos):
        # One phit*n*ln(10) of gate drive = one decade of charge.  Probe
        # deep in weak inversion where the Fermi smoothing is saturated.
        n0 = float(np.asarray(nmos.params.n0))
        vg = -0.1
        q1 = float(nmos.inversion_charge_density(vg, 0.05))
        q2 = float(
            nmos.inversion_charge_density(vg + n0 * PHI_T_NOMINAL * np.log(10.0), 0.05)
        )
        assert q2 / q1 == pytest.approx(10.0, rel=0.1)

    def test_charge_positive_everywhere(self, nmos):
        vg = np.linspace(-0.3, 1.2, 40)
        q = nmos.inversion_charge_density(vg, 0.45)
        assert np.all(q > 0.0)

    def test_charge_monotone_in_vgs(self, nmos):
        vg = np.linspace(-0.2, 1.0, 60)
        q = nmos.inversion_charge_density(vg, VDD)
        assert np.all(np.diff(q) > 0.0)


class TestSaturationFunction:
    def test_fs_limits(self, nmos):
        fs_small = float(nmos.saturation_function(VDD, 1e-4))
        fs_large = float(nmos.saturation_function(VDD, 5.0))
        assert fs_small < 0.01
        assert fs_large > 0.95

    def test_fs_monotone_in_vds(self, nmos):
        vds = np.linspace(1e-3, 1.5, 100)
        fs = nmos.saturation_function(VDD, vds)
        assert np.all(np.diff(fs) > 0.0)

    def test_fs_bounded(self, nmos):
        vds = np.linspace(0.0, 3.0, 50)
        fs = nmos.saturation_function(VDD, vds)
        assert np.all((fs >= 0.0) & (fs < 1.0))

    def test_vdsat_blends_to_thermal_in_subthreshold(self, nmos):
        vdsat_sub = float(nmos.saturation_voltage(0.0, 0.05))
        assert vdsat_sub == pytest.approx(PHI_T_NOMINAL, rel=0.2)

    def test_vdsat_strong_inversion_velocity_saturation(self, nmos):
        p = nmos.params
        expected = float(np.asarray(p.vxo_si * p.l_si / p.mu_si))
        vdsat = float(nmos.saturation_voltage(1.2, VDD))
        assert vdsat == pytest.approx(expected, rel=0.1)


class TestCurrent:
    def test_current_zero_at_vds_zero(self, nmos):
        assert float(nmos.ids(VDD, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_current_scales_with_width(self):
        d1 = VSDevice(vs_nmos_40nm(300.0, 40.0))
        d2 = VSDevice(vs_nmos_40nm(600.0, 40.0))
        i1 = float(d1.ids(VDD, VDD, 0.0))
        i2 = float(d2.ids(VDD, VDD, 0.0))
        assert i2 == pytest.approx(2.0 * i1, rel=1e-9)

    def test_on_current_magnitude_40nm_class(self, nmos):
        # 40-nm NMOS drives a few hundred uA/um at 0.9 V.
        ion_ua_um = float(nmos.ids(VDD, VDD, 0.0)) * 1e6 / 0.3
        assert 300.0 < ion_ua_um < 2000.0

    def test_ion_ioff_ratio(self, nmos):
        ion = float(nmos.idsat(VDD))
        ioff = float(nmos.ioff(VDD))
        assert ion / ioff > 1e3

    def test_source_drain_symmetry(self, nmos):
        # Exchanging the drain and source node voltages negates the current.
        i_fwd = float(nmos.ids(0.7, 0.5, 0.1))
        i_rev = float(nmos.ids(0.7, 0.1, 0.5))
        assert i_fwd > 0.0
        assert i_rev == pytest.approx(-i_fwd, rel=1e-9)

    def test_current_continuous_at_vds_zero(self, nmos):
        eps = 1e-7
        i_plus = float(nmos.ids(VDD, eps, 0.0))
        i_minus = float(nmos.ids(VDD, -eps, 0.0))
        assert i_plus == pytest.approx(-i_minus, rel=1e-3)
        assert abs(i_plus) < 1e-6

    def test_gm_positive_in_saturation(self, nmos):
        _, gm, gds, _ = nmos.ids_and_derivatives(0.7, VDD, 0.0)
        assert float(gm) > 0.0
        assert float(gds) > 0.0

    def test_pmos_mirror(self, pmos):
        # PMOS with |Vgs|=|Vds|=Vdd conducts with negative drain current.
        i = float(pmos.ids(0.0, 0.0, VDD))
        assert i < 0.0

    def test_pmos_off(self, pmos):
        i = float(pmos.ids(VDD, 0.0, VDD))
        assert abs(i) < 1e-6


class TestCharges:
    def test_charge_conservation(self, nmos):
        qg, qd, qs = nmos.charges(0.8, 0.4, 0.0)
        assert float(qg + qd + qs) == pytest.approx(0.0, abs=1e-22)

    def test_gate_charge_increases_with_vg(self, nmos):
        qg1 = float(nmos.charges(0.3, VDD, 0.0)[0])
        qg2 = float(nmos.charges(0.9, VDD, 0.0)[0])
        assert qg2 > qg1

    def test_cgg_positive(self, nmos):
        assert float(nmos.cgg(VDD, 0.0, 0.0)) > 0.0

    def test_cgg_approaches_full_gate_cap_in_inversion(self, nmos):
        p = nmos.params
        c_ox = float(np.asarray(p.cinv_si * p.w_si * p.l_si))
        c_ov = float(np.asarray((p.cgdo_f_m + p.cgso_f_m) * p.w_si))
        cgg = float(nmos.cgg(1.2, 0.0, 0.0))
        assert cgg == pytest.approx(c_ox + c_ov, rel=0.1)

    def test_symmetric_partition_at_vds_zero(self, nmos):
        _, qd, qs = nmos.charges(VDD, 0.0, 0.0)
        assert float(qd) == pytest.approx(float(qs), rel=1e-6)

    def test_saturation_partition_favors_source(self, nmos):
        # Pinched-off drain end holds less channel charge.
        _, qd, qs = nmos.charges(VDD, VDD, 0.0)
        p = nmos.params
        # Remove overlap contributions to compare channel-only partition.
        q_ov_d = -float(np.asarray(p.cgdo_f_m * p.w_si)) * (VDD - VDD)
        q_ov_s = -float(np.asarray(p.cgso_f_m * p.w_si)) * VDD
        qd_ch = float(qd) - q_ov_d
        qs_ch = float(qs) - q_ov_s
        assert abs(qd_ch) < abs(qs_ch)


class TestValidation:
    def test_rejects_negative_geometry(self):
        with pytest.raises(ValueError):
            VSDevice(vs_nmos_40nm().replace(w_nm=-1.0))

    def test_rejects_subunity_swing_factor(self):
        with pytest.raises(ValueError):
            VSDevice(vs_nmos_40nm().replace(n0=0.8))

    def test_batch_shape_detection(self):
        card = vs_nmos_40nm().replace(vt0=np.zeros(17) + 0.42)
        assert card.batch_shape == (17,)

    def test_batched_evaluation_matches_scalar(self):
        vt0 = np.array([0.40, 0.42, 0.44])
        batched = VSDevice(vs_nmos_40nm().replace(vt0=vt0))
        i_batched = batched.ids(VDD, VDD, 0.0)
        for k, v in enumerate(vt0):
            scalar = VSDevice(vs_nmos_40nm().replace(vt0=float(v)))
            assert i_batched[k] == pytest.approx(float(scalar.ids(VDD, VDD, 0.0)))


class TestTemperature:
    def test_reference_temperature_is_identity(self):
        cold = VSDevice(vs_nmos_40nm(), temperature=300.15)
        base = VSDevice(vs_nmos_40nm())
        assert float(cold.idsat(VDD)) == pytest.approx(float(base.idsat(VDD)))

    def test_hot_device_drives_less_at_high_overdrive(self):
        # At large gate drive the mobility/velocity degradation dominates
        # the threshold drop; near Vdd = 0.9 V the device sits in the
        # temperature-inversion regime instead (checked below).
        hot = VSDevice(vs_nmos_40nm(), temperature=398.15)
        base = VSDevice(vs_nmos_40nm())
        assert float(hot.idsat(1.4)) < float(base.idsat(1.4))

    def test_temperature_inversion_at_low_vdd(self):
        # Low overdrive: the VT reduction wins and the hot device is
        # *stronger* — the classic low-Vdd temperature inversion.
        hot = VSDevice(vs_nmos_40nm(), temperature=398.15)
        base = VSDevice(vs_nmos_40nm())
        assert float(hot.idsat(0.6)) > float(base.idsat(0.6))

    def test_hot_device_leaks_more(self):
        hot = VSDevice(vs_nmos_40nm(), temperature=398.15)
        base = VSDevice(vs_nmos_40nm())
        # Lower VT and more thermal spread: decades more subthreshold leak.
        assert float(hot.ioff(VDD)) > 3.0 * float(base.ioff(VDD))

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            VSDevice(vs_nmos_40nm(), temperature=-10.0)

    @pytest.mark.parametrize("temperature", [300.15, 400.0])
    def test_with_params_reproduces_the_device(self, temperature):
        """Factories rebuild devices through ``with_params(d.params)``:
        the card is already scaled, so scaling it again must not move
        it (at 400 K it used to land 100 mV low in VT0)."""
        device = VSDevice(vs_nmos_40nm(), temperature=temperature)
        twin = device.with_params(device.params)
        for name in ("vt0", "mu_cm2", "vxo_cm_s", "t_ref_k"):
            assert np.asarray(getattr(twin.params, name)).tobytes() == (
                np.asarray(getattr(device.params, name)).tobytes()
            ), name
        bias = (np.array([0.0, 0.45, 0.9]), 0.9, 0.0)
        assert twin.ids(*bias).tobytes() == device.ids(*bias).tobytes()
        for a, b in zip(twin.charges(*bias), device.charges(*bias)):
            assert a.tobytes() == b.tobytes()

    def test_scaled_card_records_its_temperature(self):
        hot = VSDevice(vs_nmos_40nm(), temperature=400.0)
        assert float(np.asarray(hot.params.t_ref_k)) == 400.0
        # Re-referencing composes: 400 K -> 300.15 K recovers the card.
        back = VSDevice(hot.params, temperature=300.15)
        nominal = vs_nmos_40nm()
        for name in ("vt0", "mu_cm2", "vxo_cm_s"):
            assert float(np.asarray(getattr(back.params, name))) == (
                pytest.approx(float(np.asarray(getattr(nominal, name))),
                              rel=1e-12)
            ), name


class TestPropertyBased:
    @given(
        vg=st.floats(-0.2, 1.1),
        vd=st.floats(0.0, 1.1),
        vs=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_current_finite_everywhere(self, vg, vd, vs):
        device = VSDevice(vs_nmos_40nm())
        assert np.isfinite(float(device.ids(vg, vd, vs)))

    @given(vgs=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_current_nonnegative_for_positive_vds(self, vgs):
        device = VSDevice(vs_nmos_40nm())
        assert float(device.ids(vgs, 0.9, 0.0)) >= 0.0

    @given(
        vg=st.floats(0.0, 1.0),
        vd=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_charge_conservation_everywhere(self, vg, vd):
        device = VSDevice(vs_nmos_40nm())
        qg, qd, qs = device.charges(vg, vd, 0.0)
        total = float(qg) + float(qd) + float(qs)
        assert abs(total) < 1e-20
