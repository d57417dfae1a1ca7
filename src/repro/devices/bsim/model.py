"""BSIM4-lite I-V and C-V evaluation.

Transport chain (classic drift-diffusion + velocity saturation, the
physics family BSIM4 belongs to):

1. Threshold with short-channel corrections:
   ``Vth = Vth0 + dVt_rolloff * exp(-L / L_rolloff) - DIBL(L) * Vds``.
2. Channel charge with weak/strong-inversion smoothing:
   ``Qch = Cox n phit ln(1 + exp((Vgs - Vth)/(n phit)))``.
3. Vertical-field mobility degradation ``ueff = u0 / (1 + theta * Vq)``
   with ``Vq = Qch / Cox``.
4. Saturation voltage blending the velocity-saturation value with the
   thermal (diffusion) floor: ``Vdsat = Esat L * Vq2 / (Esat L + Vq2)``
   where ``Vq2 = sqrt(Vq^2 + (2 n phit)^2)`` keeps the correct
   exponential subthreshold slope.
5. Smooth ``Vdseff`` and drift current with channel-length modulation:
   ``Id = (W/L) ueff Qch Vdseff / (1 + Vdseff/(Esat L)) * (1 + pclm (Vds - Vdseff))``.

This is intentionally a *different* model family from the VS device — the
paper's experiment is precisely that the statistical VS model reproduces
the statistics of a golden model with different internals.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_voltage, T_NOMINAL
from repro.devices.base import DeviceModel
from repro.devices.bsim.params import BSIMParams


def _softplus(x):
    """Numerically safe ``ln(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    """Numerically safe logistic ``1 / (1 + exp(-x))`` (softplus')."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class BSIMDevice(DeviceModel):
    """A MOSFET instance evaluated with the BSIM4-lite model."""

    def __init__(
        self,
        params: BSIMParams,
        temperature: float = T_NOMINAL,
        derivatives: str = "analytic",
    ):
        super().__init__(params.polarity, derivatives)
        params.validate()
        self.params = params
        self.temperature = temperature
        self.phit = thermal_voltage(temperature)

    # ------------------------------------------------------------------
    def threshold_voltage(self, vds):
        """Short-channel threshold: roll-off plus DIBL."""
        p = self.params
        l_nm = np.asarray(p.l_nm, dtype=float)
        rolloff = np.asarray(p.dvt_rolloff, dtype=float) * np.exp(
            -l_nm / np.asarray(p.l_rolloff_nm, dtype=float)
        )
        dibl = np.asarray(p.dibl, dtype=float) * (
            np.asarray(p.l_dibl_nm, dtype=float) / l_nm
        )
        return (
            np.asarray(p.vth0, dtype=float)
            - rolloff
            - dibl * np.asarray(vds, dtype=float)
        )

    def channel_charge(self, vgs, vds):
        """Smoothed channel charge density [C/m^2]."""
        return self._core_normalized(vgs, vds)[0]

    def effective_mobility(self, vgs, vds):
        """Vertical-field degraded mobility [m^2/(V s)]."""
        return self._core_normalized(vgs, vds)[1]

    def saturation_voltage(self, vgs, vds):
        """Saturation voltage with thermal floor [V]."""
        return self._core_normalized(vgs, vds)[3]

    def _vdseff(self, vgs, vds):
        return self._core_normalized(vgs, vds)[4]

    def _core_normalized(self, vgs, vds):
        """Single evaluation of ``(qch, ueff, esat_l, vdsat, vdseff)``.

        The one place the transport-chain arithmetic lives: the public
        piecewise methods above return slices of it, and the hot-loop
        I-V/C-V hooks pay for the chain exactly once per bias point
        instead of recomputing the channel charge three times.
        """
        p = self.params
        n = np.asarray(p.nfactor, dtype=float)
        vth = self.threshold_voltage(vds)
        x = (np.asarray(vgs, dtype=float) - vth) / (n * self.phit)
        qch = p.cox_si * n * self.phit * _softplus(x)
        vq = qch / p.cox_si
        ueff = p.u0_si / (1.0 + np.asarray(p.theta_mob, dtype=float) * vq)
        vq2 = np.sqrt(vq**2 + (2.0 * n * self.phit) ** 2)
        esat_l = 2.0 * p.vsat_si / ueff * p.l_si
        vdsat = esat_l * vq2 / (esat_l + vq2)
        m = np.asarray(p.mexp, dtype=float)
        vds = np.asarray(vds, dtype=float)
        ratio = vds / vdsat
        vdseff = vds / np.power(1.0 + np.power(ratio, m), 1.0 / m)
        return qch, ueff, esat_l, vdsat, vdseff

    def _core_grad_normalized(self, vgs, vds):
        """Transport chain with closed-form bias gradients.

        Returns ``(qch, ueff, esat_l, vdsat, vdseff, d)`` where ``d`` is
        a dict of ``(d/dvgs, d/dvds)`` pairs for every chain quantity.
        Value arithmetic repeats :meth:`_core_normalized` operation for
        operation so residuals stay bitwise identical to the
        finite-difference path.
        """
        p = self.params
        n = np.asarray(p.nfactor, dtype=float)
        l_nm = np.asarray(p.l_nm, dtype=float)
        dibl = np.asarray(p.dibl, dtype=float) * (
            np.asarray(p.l_dibl_nm, dtype=float) / l_nm
        )
        vth = self.threshold_voltage(vds)
        nphit = n * self.phit
        x = (np.asarray(vgs, dtype=float) - vth) / nphit
        qch = p.cox_si * nphit * _softplus(x)
        vq = qch / p.cox_si
        theta = np.asarray(p.theta_mob, dtype=float)
        ueff = p.u0_si / (1.0 + theta * vq)
        vq2 = np.sqrt(vq**2 + (2.0 * nphit) ** 2)
        esat_l = 2.0 * p.vsat_si / ueff * p.l_si
        vdsat = esat_l * vq2 / (esat_l + vq2)
        m = np.asarray(p.mexp, dtype=float)
        vds = np.asarray(vds, dtype=float)
        ratio = vds / vdsat
        rm = np.power(ratio, m)
        vdseff = vds / np.power(1.0 + rm, 1.0 / m)

        # dx: vth depends on vds through DIBL only.
        sig = _sigmoid(x)
        dqch_g = p.cox_si * sig
        dqch_d = p.cox_si * sig * dibl

        dvq_g = dqch_g / p.cox_si
        dvq_d = dqch_d / p.cox_si
        mob_den = 1.0 + theta * vq
        dueff_g = -ueff * theta * dvq_g / mob_den
        dueff_d = -ueff * theta * dvq_d / mob_den

        dvq2_g = (vq / vq2) * dvq_g
        dvq2_d = (vq / vq2) * dvq_d
        desat_g = -esat_l * dueff_g / ueff
        desat_d = -esat_l * dueff_d / ueff

        # Parallel-combination rule for vdsat = esat_l || vq2.
        den = esat_l + vq2
        wv = (vq2 / den) ** 2
        we = (esat_l / den) ** 2
        dvdsat_g = wv * desat_g + we * dvq2_g
        dvdsat_d = wv * desat_d + we * dvq2_d

        # vdseff = vds * (1 + r^m)^(-1/m): the direct-vds factor
        # simplifies to (1 + r^m)^-(1 + 1/m) (r^(m-1) cancels), and the
        # vdsat factor to r^(m+1) times the same power.
        g1 = np.power(1.0 + rm, -(1.0 + 1.0 / m))
        g2 = np.power(ratio, m + 1.0) * g1
        dvdseff_g = g2 * dvdsat_g
        dvdseff_d = g1 + g2 * dvdsat_d

        d = {
            "qch": (dqch_g, dqch_d),
            "ueff": (dueff_g, dueff_d),
            "esat_l": (desat_g, desat_d),
            "vdsat": (dvdsat_g, dvdsat_d),
            "vdseff": (dvdseff_g, dvdseff_d),
        }
        return qch, ueff, esat_l, vdsat, vdseff, d

    # ------------------------------------------------------------------
    def _ids_normalized(self, vgs, vds):
        p = self.params
        qch, ueff, esat_l, _, vdseff = self._core_normalized(vgs, vds)
        ids = (
            (p.w_si / p.l_si)
            * ueff
            * qch
            * vdseff
            / (1.0 + vdseff / esat_l)
        )
        clm = 1.0 + np.asarray(p.pclm, dtype=float) * (
            np.asarray(vds, dtype=float) - vdseff
        )
        return ids * clm

    def _ids_grad_normalized(self, vgs, vds, core):
        p = self.params
        qch, ueff, esat_l, _, vdseff, d = core
        (dqch_g, dqch_d) = d["qch"]
        (dueff_g, dueff_d) = d["ueff"]
        (desat_g, desat_d) = d["esat_l"]
        (dvdseff_g, dvdseff_d) = d["vdseff"]

        sat_den = 1.0 + vdseff / esat_l
        f = vdseff / sat_den
        ids0 = (p.w_si / p.l_si) * ueff * qch * f
        pclm = np.asarray(p.pclm, dtype=float)
        vds = np.asarray(vds, dtype=float)
        clm = 1.0 + pclm * (vds - vdseff)
        ids = (
            (p.w_si / p.l_si) * ueff * qch * vdseff / sat_den
        ) * clm

        # df = dvdseff/sat_den^2 + (vdseff/(esat_l*sat_den))^2 * desat.
        inv_den2 = 1.0 / sat_den**2
        fe = (vdseff / (esat_l * sat_den)) ** 2
        df_g = inv_den2 * dvdseff_g + fe * desat_g
        df_d = inv_den2 * dvdseff_d + fe * desat_d

        scale = p.w_si / p.l_si
        dids0_g = scale * (dueff_g * qch * f + ueff * dqch_g * f + ueff * qch * df_g)
        dids0_d = scale * (dueff_d * qch * f + ueff * dqch_d * f + ueff * qch * df_d)
        dclm_g = -pclm * dvdseff_g
        dclm_d = pclm * (1.0 - dvdseff_d)
        dig = dids0_g * clm + ids0 * dclm_g
        did = dids0_d * clm + ids0 * dclm_d
        return ids, dig, did

    def _charges_normalized(self, vgs, vds):
        p = self.params
        area = p.w_si * p.l_si
        qch_s, _, _, vdsat, vdseff = self._core_normalized(vgs, vds)
        # Drain-end charge reduced by the local overdrive drop.
        frac = np.clip(vdseff / vdsat, 0.0, 1.0)
        qch_d = qch_s * (1.0 - frac)

        q_drain = area * (qch_s / 6.0 + qch_d / 3.0)
        q_source = area * (qch_s / 3.0 + qch_d / 6.0)
        q_gate = q_drain + q_source

        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        q_ov_d = np.asarray(p.cgdo_f_m, dtype=float) * p.w_si * (vgs - vds)
        q_ov_s = np.asarray(p.cgso_f_m, dtype=float) * p.w_si * vgs

        qg = q_gate + q_ov_d + q_ov_s
        qd = -q_drain - q_ov_d
        qs = -q_source - q_ov_s
        return qg, qd, qs

    def _charges_grad_normalized(self, vgs, vds, core):
        p = self.params
        area = p.w_si * p.l_si
        qch_s, _, _, vdsat, vdseff, d = core
        (dqch_g, dqch_d) = d["qch"]
        (dvdsat_g, dvdsat_d) = d["vdsat"]
        (dvdseff_g, dvdseff_d) = d["vdseff"]

        raw = vdseff / vdsat
        frac = np.clip(raw, 0.0, 1.0)
        # The clip only binds at the boundary (0 <= vdseff/vdsat < 1 by
        # construction); where it does, the derivative is zero.
        active = (raw > 0.0) & (raw < 1.0)
        dfrac_g = np.where(
            active, (dvdseff_g * vdsat - vdseff * dvdsat_g) / vdsat**2, 0.0
        )
        dfrac_d = np.where(
            active, (dvdseff_d * vdsat - vdseff * dvdsat_d) / vdsat**2, 0.0
        )
        qch_d_end = qch_s * (1.0 - frac)
        dqchd_g = dqch_g * (1.0 - frac) - qch_s * dfrac_g
        dqchd_d = dqch_d * (1.0 - frac) - qch_s * dfrac_d

        q_drain = area * (qch_s / 6.0 + qch_d_end / 3.0)
        q_source = area * (qch_s / 3.0 + qch_d_end / 6.0)
        q_gate = q_drain + q_source
        dq_drain_g = area * (dqch_g / 6.0 + dqchd_g / 3.0)
        dq_drain_d = area * (dqch_d / 6.0 + dqchd_d / 3.0)
        dq_source_g = area * (dqch_g / 3.0 + dqchd_g / 6.0)
        dq_source_d = area * (dqch_d / 3.0 + dqchd_d / 6.0)

        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        c_ov_d = np.asarray(p.cgdo_f_m, dtype=float) * p.w_si
        c_ov_s = np.asarray(p.cgso_f_m, dtype=float) * p.w_si
        q_ov_d = c_ov_d * (vgs - vds)
        q_ov_s = c_ov_s * vgs

        qg = q_gate + q_ov_d + q_ov_s
        qd = -q_drain - q_ov_d
        qs = -q_source - q_ov_s
        zero = np.zeros(np.broadcast(vgs, vds, qch_s).shape)
        grads = {
            "g": (dq_drain_g + dq_source_g + c_ov_d + c_ov_s + zero,
                  dq_drain_d + dq_source_d - c_ov_d + zero),
            "d": (-dq_drain_g - c_ov_d + zero, -dq_drain_d + c_ov_d + zero),
            "s": (-dq_source_g - c_ov_s + zero, -dq_source_d + zero),
        }
        return (qg, qd, qs), grads

    # ------------------------------------------------------------------
    def idsat(self, vdd):
        """On current ``Id(Vgs=Vds=Vdd)`` [A]."""
        return self.ids(vdd, vdd, 0.0)

    def ioff(self, vdd):
        """Off current ``Id(Vgs=0, Vds=Vdd)`` [A]."""
        return self.ids(0.0, vdd, 0.0)

    def with_params(self, params: BSIMParams) -> "BSIMDevice":
        """New device sharing temperature/derivative mode, new card."""
        return BSIMDevice(params, self.temperature, self.derivatives)
