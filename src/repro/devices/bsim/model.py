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

Terminal charges: a linear channel-charge profile from ``Qch`` at the
source to ``Qch (1 - Vdseff/Vdsat)`` at the drain, Ward–Dutton
partitioned by :func:`repro.devices.base.ward_dutton`, plus overlaps.

This is intentionally a *different* model family from the VS device — the
paper's experiment is precisely that the statistical VS model reproduces
the statistics of a golden model with different internals.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_voltage, T_NOMINAL
from repro.devices.base import DeviceModel, sigmoid, softplus, ward_dutton
from repro.devices.bsim.params import BSIMParams


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
    def _dibl(self):
        """Length-scaled DIBL coefficient [V/V]."""
        p = self.params
        return np.asarray(p.dibl, dtype=float) * (
            np.asarray(p.l_dibl_nm, dtype=float)
            / np.asarray(p.l_nm, dtype=float)
        )

    def threshold_voltage(self, vds):
        """Short-channel threshold: roll-off plus DIBL."""
        p = self.params
        l_nm = np.asarray(p.l_nm, dtype=float)
        rolloff = np.asarray(p.dvt_rolloff, dtype=float) * np.exp(
            -l_nm / np.asarray(p.l_rolloff_nm, dtype=float)
        )
        return (
            np.asarray(p.vth0, dtype=float)
            - rolloff
            - self._dibl() * np.asarray(vds, dtype=float)
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

    def _core_normalized(self, vgs, vds):
        """Single evaluation of ``(qch, ueff, esat_l, vdsat, vdseff, aux)``.

        The one place the transport-chain arithmetic lives: the public
        piecewise methods above return slices of it, the hot-loop
        I-V/C-V hooks pay for the chain exactly once per bias point, and
        :meth:`_core_grad_normalized` finishes it.  ``aux = (x, vq, vq2,
        mob_den, ratio, rm)`` holds the intermediates the gradient core
        needs.
        """
        p = self.params
        n = np.asarray(p.nfactor, dtype=float)
        vth = self.threshold_voltage(vds)
        x = (np.asarray(vgs, dtype=float) - vth) / (n * self.phit)
        qch = p.cox_si * n * self.phit * softplus(x)
        vq = qch / p.cox_si
        mob_den = 1.0 + np.asarray(p.theta_mob, dtype=float) * vq
        ueff = p.u0_si / mob_den
        vq2 = np.sqrt(vq**2 + (2.0 * n * self.phit) ** 2)
        esat_l = 2.0 * p.vsat_si / ueff * p.l_si
        vdsat = esat_l * vq2 / (esat_l + vq2)
        m = np.asarray(p.mexp, dtype=float)
        vds = np.asarray(vds, dtype=float)
        ratio = vds / vdsat
        rm = np.power(ratio, m)
        vdseff = vds / np.power(1.0 + rm, 1.0 / m)
        return qch, ueff, esat_l, vdsat, vdseff, (x, vq, vq2, mob_den, ratio, rm)

    def _core_grad_normalized(self, vgs, vds):
        """The value core plus closed-form bias gradients.

        Returns ``(core, d)``: the :meth:`_core_normalized` tuple itself
        — so the analytic path's values are the value path's by
        construction — and a dict of ``(d/dvgs, d/dvds)`` pairs for
        every chain quantity.
        """
        core = self._core_normalized(vgs, vds)
        _, ueff, esat_l, _, _, (x, vq, vq2, mob_den, ratio, rm) = core
        p = self.params
        cox = p.cox_si
        theta = np.asarray(p.theta_mob, dtype=float)
        m = np.asarray(p.mexp, dtype=float)

        # dx: vth depends on vds through DIBL only.
        sig = sigmoid(x)
        dqch_g = cox * sig
        dqch_d = cox * sig * self._dibl()

        dvq_g = dqch_g / cox
        dvq_d = dqch_d / cox
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
        return core, d

    # ------------------------------------------------------------------
    # DeviceModel hooks: one I-V finish and one charge finish, each
    # shared by the value and the gradient hook.
    # ------------------------------------------------------------------
    def _ids_from_core(self, vds, core):
        """Drift current with velocity saturation and CLM (step 5).

        Returns ``(ids, sat_den, clm)`` — the current and the two
        factors its gradient reuses.
        """
        p = self.params
        qch, ueff, esat_l, _, vdseff = core[:5]
        sat_den = 1.0 + vdseff / esat_l
        clm = 1.0 + np.asarray(p.pclm, dtype=float) * (
            np.asarray(vds, dtype=float) - vdseff
        )
        ids = (p.w_si / p.l_si) * ueff * qch * vdseff / sat_den
        return ids * clm, sat_den, clm

    def _ids_normalized(self, vgs, vds):
        return self._ids_from_core(vds, self._core_normalized(vgs, vds))[0]

    def _ids_grad_normalized(self, vgs, vds, core):
        value, d = core
        ids, sat_den, clm = self._ids_from_core(vds, value)
        qch, ueff, esat_l, _, vdseff = value[:5]
        (dqch_g, dqch_d) = d["qch"]
        (dueff_g, dueff_d) = d["ueff"]
        (desat_g, desat_d) = d["esat_l"]
        (dvdseff_g, dvdseff_d) = d["vdseff"]

        p = self.params
        scale = p.w_si / p.l_si
        f = vdseff / sat_den
        ids0 = scale * ueff * qch * f
        # df = dvdseff/sat_den^2 + (vdseff/(esat_l*sat_den))^2 * desat.
        inv_den2 = 1.0 / sat_den**2
        fe = (vdseff / (esat_l * sat_den)) ** 2
        df_g = inv_den2 * dvdseff_g + fe * desat_g
        df_d = inv_den2 * dvdseff_d + fe * desat_d

        dids0_g = scale * (dueff_g * qch * f + ueff * dqch_g * f + ueff * qch * df_g)
        dids0_d = scale * (dueff_d * qch * f + ueff * dqch_d * f + ueff * qch * df_d)
        pclm = np.asarray(p.pclm, dtype=float)
        dclm_g = -pclm * dvdseff_g
        dclm_d = pclm * (1.0 - dvdseff_d)
        dig = dids0_g * clm + ids0 * dclm_g
        did = dids0_d * clm + ids0 * dclm_d
        return ids, dig, did

    def _charges_from_core(self, vgs, vds, core, d=None):
        """Ward–Dutton charges of the ``Qch -> Qch (1 - Vdseff/Vdsat)``
        profile; with the gradient dict *d* also their bias gradients."""
        p = self.params
        qch_s, _, _, vdsat, vdseff = core[:5]
        # Drain-end charge reduced by the local overdrive drop.
        raw = vdseff / vdsat
        frac = np.clip(raw, 0.0, 1.0)
        args = (vgs, vds, p.w_si * p.l_si,
                np.asarray(p.cgdo_f_m, dtype=float) * p.w_si,
                np.asarray(p.cgso_f_m, dtype=float) * p.w_si, qch_s, frac)
        if d is None:
            return ward_dutton(*args)
        # The clip only binds at the boundary (0 <= vdseff/vdsat < 1 by
        # construction); where it does, the derivative is zero.
        active = (raw > 0.0) & (raw < 1.0)
        dfrac = tuple(
            np.where(active, (dv_eff * vdsat - vdseff * dv_sat) / vdsat**2,
                     0.0)
            for dv_eff, dv_sat in zip(d["vdseff"], d["vdsat"])
        )
        return ward_dutton(*args, d["qch"], dfrac)

    def _charges_normalized(self, vgs, vds):
        return self._charges_from_core(
            vgs, vds, self._core_normalized(vgs, vds)
        )

    def _charges_grad_normalized(self, vgs, vds, core):
        return self._charges_from_core(vgs, vds, *core)

    def _ids_and_charges_normalized(self, vgs, vds):
        core = self._core_normalized(vgs, vds)
        return (self._ids_from_core(vds, core)[0],
                self._charges_from_core(vgs, vds, core))

    def with_params(self, params: BSIMParams) -> "BSIMDevice":
        """New device sharing temperature/derivative mode, new card."""
        return BSIMDevice(params, self.temperature, self.derivatives)
