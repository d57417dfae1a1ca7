"""Virtual Source I-V and C-V model (Eq. 2-4 of the paper).

The VS model computes the drain current as the product of the areal
inversion charge density at the virtual source, ``Qixo``, and the
virtual-source injection velocity ``vxo``, modulated by the saturation
function ``Fs``:

    Id = W * Fs * Qixo * vxo                                      (Eq. 2)

    Fs = (Vds/Vdsat) / (1 + (Vds/Vdsat)^beta)^(1/beta)            (Eq. 3)

    VT = VT0 - delta(Leff) * Vds                                  (Eq. 4)

``Qixo`` uses the standard charge-smoothing expression (continuous from
weak to strong inversion), and ``Vdsat`` blends the velocity-saturation
value ``vxo * Leff / mu`` in strong inversion with the thermal value
``phit`` in weak inversion via a Fermi transition function — the
formulation of the MVS 1.0.1 model [Khakifirooz 2009, Wei 2012].

The quasi-static terminal charges use a linear channel-charge profile
between the source-end density ``Qixo`` and a drain-end density
``Qixd = Qixo * (1 - Fs)`` (uniform channel at Vds=0, pinched off in deep
saturation), Ward–Dutton partitioned; overlap/fringe capacitance is added
as bias-independent per-width charge.  Charge is conserved by construction
(``qg + qd + qs = 0``), which the transient engine relies on.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_voltage, T_NOMINAL
from repro.devices.base import DeviceModel
from repro.devices.vs.params import VSParams


def _softplus(x):
    """Numerically safe ``ln(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def _fermi(x):
    """Numerically safe logistic ``1 / (1 + exp(x))``."""
    return 0.5 * (1.0 - np.tanh(0.5 * x))


def _apply_temperature(params: VSParams, temperature: float) -> VSParams:
    """Temperature-scale the card from its reference temperature.

    Standard compact-model laws: power-law mobility degradation (phonon
    scattering), a weaker power law on the injection velocity, and a
    linear threshold-voltage coefficient.  At ``T == t_ref_k`` the card
    is returned untouched.
    """
    t_ref = float(np.asarray(params.t_ref_k, dtype=float))
    if temperature == t_ref:
        return params
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    ratio = temperature / t_ref
    mu = np.asarray(params.mu_cm2, dtype=float) * ratio ** float(
        np.asarray(params.mu_temp_exp)
    )
    vxo = np.asarray(params.vxo_cm_s, dtype=float) * ratio ** float(
        np.asarray(params.vxo_temp_exp)
    )
    vt0 = np.asarray(params.vt0, dtype=float) + float(
        np.asarray(params.vt0_tc_v_k)
    ) * (temperature - t_ref)
    return params.replace(mu_cm2=mu, vxo_cm_s=vxo, vt0=vt0)


def _sigmoid(x):
    """Numerically safe logistic ``1 / (1 + exp(-x))`` (softplus')."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class VSDevice(DeviceModel):
    """A MOSFET instance evaluated with the Virtual Source model."""

    def __init__(
        self,
        params: VSParams,
        temperature: float = T_NOMINAL,
        derivatives: str = "analytic",
    ):
        super().__init__(params.polarity, derivatives)
        params.validate()
        self.params = _apply_temperature(params, temperature)
        self.temperature = temperature
        self.phit = thermal_voltage(temperature)

    # ------------------------------------------------------------------
    # Internal pieces, exposed for tests and for the sensitivity code.
    # ------------------------------------------------------------------
    def _consts(self):
        """Param-only subexpressions of the Eq. 2-4 chain, cached per card.

        Unit conversions, the DIBL exponential and the charge prefactors
        depend only on the parameter card, yet the straightforward
        implementation re-derived them at every bias point of every
        Newton iteration.  Each cached value is computed by exactly the
        expression it replaces (same operations, same grouping), so the
        evaluated bits are unchanged — only the redundant re-derivation
        goes away.  Keyed by card identity: stacked or ``replace``-d
        devices re-derive on first use.
        """
        cached = self.__dict__.get("_vs_consts")
        p = self.params
        if cached is not None and cached[0] is p:
            return cached[1]
        phit = self.phit
        n = np.asarray(p.n0, dtype=float)
        alpha_phit = np.asarray(p.alpha_sm, dtype=float) * phit
        beta = np.asarray(p.beta, dtype=float)
        w_si = p.w_si
        vxo_si = p.vxo_si
        vdsat_strong = vxo_si * p.l_si / p.mu_si
        consts = {
            "n": n,
            "alpha_phit": alpha_phit,
            "half_shift": alpha_phit / 2.0,
            "nphit": n * phit,
            "cq": p.cinv_si * n * phit,
            "cinv": p.cinv_si,
            "vt0": np.asarray(p.vt0, dtype=float),
            "delta": p.dibl(),
            "vdsat_strong": vdsat_strong,
            "phit_minus_vdsat": phit - vdsat_strong,
            "beta": beta,
            "inv_beta": 1.0 / beta,
            "neg_exp": -(1.0 + 1.0 / beta),
            "w_si": w_si,
            "vxo_si": vxo_si,
            "area": w_si * p.l_si,
            "c_ov_d": np.asarray(p.cgdo_f_m, dtype=float) * w_si,
            "c_ov_s": np.asarray(p.cgso_f_m, dtype=float) * w_si,
        }
        self.__dict__["_vs_consts"] = (p, consts)
        return consts

    def threshold_voltage(self, vds):
        """Bias-dependent threshold ``VT = VT0 - delta(Leff) Vds`` (Eq. 4)."""
        p = self.params
        return np.asarray(p.vt0, dtype=float) - p.dibl() * np.asarray(vds, dtype=float)

    def inversion_charge_density(self, vgs, vds):
        """Virtual-source inversion charge density ``Qixo`` [C/m^2]."""
        return self._core_normalized(vgs, vds)[0]

    def saturation_voltage(self, vgs, vds):
        """Blended saturation voltage ``Vdsat`` [V].

        Strong inversion: the velocity-saturation value ``vxo Leff / mu``;
        weak inversion: the thermal value ``phit``; blended with the same
        Fermi function used for the charge.
        """
        return self._core_normalized(vgs, vds)[2]

    def saturation_function(self, vgs, vds):
        """The non-saturation continuity function ``Fs`` (Eq. 3)."""
        return self._core_normalized(vgs, vds)[1]

    def _core_normalized(self, vgs, vds):
        """Single evaluation of ``(Qixo, Fs, Vdsat)``.

        The threshold and Fermi blend are shared by the charge density
        and the saturation chain; this is the one place the Eq. 2-4
        arithmetic lives — the public piecewise methods above return
        slices of it, and the hot-loop I-V/C-V hooks below pay for it
        exactly once per bias point.
        """
        c = self._consts()
        phit = self.phit
        alpha_phit = c["alpha_phit"]
        vds = np.asarray(vds, dtype=float)
        vt = c["vt0"] - c["delta"] * vds
        vgs = np.asarray(vgs, dtype=float)
        # Fermi blend between weak inversion (ff ~ 1) and strong (ff ~ 0):
        ff = _fermi((vgs - (vt - c["half_shift"])) / alpha_phit)
        veff = vgs - (vt - alpha_phit * ff)
        qixo = c["cq"] * _softplus(veff / c["nphit"])

        vdsat = c["vdsat_strong"] * (1.0 - ff) + phit * ff
        ratio = vds / vdsat
        fs = ratio / np.power(1.0 + np.power(ratio, c["beta"]), c["inv_beta"])
        return qixo, fs, vdsat

    def _core_grad_normalized(self, vgs, vds):
        """Eq. 2-4 chain with closed-form bias gradients.

        Returns ``(qixo, fs, dqixo, dfs)`` where each ``d*`` is the pair
        ``(d/dvgs, d/dvds)``.  The value arithmetic repeats
        :meth:`_core_normalized` operation for operation so the analytic
        path's residual is bitwise the finite-difference path's — only
        the Jacobian changes.
        """
        c = self._consts()
        phit = self.phit
        alpha_phit = c["alpha_phit"]
        delta = c["delta"]
        vds = np.asarray(vds, dtype=float)
        vt = c["vt0"] - delta * vds
        vgs = np.asarray(vgs, dtype=float)

        ff = _fermi((vgs - (vt - c["half_shift"])) / alpha_phit)
        veff = vgs - (vt - alpha_phit * ff)
        x = veff / c["nphit"]
        qixo = c["cq"] * _softplus(x)

        vdsat = c["vdsat_strong"] * (1.0 - ff) + phit * ff
        ratio = vds / vdsat
        rbeta = np.power(ratio, c["beta"])
        fs = ratio / np.power(1.0 + rbeta, c["inv_beta"])

        # d ff / d u with u the fermi argument; du/dvgs = 1/alpha_phit,
        # du/dvds = delta/alpha_phit (through VT = VT0 - delta*Vds).
        dff_du = -ff * (1.0 - ff)
        dff_g = dff_du / alpha_phit
        dff_d = dff_du * delta / alpha_phit

        # veff = vgs - vt + alpha_phit*ff  =>  both partials share the
        # (1 + dff_du) self-consistency factor.
        dveff_g = 1.0 + alpha_phit * dff_g
        dveff_d = delta + alpha_phit * dff_d

        sig = _sigmoid(x)
        cinv = c["cinv"]
        dqixo_g = cinv * sig * dveff_g
        dqixo_d = cinv * sig * dveff_d

        dvdsat_g = c["phit_minus_vdsat"] * dff_g
        dvdsat_d = c["phit_minus_vdsat"] * dff_d

        ratio_over_vdsat = ratio / vdsat
        dratio_g = -ratio_over_vdsat * dvdsat_g
        dratio_d = 1.0 / vdsat - ratio_over_vdsat * dvdsat_d

        # dfs/dr = (1 + r^beta)^-(1 + 1/beta) — the r^(beta-1) factors
        # cancel, so r = 0 is regular.
        dfs_dr = np.power(1.0 + rbeta, c["neg_exp"])
        dfs_g = dfs_dr * dratio_g
        dfs_d = dfs_dr * dratio_d
        return qixo, fs, (dqixo_g, dqixo_d), (dfs_g, dfs_d)

    # ------------------------------------------------------------------
    # DeviceModel hooks.
    # ------------------------------------------------------------------
    def _ids_normalized(self, vgs, vds):
        c = self._consts()
        qixo, fs, _ = self._core_normalized(vgs, vds)
        return c["w_si"] * fs * qixo * c["vxo_si"]

    def _ids_grad_normalized(self, vgs, vds, core):
        c = self._consts()
        qixo, fs, (dqixo_g, dqixo_d), (dfs_g, dfs_d) = core
        scale = c["w_si"] * c["vxo_si"]
        ids = c["w_si"] * fs * qixo * c["vxo_si"]
        dig = scale * (dfs_g * qixo + fs * dqixo_g)
        did = scale * (dfs_d * qixo + fs * dqixo_d)
        return ids, dig, did

    def _charges_normalized(self, vgs, vds):
        c = self._consts()
        area = c["area"]
        qixo, fs, _ = self._core_normalized(vgs, vds)
        qixd = qixo * (1.0 - fs)

        # Ward-Dutton partition of a linear charge profile from source-end
        # density qixo to drain-end density qixd (electron charge: negative
        # on the channel terminals, positive mirror on the gate).
        q_drain = area * (qixo / 6.0 + qixd / 3.0)
        q_source = area * (qixo / 3.0 + qixd / 6.0)
        q_gate = q_drain + q_source

        # Overlap / fringe charge (normalized space: vs = 0).
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        q_ov_d = c["c_ov_d"] * (vgs - vds)
        q_ov_s = c["c_ov_s"] * vgs

        qg = q_gate + q_ov_d + q_ov_s
        qd = -q_drain - q_ov_d
        qs = -q_source - q_ov_s
        return qg, qd, qs

    def _charges_grad_normalized(self, vgs, vds, core):
        c = self._consts()
        area = c["area"]
        qixo, fs, (dqixo_g, dqixo_d), (dfs_g, dfs_d) = core
        qixd = qixo * (1.0 - fs)
        dqixd_g = dqixo_g * (1.0 - fs) - qixo * dfs_g
        dqixd_d = dqixo_d * (1.0 - fs) - qixo * dfs_d

        q_drain = area * (qixo / 6.0 + qixd / 3.0)
        q_source = area * (qixo / 3.0 + qixd / 6.0)
        q_gate = q_drain + q_source
        dq_drain_g = area * (dqixo_g / 6.0 + dqixd_g / 3.0)
        dq_drain_d = area * (dqixo_d / 6.0 + dqixd_d / 3.0)
        dq_source_g = area * (dqixo_g / 3.0 + dqixd_g / 6.0)
        dq_source_d = area * (dqixo_d / 3.0 + dqixd_d / 6.0)

        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        c_ov_d = c["c_ov_d"]
        c_ov_s = c["c_ov_s"]
        q_ov_d = c_ov_d * (vgs - vds)
        q_ov_s = c_ov_s * vgs

        qg = q_gate + q_ov_d + q_ov_s
        qd = -q_drain - q_ov_d
        qs = -q_source - q_ov_s
        zero = np.zeros(np.broadcast(vgs, vds, qixo).shape)
        grads = {
            "g": (dq_drain_g + dq_source_g + c_ov_d + c_ov_s + zero,
                  dq_drain_d + dq_source_d - c_ov_d + zero),
            "d": (-dq_drain_g - c_ov_d + zero, -dq_drain_d + c_ov_d + zero),
            "s": (-dq_source_g - c_ov_s + zero, -dq_source_d + zero),
        }
        return (qg, qd, qs), grads

    # ------------------------------------------------------------------
    # Convenience figure-of-merit extraction.
    # ------------------------------------------------------------------
    def idsat(self, vdd):
        """On current ``Id(Vgs=Vds=Vdd)`` [A]."""
        return self.ids(vdd, vdd, 0.0)

    def ioff(self, vdd):
        """Off current ``Id(Vgs=0, Vds=Vdd)`` [A]."""
        return self.ids(0.0, vdd, 0.0)

    def with_params(self, params: VSParams) -> "VSDevice":
        """New device sharing temperature/derivative mode, new card."""
        return VSDevice(params, self.temperature, self.derivatives)
