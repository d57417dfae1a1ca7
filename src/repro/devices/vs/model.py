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
saturation), Ward–Dutton partitioned by :func:`repro.devices.base.
ward_dutton`; overlap/fringe capacitance is added as bias-independent
per-width charge.  Charge is conserved by construction
(``qg + qd + qs = 0``), which the transient engine relies on.
"""

from __future__ import annotations

import numpy as np

from repro.constants import thermal_voltage, T_NOMINAL
from repro.devices.base import DeviceModel, sigmoid, softplus, ward_dutton
from repro.devices.vs.params import VSParams


def _fermi(x):
    """Numerically safe logistic ``1 / (1 + exp(x))``."""
    return 0.5 * (1.0 - np.tanh(0.5 * x))


def _apply_temperature(params: VSParams, temperature: float) -> VSParams:
    """Temperature-scale the card from its reference temperature.

    Standard compact-model laws: power-law mobility degradation (phonon
    scattering), a weaker power law on the injection velocity, and a
    linear threshold-voltage coefficient.  The scaled card records
    *temperature* as its ``t_ref_k`` (the laws compose, so that is the
    same physics), and at ``T == t_ref_k`` the card is returned
    untouched: scaling a scaled card again is the identity.
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
    return params.replace(mu_cm2=mu, vxo_cm_s=vxo, vt0=vt0,
                          t_ref_k=temperature)


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
        c = self._consts()
        return c["vt0"] - c["delta"] * np.asarray(vds, dtype=float)

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
        """Single evaluation of ``(Qixo, Fs, Vdsat, aux)``.

        The threshold and Fermi blend are shared by the charge density
        and the saturation chain; this is the one place the Eq. 2-4
        arithmetic lives — the public piecewise methods above return
        slices of it, the hot-loop I-V/C-V hooks below pay for it
        exactly once per bias point, and :meth:`_core_grad_normalized`
        finishes it.  ``aux = (ff, x, ratio, rbeta)`` holds the
        intermediates the gradient core needs.
        """
        c = self._consts()
        phit = self.phit
        alpha_phit = c["alpha_phit"]
        vds = np.asarray(vds, dtype=float)
        vt = self.threshold_voltage(vds)
        vgs = np.asarray(vgs, dtype=float)
        # Fermi blend between weak inversion (ff ~ 1) and strong (ff ~ 0):
        ff = _fermi((vgs - (vt - c["half_shift"])) / alpha_phit)
        veff = vgs - (vt - alpha_phit * ff)
        x = veff / c["nphit"]
        qixo = c["cq"] * softplus(x)

        vdsat = c["vdsat_strong"] * (1.0 - ff) + phit * ff
        ratio = vds / vdsat
        rbeta = np.power(ratio, c["beta"])
        fs = ratio / np.power(1.0 + rbeta, c["inv_beta"])
        return qixo, fs, vdsat, (ff, x, ratio, rbeta)

    def _core_grad_normalized(self, vgs, vds):
        """The value core plus closed-form bias gradients.

        Returns ``(core, dqixo, dfs)``: the :meth:`_core_normalized`
        tuple itself — so the analytic path's values are the value
        path's by construction — and the ``(d/dvgs, d/dvds)`` pairs of
        ``Qixo`` and ``Fs``.
        """
        core = self._core_normalized(vgs, vds)
        _, _, vdsat, (ff, x, ratio, rbeta) = core
        c = self._consts()
        alpha_phit = c["alpha_phit"]
        delta = c["delta"]

        # d ff / d u with u the fermi argument; du/dvgs = 1/alpha_phit,
        # du/dvds = delta/alpha_phit (through VT = VT0 - delta*Vds).
        dff_du = -ff * (1.0 - ff)
        dff_g = dff_du / alpha_phit
        dff_d = dff_du * delta / alpha_phit

        # veff = vgs - vt + alpha_phit*ff  =>  both partials share the
        # (1 + dff_du) self-consistency factor.
        dveff_g = 1.0 + alpha_phit * dff_g
        dveff_d = delta + alpha_phit * dff_d

        sig = sigmoid(x)
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
        return core, (dqixo_g, dqixo_d), (dfs_g, dfs_d)

    # ------------------------------------------------------------------
    # DeviceModel hooks: one I-V finish and one charge finish, each
    # shared by the value and the gradient hook.
    # ------------------------------------------------------------------
    def _ids_from_core(self, core):
        """``Id = W Fs Qixo vxo`` (Eq. 2) of a value core."""
        c = self._consts()
        qixo, fs = core[0], core[1]
        return c["w_si"] * fs * qixo * c["vxo_si"]

    def _ids_normalized(self, vgs, vds):
        return self._ids_from_core(self._core_normalized(vgs, vds))

    def _ids_grad_normalized(self, vgs, vds, core):
        value, (dqixo_g, dqixo_d), (dfs_g, dfs_d) = core
        qixo, fs = value[0], value[1]
        c = self._consts()
        scale = c["w_si"] * c["vxo_si"]
        dig = scale * (dfs_g * qixo + fs * dqixo_g)
        did = scale * (dfs_d * qixo + fs * dqixo_d)
        return self._ids_from_core(value), dig, did

    def _charges_from_core(self, vgs, vds, core, *grads):
        """Ward–Dutton charges of the ``Qixo -> Qixo (1 - Fs)`` profile;
        with *grads* ``(dqixo, dfs)`` also their bias gradients."""
        c = self._consts()
        return ward_dutton(vgs, vds, c["area"], c["c_ov_d"], c["c_ov_s"],
                           core[0], core[1], *grads)

    def _charges_normalized(self, vgs, vds):
        return self._charges_from_core(
            vgs, vds, self._core_normalized(vgs, vds)
        )

    def _charges_grad_normalized(self, vgs, vds, core):
        return self._charges_from_core(vgs, vds, *core)

    def _ids_and_charges_normalized(self, vgs, vds):
        core = self._core_normalized(vgs, vds)
        return (self._ids_from_core(core),
                self._charges_from_core(vgs, vds, core))

    def with_params(self, params: VSParams) -> "VSDevice":
        """New device sharing temperature/derivative mode, new card."""
        return VSDevice(params, self.temperature, self.derivatives)
