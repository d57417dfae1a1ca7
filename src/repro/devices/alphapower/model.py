"""Alpha-power-law I-V evaluation (Sakurai-Newton).

    Idsat = W * B * (Vgs - VT)^alpha                (saturation)
    Vdsat = Pv * (Vgs - VT)^(alpha/2)
    Id    = Idsat * (2 - Vds/Vdsat) * (Vds/Vdsat)   (triode, smooth at Vdsat)

with optional channel-length modulation ``(1 + lam * Vds)``.  Below
threshold the model carries *no* current (the empirical law's defining
blind spot — leakage statistics are impossible, which is the paper's
argument for a physics-based model).  A small softplus smoothing of
``(Vgs - VT)`` keeps Newton happy without changing the model's character.
"""

from __future__ import annotations

import numpy as np

from repro.constants import T_NOMINAL
from repro.devices.base import DeviceModel, softplus
from repro.devices.alphapower.params import AlphaPowerParams


def _smooth_overdrive(vgs, vth, width):
    """Softplus-smoothed ``max(Vgs - VT, 0)``."""
    x = (np.asarray(vgs, dtype=float) - vth) / width
    return width * softplus(x)


class AlphaPowerDevice(DeviceModel):
    """A MOSFET instance evaluated with the alpha-power law."""

    def __init__(self, params: AlphaPowerParams, temperature: float = T_NOMINAL):
        super().__init__(params.polarity)
        params.validate()
        self.params = params
        self.temperature = temperature

    def saturation_voltage(self, vgs):
        """``Vdsat = Pv (Vgs - VT)^(alpha/2)``."""
        p = self.params
        vod = _smooth_overdrive(vgs, np.asarray(p.vth, dtype=float),
                                np.asarray(p.smooth_v, dtype=float))
        return np.asarray(p.pv, dtype=float) * np.power(
            vod, np.asarray(p.alpha, dtype=float) / 2.0
        )

    def _ids_normalized(self, vgs, vds):
        p = self.params
        vod = _smooth_overdrive(vgs, np.asarray(p.vth, dtype=float),
                                np.asarray(p.smooth_v, dtype=float))
        idsat = (
            p.w_si
            * np.asarray(p.b_a_per_m, dtype=float)
            * np.power(vod, np.asarray(p.alpha, dtype=float))
        )
        vdsat = np.maximum(self.saturation_voltage(vgs), 1e-6)
        ratio = np.clip(np.asarray(vds, dtype=float) / vdsat, 0.0, 1.0)
        triode = (2.0 - ratio) * ratio
        clm = 1.0 + np.asarray(p.lam, dtype=float) * np.asarray(vds, dtype=float)
        return idsat * triode * clm

    def _charges_normalized(self, vgs, vds):
        # Constant-capacitance charge model: the alpha-power law has no
        # channel charge physics, so the standard usage pairs it with a
        # fixed gate capacitance plus overlaps.
        p = self.params
        c_area = p.cox_si * p.w_si * p.l_si
        vgs = np.asarray(vgs, dtype=float)
        vds = np.asarray(vds, dtype=float)
        q_gate = c_area * vgs
        q_ov_d = np.asarray(p.cgdo_f_m, dtype=float) * p.w_si * (vgs - vds)
        q_ov_s = np.asarray(p.cgso_f_m, dtype=float) * p.w_si * vgs

        qg = q_gate + q_ov_d + q_ov_s
        qd = -0.5 * q_gate - q_ov_d
        qs = -0.5 * q_gate - q_ov_s
        return qg, qd, qs

    def with_params(self, params: AlphaPowerParams) -> "AlphaPowerDevice":
        """New device sharing temperature but with a different card."""
        return AlphaPowerDevice(params, self.temperature)
