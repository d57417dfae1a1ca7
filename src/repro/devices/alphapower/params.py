"""Parameter card for the alpha-power-law model (Sakurai-Newton family).

The paper's introduction contrasts the VS model with "purely empirical
ultra compact models based on the alpha-power law whose main goal is to
maximize the timing accuracy of an inverter" [5], claiming the VS model
tracks process variation while achieving *better* timing accuracy with a
similar parameter count.  To test that claim we need the baseline.

The card below is the classic 5-parameter DC set (drive strength,
threshold, velocity-saturation index alpha, saturation-voltage
coefficient, channel-length modulation) plus crude constant capacitances
— deliberately so: the alpha-power law has no physical charge model,
which is part of the paper's point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.devices.base import DeviceCard, Polarity


@dataclass(frozen=True)
class AlphaPowerParams(DeviceCard):
    """Alpha-power-law card (per-instance, geometry included)."""

    # --- geometry -----------------------------------------------------
    w_nm: object = 300.0          #: channel width [nm]
    l_nm: object = 40.0           #: channel length [nm]

    # --- DC (the 5 classic parameters) ---------------------------------
    b_a_per_m: object = 2000.0    #: drive strength B [A/m per V^alpha]
    vth: object = 0.35            #: threshold voltage [V]
    alpha: object = 1.3           #: velocity-saturation index
    pv: object = 0.6              #: Vdsat coefficient [V^(1-alpha/2)]
    lam: object = 0.05            #: channel-length modulation [1/V]

    # --- crude capacitance ----------------------------------------------
    cox_uf_cm2: object = 1.80     #: gate-area capacitance [uF/cm^2]
    cgdo_f_m: object = 1.8e-10    #: overlap cap per width [F/m]
    cgso_f_m: object = 1.8e-10    #: overlap cap per width [F/m]

    #: Smoothing width for the (Vgs - VT) cutoff [V]; small, numerical only.
    smooth_v: object = 0.01

    polarity: Polarity = Polarity.NMOS

    _positive = ("w_nm", "l_nm", "b_a_per_m", "alpha", "pv", "smooth_v",
                 "cox_uf_cm2")

    @property
    def cox_si(self):
        """Gate capacitance [F/m^2]."""
        return units.uf_cm2_to_si(np.asarray(self.cox_uf_cm2, dtype=float))

    def validate(self) -> None:
        """Raise ``ValueError`` for meaningless cards."""
        super().validate()
        if np.any(np.asarray(self.lam, dtype=float) < 0.0):
            raise ValueError("AlphaPowerParams.lam must be non-negative")
