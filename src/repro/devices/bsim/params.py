"""Parameter card for the BSIM4-lite golden model.

This is our stand-in for the paper's proprietary 40-nm BSIM4 industrial
design kit (see DESIGN.md, substitution table).  It keeps the defining
traits of a BSIM-class model relative to the VS model:

* drift-diffusion transport with field-dependent velocity saturation
  (``Esat = 2 vsat / mu``), instead of ballistic injection;
* explicit mobility degradation with vertical field;
* channel-length modulation;
* threshold roll-off and DIBL as separate short-channel corrections;
* substantially more parameters evaluated per bias point (the runtime
  comparison of Table IV rests on this).

Units match :class:`repro.devices.vs.params.VSParams` conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.devices.base import DeviceCard, Polarity


@dataclass(frozen=True)
class BSIMParams(DeviceCard):
    """BSIM4-lite card (per-instance, geometry included)."""

    # --- geometry -----------------------------------------------------
    w_nm: object = 300.0          #: effective channel width [nm]
    l_nm: object = 40.0           #: effective channel length [nm]

    # --- threshold ------------------------------------------------------
    vth0: object = 0.47           #: long/reference-channel threshold [V]
    dvt_rolloff: object = 0.08    #: threshold roll-off amplitude [V]
    l_rolloff_nm: object = 30.0   #: roll-off decay length [nm]
    dibl: object = 0.12           #: DIBL coefficient [V/V]
    l_dibl_nm: object = 40.0      #: DIBL reference length [nm]
    nfactor: object = 1.45        #: subthreshold swing factor

    # --- transport ------------------------------------------------------
    u0_cm2: object = 420.0        #: low-field mobility [cm^2/(V s)]
    theta_mob: object = 0.9       #: vertical-field mobility degradation [1/V]
    vsat_cm_s: object = 1.15e7    #: saturation velocity [cm/s]
    pclm: object = 0.08           #: channel-length modulation coefficient [1/V]

    # --- gate stack -----------------------------------------------------
    cox_uf_cm2: object = 1.80     #: oxide capacitance [uF/cm^2]

    # --- saturation smoothing -------------------------------------------
    mexp: object = 4.0            #: Vdseff smoothing exponent

    # --- parasitics ------------------------------------------------------
    cgdo_f_m: object = 1.8e-10    #: gate-drain overlap cap per width [F/m]
    cgso_f_m: object = 1.8e-10    #: gate-source overlap cap per width [F/m]

    polarity: Polarity = Polarity.NMOS

    _positive = ("w_nm", "l_nm", "u0_cm2", "vsat_cm_s", "cox_uf_cm2",
                 "nfactor", "mexp")

    # ------------------------------------------------------------------
    # SI accessors (w_si / l_si come from DeviceCard).
    # ------------------------------------------------------------------
    @property
    def cox_si(self):
        """Oxide capacitance [F/m^2]."""
        return units.uf_cm2_to_si(np.asarray(self.cox_uf_cm2, dtype=float))

    @property
    def u0_si(self):
        """Low-field mobility [m^2/(V s)]."""
        return units.cm2_vs_to_si(np.asarray(self.u0_cm2, dtype=float))

    @property
    def vsat_si(self):
        """Saturation velocity [m/s]."""
        return units.cm_s_to_si(np.asarray(self.vsat_cm_s, dtype=float))
