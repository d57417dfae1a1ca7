"""Parameter card for the Virtual Source model.

The VS model needs far fewer parameters than BSIM — 11 for DC in the paper
(Sec. I).  This card carries the DC set, the charge/capacitance extras, and
the two physical lengths (mean free path, critical backscattering length)
that enter the ballistic-efficiency expression Eq. (6).

Units follow the paper's Table I (nm, uF/cm^2, cm^2/Vs, cm/s); SI values
are exposed through ``*_si`` properties so that model code never multiplies
by bare powers of ten.

Every field may be a float *or* a numpy array: the statistical model
produces cards whose varied fields are arrays over the Monte-Carlo sample
axis, and the whole evaluation chain broadcasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.devices.base import DeviceCard, Polarity


@dataclass(frozen=True)
class VSParams(DeviceCard):
    """Virtual Source model card (per-instance, geometry included)."""

    # --- geometry -----------------------------------------------------
    w_nm: object = 300.0          #: effective channel width Weff [nm]
    l_nm: object = 40.0           #: effective channel length Leff [nm]

    # --- DC core (paper Table I) ---------------------------------------
    vt0: object = 0.42            #: zero-bias threshold voltage VT0 [V]
    cinv_uf_cm2: object = 1.80    #: effective gate-to-channel cap Cinv [uF/cm^2]
    mu_cm2: object = 400.0        #: carrier mobility [cm^2/(V s)]
    vxo_cm_s: object = 1.0e7      #: virtual source velocity vxo [cm/s]

    # --- secondary DC parameters ---------------------------------------
    delta0: object = 0.115        #: DIBL coefficient at the reference length [V/V]
    l_delta_nm: object = 38.0     #: DIBL length-decay constant [nm] (Eq. 4 context)
    l_ref_nm: object = 40.0       #: reference length at which delta = delta0 [nm]
    n0: object = 1.45             #: subthreshold swing factor
    beta: object = 1.8            #: saturation-transition exponent in Fs (Eq. 3)
    alpha_sm: object = 3.5        #: strong/weak-inversion smoothing parameter [phit units]

    # --- charge / capacitance ------------------------------------------
    cgdo_f_m: object = 1.8e-10    #: gate-drain overlap + fringe cap per width [F/m]
    cgso_f_m: object = 1.8e-10    #: gate-source overlap + fringe cap per width [F/m]

    # --- ballistic transport (Eq. 5-6) ----------------------------------
    lambda_mfp_nm: object = 10.0  #: carrier mean free path lambda [nm]
    l_crit_nm: object = 5.0       #: critical backscattering length l [nm]
    alpha_fit: object = 0.5       #: power-law fitting index alpha (Eq. 5)
    gamma_fit: object = 0.45      #: power-law fitting index gamma (Eq. 5)
    dvxo_ddelta: object = 2.0     #: sensitivity d(vxo)/(vxo d delta) (paper: ~2)

    # --- temperature scaling ---------------------------------------------
    t_ref_k: object = 300.15      #: card reference temperature [K]
    mu_temp_exp: object = -1.5    #: mu ~ (T/Tref)^exp (phonon scattering)
    vxo_temp_exp: object = -0.4   #: vxo ~ (T/Tref)^exp (thermal velocity mix)
    vt0_tc_v_k: object = -1.0e-3  #: dVT0/dT [V/K]

    polarity: Polarity = Polarity.NMOS

    _positive = ("w_nm", "l_nm", "cinv_uf_cm2", "mu_cm2", "vxo_cm_s", "n0",
                 "beta", "alpha_sm", "lambda_mfp_nm", "l_crit_nm")

    # ------------------------------------------------------------------
    # SI accessors (w_si / l_si come from DeviceCard).
    # ------------------------------------------------------------------
    @property
    def cinv_si(self):
        """Gate-to-channel capacitance [F/m^2]."""
        return units.uf_cm2_to_si(np.asarray(self.cinv_uf_cm2, dtype=float))

    @property
    def mu_si(self):
        """Mobility [m^2/(V s)]."""
        return units.cm2_vs_to_si(np.asarray(self.mu_cm2, dtype=float))

    @property
    def vxo_si(self):
        """Virtual source velocity [m/s]."""
        return units.cm_s_to_si(np.asarray(self.vxo_cm_s, dtype=float))

    # ------------------------------------------------------------------
    # Derived quantities.
    # ------------------------------------------------------------------
    def dibl(self, l_nm=None):
        """Length-dependent DIBL coefficient ``delta(Leff)`` [V/V].

        Modeled as an exponential roll-up below the reference length,
        ``delta(L) = delta0 * exp(-(L - Lref)/Ldelta)`` — shorter channels
        suffer exponentially stronger barrier lowering, the standard
        short-channel phenomenology behind Eq. (4).
        """
        if l_nm is None:
            l_nm = self.l_nm
        l_nm = np.asarray(l_nm, dtype=float)
        return np.asarray(self.delta0) * np.exp(
            -(l_nm - np.asarray(self.l_ref_nm)) / np.asarray(self.l_delta_nm)
        )

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless cards."""
        super().validate()
        if np.any(np.asarray(self.n0, dtype=float) < 1.0):
            raise ValueError("VSParams.n0 must be >= 1 (subthreshold swing factor)")
