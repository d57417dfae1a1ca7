"""Common interface for MOSFET compact models.

Both the Virtual Source model (:mod:`repro.devices.vs`) and the BSIM4-lite
golden model (:mod:`repro.devices.bsim`) implement :class:`DeviceModel`.
The circuit engine (:mod:`repro.circuit`) and the statistical machinery
(:mod:`repro.stats`) only ever talk to this interface, so the two models are
interchangeable everywhere — which is exactly the experiment the paper runs.

Conventions
-----------
* All voltages are node voltages in volts; all currents in amperes flowing
  *into* the drain terminal (NMOS convention: positive for ``vds > 0``).
* Every method is vectorized: terminal voltages and model parameters may be
  numpy arrays and are broadcast together.  This is what makes Monte-Carlo
  over thousands of parameter samples cheap — the sample axis rides through
  every device evaluation.
* Source/drain symmetry is handled here once: subclasses implement the
  model in normalized space (NMOS-like, ``vds >= 0``) and the base class
  applies polarity folding and terminal swapping.  The folding reads
  ``self.sign`` only — ``float(polarity)`` on a single device, one ±1
  per member on the compiled engine's stacked device, which mixes
  NMOS and PMOS along its device axis and has no ``polarity``.
* Derivatives come in two flavours, selected by the ``derivatives``
  constructor switch: ``"analytic"`` (default) evaluates the model core
  once with closed-form bias gradients (``_core_grad_normalized``) and
  finishes it through the ``_ids_grad_normalized`` /
  ``_charges_grad_normalized`` hooks when the model implements them; the
  base class applies the same polarity/swap chain rule it applies to the
  values.  ``"fd"`` (or a model without the hooks) falls back to the
  stacked finite-difference stamps, four bias points per call.
  :meth:`DeviceModel.iv_and_charges` finishes ONE fold and ONE core
  evaluation into both the I-V and the charge stamps, so a transient
  evaluates each device once per time point: at an accepted solution
  its value parts (``ids()`` and ``charges()`` bit for bit) close the
  point's KCL and charge history, and the whole evaluation is the next
  step's first Newton iteration.  Its value-path twin
  :meth:`DeviceModel.ids_and_charges` serves the last time step, which
  no later iteration reuses.
* Every formula exists once, so the analytic path's values are the value
  path's by construction, not by a kept copy: a model's gradient core
  calls its value core ``_core_normalized`` (which also returns the
  intermediates the derivatives need) and adds only derivative terms;
  the I-V finish is one function per model, shared by ``_ids_normalized``
  and ``_ids_grad_normalized``; and the Ward–Dutton partition of a
  linear channel-charge profile plus the overlap charges, values and
  gradients, is :func:`ward_dutton` here, shared by both models.
* Parameter cards derive from :class:`DeviceCard` (SI geometry,
  ``replace``, the cached ``batch_shape`` and the positivity check).
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import Tuple

import numpy as np

from repro import units

#: Finite-difference step for terminal derivatives [V].  Large enough to be
#: safe in float64 for currents spanning 1e-12..1e-2 A, small enough that the
#: smoothing functions of both models are locally linear.
_FD_STEP = 1e-5


class Polarity(enum.IntEnum):
    """Device polarity; the integer value is the voltage folding sign."""

    NMOS = 1
    PMOS = -1


def softplus(x):
    """Numerically safe ``ln(1 + exp(x))``."""
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Numerically safe logistic ``1 / (1 + exp(-x))`` (softplus')."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def ward_dutton(vgs, vds, area, c_ov_d, c_ov_s, q_src, f, dq_src=None,
                df=None):
    """Terminal charges of a linear channel-charge profile plus overlaps.

    The channel charge density runs linearly from *q_src* [C/m^2] at the
    source end to ``q_src * (1 - f)`` at the drain end over the gate
    *area*; Ward–Dutton partitioning gives the drain 1/6 of the source
    density plus 1/3 of the drain density and the source the mirror
    (electron charge: negative on the channel terminals, positive
    mirror on the gate).  Bias-independent overlap/fringe capacitances
    *c_ov_d* and *c_ov_s* [F] add ``c_ov_d (vgs - vds)`` and
    ``c_ov_s vgs`` (normalized space: ``vs = 0``).  Charge is conserved
    by construction (``qg + qd + qs = 0``).

    Returns ``(qg, qd, qs)``.  Given the bias gradients *dq_src* and
    *df* of *q_src* and *f* — ``(d/dvgs, d/dvds)`` pairs — it returns
    ``((qg, qd, qs), grads)`` in the form of
    ``DeviceModel._charges_grad_normalized``, the values computed by the
    same operations either way.
    """
    keep = 1.0 - f
    q_drn = q_src * keep
    q_drain = area * (q_src / 6.0 + q_drn / 3.0)
    q_source = area * (q_src / 3.0 + q_drn / 6.0)
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    q_ov_d = c_ov_d * (vgs - vds)
    q_ov_s = c_ov_s * vgs
    q = (q_drain + q_source + q_ov_d + q_ov_s,
         -q_drain - q_ov_d,
         -q_source - q_ov_s)
    if dq_src is None:
        return q
    # Per bias direction: d(drain-end density), then the partition.
    dq_drain, dq_source = [], []
    for dq, dfk in zip(dq_src, df):
        dq_drn = dq * keep - q_src * dfk
        dq_drain.append(area * (dq / 6.0 + dq_drn / 3.0))
        dq_source.append(area * (dq / 3.0 + dq_drn / 6.0))
    (dd_g, dd_d), (ds_g, ds_d) = dq_drain, dq_source
    zero = np.zeros(np.broadcast(vgs, vds, q_src).shape)
    grads = {
        "g": (dd_g + ds_g + c_ov_d + c_ov_s + zero,
              dd_d + ds_d - c_ov_d + zero),
        "d": (-dd_g - c_ov_d + zero, -dd_d + c_ov_d + zero),
        "s": (-ds_g - c_ov_s + zero, -ds_d + zero),
    }
    return q, grads


class DeviceCard:
    """Behaviour shared by the frozen-dataclass parameter cards.

    Every card carries its geometry as ``w_nm``/``l_nm`` and lists the
    fields :meth:`validate` requires strictly positive in ``_positive``
    (a plain class attribute, not a dataclass field).  Fields may be
    floats or numpy arrays over the Monte-Carlo sample axis.
    """

    _positive: Tuple[str, ...] = ("w_nm", "l_nm")

    @property
    def w_si(self):
        """Channel width [m]."""
        return units.nm_to_m(np.asarray(self.w_nm, dtype=float))

    @property
    def l_si(self):
        """Channel length [m]."""
        return units.nm_to_m(np.asarray(self.l_nm, dtype=float))

    def replace(self, **changes):
        """Return a copy of the card with *changes* applied."""
        return dataclasses.replace(self, **changes)

    @property
    def batch_shape(self):
        """Broadcast shape of all varied fields (``()`` for a scalar card).

        Cached on first access: the card is frozen and numpy array shapes
        are fixed at construction, yet plan fingerprinting asks for this
        on every solve of a sweep.
        """
        cached = self.__dict__.get("_batch_shape")
        if cached is not None:
            return cached
        shape = ()
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                shape = np.broadcast_shapes(shape, value.shape)
        object.__setattr__(self, "_batch_shape", shape)
        return shape

    def validate(self) -> None:
        """Raise ``ValueError`` for physically meaningless cards."""
        for name in self._positive:
            if np.any(np.asarray(getattr(self, name), dtype=float) <= 0.0):
                raise ValueError(
                    f"{type(self).__name__}.{name} must be positive"
                )


def _fd_bias_points(vg, vd, vs, h):
    """Base point plus one *h*-perturbed point per terminal, stacked.

    Returns ``(vg4, vd4, vs4)`` with a leading axis of length 4 in the
    order (base, +dg, +dd, +ds); lane k of a stacked model evaluation
    sees exactly the arithmetic of a separate call, so derivatives
    computed from one evaluation are bitwise identical to four.
    """
    vg, vd, vs = np.broadcast_arrays(
        np.asarray(vg, dtype=float),
        np.asarray(vd, dtype=float),
        np.asarray(vs, dtype=float),
    )
    vg4 = np.stack((vg, vg + h, vg, vg))
    vd4 = np.stack((vd, vd, vd + h, vd))
    vs4 = np.stack((vs, vs, vs, vs + h))
    return vg4, vd4, vs4


def _fold_bias(vg, vd, vs, sign):
    """Polarity-folded, source/drain-swapped normalized bias.

    Returns ``(vgs_eff, vds_eff, swap)`` — the single place the
    terminal-to-normalized coordinate change lives, shared by the value
    and the analytic-derivative paths so both see identical arithmetic.
    """
    vgs = sign * (np.asarray(vg, dtype=float) - vs)
    vds = sign * (np.asarray(vd, dtype=float) - vs)
    swap = vds < 0.0
    # Swapped device: the physical source plays the drain role.
    vgs_eff = np.where(swap, vgs - vds, vgs)
    vds_eff = np.abs(vds)
    return vgs_eff, vds_eff, swap


class DeviceModel(abc.ABC):
    """Abstract four-terminal (gate/drain/source, bulk folded) MOSFET model."""

    def __init__(self, polarity: Polarity, derivatives: str = "analytic"):
        if derivatives not in ("analytic", "fd"):
            raise ValueError(
                f"derivatives must be 'analytic' or 'fd', got {derivatives!r}"
            )
        self.polarity = Polarity(polarity)
        #: Voltage folding sign, the only polarity the methods below read.
        #: A stacked device of the compiled engine has no ``polarity``;
        #: it carries one ±1 per member here instead.
        self.sign = float(self.polarity)
        self.derivatives = derivatives

    # ------------------------------------------------------------------
    # Normalized-space hooks implemented by concrete models.
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _ids_normalized(self, vgs, vds):
        """Drain current [A] for an NMOS-like device with ``vds >= 0``."""

    @abc.abstractmethod
    def _charges_normalized(self, vgs, vds) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Terminal charges ``(qg, qd, qs)`` [C] in normalized space."""

    #: Optional analytic-gradient hooks, all in normalized (NMOS-like,
    #: vds >= 0) space.  ``_core_grad_normalized(vgs, vds)`` finishes the
    #: model's value core ``_core_normalized`` with closed-form bias
    #: gradients, in whatever form the model likes; the other two finish
    #: it in turn, through the model's value finishes:
    #: ``_ids_grad_normalized(vgs, vds, core)`` returns the triple
    #: ``(ids, d ids/d vgs, d ids/d vds)`` and
    #: ``_charges_grad_normalized(vgs, vds, core)`` the pair
    #: ``((qg, qd, qs), {t: (dq_t/dvgs, dq_t/dvds)})`` over terminals
    #: ``'g'/'d'/'s'``.  Left as ``None`` here so the derivative methods
    #: can detect absence and fall back to finite differences.
    _core_grad_normalized = None
    _ids_grad_normalized = None
    _charges_grad_normalized = None

    # ------------------------------------------------------------------
    # Folding: the terminal-to-normalized coordinate change and back,
    # shared by the value, derivative and fused paths.
    # ------------------------------------------------------------------
    def _analytic(self, hook) -> bool:
        """Whether *hook* serves this device (else finite differences)."""
        return hook is not None and self.derivatives == "analytic"

    def _fold_core(self, vg, vd, vs):
        """Folded bias ``(vgs_eff, vds_eff, swap)`` plus the gradient core
        evaluated once on it."""
        vgs_eff, vds_eff, swap = _fold_bias(vg, vd, vs, self.sign)
        return vgs_eff, vds_eff, swap, self._core_grad_normalized(
            vgs_eff, vds_eff
        )

    def _unfold_ids(self, swap, ids_n):
        return self.sign * np.where(swap, -ids_n, ids_n)

    def _unfold_charges(self, swap, qg, qd, qs):
        qd_out = np.where(swap, qs, qd)
        qs_out = np.where(swap, qd, qs)
        sign = self.sign
        return sign * qg, sign * qd_out, sign * qs_out

    def _unfold_iv(self, swap, ids_n, dig, did):
        """Terminal-space ``(ids, gm, gds, gms)`` of a normalized gradient."""
        ids = self._unfold_ids(swap, ids_n)
        # Chain rule through the folding.  Unswapped: vgs_eff = s(vg-vs),
        # vds_eff = s(vd-vs).  Swapped: vgs_eff = s(vg-vd), vds_eff =
        # s(vs-vd), and ids = -s*ids_n — the polarity sign squares away
        # in every conductance.
        gm = np.where(swap, -dig, dig)
        gds = np.where(swap, dig + did, did)
        gms = np.where(swap, -did, -(dig + did))
        return ids, gm, gds, gms

    def _unfold_cap(self, swap, q_n, grads):
        """Terminal-space ``(q, cmat)`` of a normalized charge gradient."""
        q0 = self._unfold_charges(swap, *q_n)
        # Terminal i maps to normalized terminal sigma(i): identity when
        # unswapped, d<->s when swapped.  With A = dq_sigma(i)/dvgs and
        # B = dq_sigma(i)/dvds at the folded bias, the terminal-space row
        # is (A, B, -(A+B)) unswapped and (A, -(A+B), B) swapped — the
        # polarity sign cancels as in the current Jacobian.
        sigma = {"g": "g", "d": "s", "s": "d"}
        cmat = {}
        for term in ("g", "d", "s"):
            a_n, b_n = grads[term]
            a_s, b_s = grads[sigma[term]]
            cmat[(term, "g")] = np.where(swap, a_s, a_n)
            cmat[(term, "d")] = np.where(swap, -(a_s + b_s), b_n)
            cmat[(term, "s")] = np.where(swap, b_s, -(a_n + b_n))
        return q0, cmat

    # ------------------------------------------------------------------
    # Public terminal-space API.
    # ------------------------------------------------------------------
    def ids(self, vg, vd, vs):
        """Drain terminal current [A] given node voltages.

        Positive current flows into the drain node.  Handles PMOS folding
        and source/drain swap for ``vds < 0`` (model symmetry).
        """
        vgs_eff, vds_eff, swap = _fold_bias(vg, vd, vs, self.sign)
        return self._unfold_ids(swap, self._ids_normalized(vgs_eff, vds_eff))

    def charges(self, vg, vd, vs):
        """Terminal charges ``(qg, qd, qs)`` [C] given node voltages."""
        vgs_eff, vds_eff, swap = _fold_bias(vg, vd, vs, self.sign)
        return self._unfold_charges(
            swap, *self._charges_normalized(vgs_eff, vds_eff)
        )

    def ids_and_charges(self, vg, vd, vs):
        """Return ``(ids(...), charges(...))`` from one fold and one
        value-core evaluation.

        The same operations on the same inputs as the two separate
        calls, so the results are bitwise theirs: a compiled transient
        refreshes its charge history and closes the branch currents'
        KCL at an accepted step with this one evaluation.
        """
        vgs_eff, vds_eff, swap = _fold_bias(vg, vd, vs, self.sign)
        ids_n, q_n = self._ids_and_charges_normalized(vgs_eff, vds_eff)
        return self._unfold_ids(swap, ids_n), self._unfold_charges(swap, *q_n)

    def _ids_and_charges_normalized(self, vgs, vds):
        """``(_ids_normalized, _charges_normalized)``; models with a
        shared value core override this to evaluate it once."""
        return (self._ids_normalized(vgs, vds),
                self._charges_normalized(vgs, vds))

    # ------------------------------------------------------------------
    # Derivatives: analytic when the model provides gradient hooks,
    # finite difference otherwise (robust against model smoothing).
    # ------------------------------------------------------------------
    def ids_and_derivatives(self, vg, vd, vs):
        """Return ``(ids, gm, gds, gms)``.

        ``gm = d ids/d vg``, ``gds = d ids/d vd``, ``gms = d ids/d vs``.
        With ``derivatives="analytic"`` (the default) and a model that
        implements the gradient hooks, one closed-form model evaluation
        replaces the four stacked finite-difference bias points; the base
        class folds the normalized-space gradient back through polarity
        and source/drain swap.  ``derivatives="fd"`` or a hook-less model
        uses forward differences (an inexact Jacobian only costs Newton
        an occasional extra iteration).
        """
        if not self._analytic(self._ids_grad_normalized):
            h = _FD_STEP
            i4 = self.ids(*_fd_bias_points(vg, vd, vs, h))
            i0 = i4[0]
            return i0, (i4[1] - i0) / h, (i4[2] - i0) / h, (i4[3] - i0) / h
        vgs_eff, vds_eff, swap, core = self._fold_core(vg, vd, vs)
        return self._unfold_iv(
            swap, *self._ids_grad_normalized(vgs_eff, vds_eff, core)
        )

    def charges_and_capacitance(self, vg, vd, vs):
        """Return ``(q, cmat)`` for the transient companion model.

        ``q`` is the terminal charge tuple ``(qg, qd, qs)``; ``cmat`` the
        dict ``{(i, j): dq_i/dv_j}`` over terminals ``'g'/'d'/'s'``.
        Analytic when the model implements the gradient hooks and
        ``derivatives="analytic"``, forward differences otherwise; either
        way the swap folding mirror of :meth:`charges` is applied here
        once.
        """
        if not self._analytic(self._charges_grad_normalized):
            h = _FD_STEP
            terminals = ("g", "d", "s")
            q4 = self.charges(*_fd_bias_points(vg, vd, vs, h))
            q0 = tuple(q[0] for q in q4)
            cmat = {}
            for j, term_j in enumerate(terminals):
                for i, term_i in enumerate(terminals):
                    cmat[(term_i, term_j)] = (q4[i][j + 1] - q0[i]) / h
            return q0, cmat
        vgs_eff, vds_eff, swap, core = self._fold_core(vg, vd, vs)
        return self._unfold_cap(
            swap, *self._charges_grad_normalized(vgs_eff, vds_eff, core)
        )

    def iv_and_charges(self, vg, vd, vs):
        """Return ``(ids_and_derivatives(...), charges_and_capacitance(...))``.

        The transient Newton iteration's one device evaluation: with
        analytic derivatives the bias is folded once and the model core
        evaluated once, then finished into both the I-V and the
        charge/capacitance stamps — the same operations on the same
        inputs as the two separate calls, so the results are bitwise
        theirs.  Otherwise (``derivatives="fd"`` or a hook-less model)
        it returns the two separate calls.
        """
        if not (self._analytic(self._ids_grad_normalized)
                and self._analytic(self._charges_grad_normalized)):
            return (self.ids_and_derivatives(vg, vd, vs),
                    self.charges_and_capacitance(vg, vd, vs))
        vgs_eff, vds_eff, swap, core = self._fold_core(vg, vd, vs)
        return (
            self._unfold_iv(
                swap, *self._ids_grad_normalized(vgs_eff, vds_eff, core)
            ),
            self._unfold_cap(
                swap, *self._charges_grad_normalized(vgs_eff, vds_eff, core)
            ),
        )

    def cgg(self, vg, vd, vs):
        """Total gate capacitance ``dQg/dVg`` [F] at the given bias."""
        h = _FD_STEP
        qg_p = self.charges(vg + h, vd, vs)[0]
        qg_m = self.charges(vg - h, vd, vs)[0]
        return (qg_p - qg_m) / (2 * h)

    # ------------------------------------------------------------------
    # Figures of merit.
    # ------------------------------------------------------------------
    def idsat(self, vdd):
        """On current ``Id(Vgs=Vds=Vdd)`` [A]."""
        return self.ids(vdd, vdd, 0.0)

    def ioff(self, vdd):
        """Off current ``Id(Vgs=0, Vds=Vdd)`` [A]."""
        return self.ids(0.0, vdd, 0.0)
