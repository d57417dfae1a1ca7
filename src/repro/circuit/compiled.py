"""Compiled batched assembly: the device-axis vectorized MNA engine.

The generic assembly path (:mod:`repro.circuit.dcop` / ``transient``)
walks the element list in Python and stamps one element at a time.  That
is fine for the Monte-Carlo axis — every stamp is vectorized over
samples — but the per-element Python work (model calls, small-array
arithmetic) dominates the runtime of nominal and small-batch transients.

This module removes that loop.  A :class:`CompiledCircuit` partitions
the netlist once:

* **Linear stamps** (resistors, the voltage-source branch pattern) are
  accumulated into a constant conductance matrix ``G``; the per-iteration
  linear residual is one batched matvec ``G @ v``.
* **Sources** are evaluated once per time point into a vector ``b(t)``.
* **MOSFETs are stacked along a trailing device axis**: all transistors
  sharing a model class, polarity and temperature become ONE stacked
  device whose parameter card holds arrays of shape ``batch + (n_dev,)``.
  One model evaluation per Newton iteration computes every transistor of
  the circuit across every Monte-Carlo sample; the results are scattered
  into the Jacobian/residual with precomputed duplicate-free scatter
  rounds that replay ``np.add.at`` on coincident entries bit for bit.
* **Capacitors** are likewise grouped; their constant charge Jacobian is
  folded into the per-step companion base matrix.

Ground bookkeeping uses an augmented unknown vector: index ``n`` is a
dump row that absorbs every ground contribution and is sliced off before
the solve, so no masking appears in the hot loop.

Compilation is split in two (PR 9):

* A :class:`PlanStructure` is the **value-free** part — element
  classification plus per-group index arrays and scatter programs.  It
  depends only on the circuit's *structural fingerprint*
  (:func:`structural_fingerprint`: topology + element types + model
  class/polarity/temperature, never parameter values or batch shapes),
  so every per-shard circuit a factory stamps out shares one structure.
* A :class:`CompiledCircuit` **binds** a structure to one circuit's
  values: stacked device cards, the constant conductance matrix, the
  linear charge Jacobian.  Binding is cheap — no index bookkeeping.

Sample-for-sample the arithmetic is elementwise, so a batched solve
reproduces the scalar (``batch = ()``) solve of each sample exactly —
the property ``tests/test_batched_circuit.py`` locks in.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import List, Optional

import numpy as np

from repro.circuit import elements as _el

__all__ = [
    "CompiledCircuit",
    "PlanStructure",
    "UnsupportedCircuitError",
    "compile_circuit",
    "structural_fingerprint",
]

#: Charge terminal order of a MOSFET group (matches ``MOSFET.charge_terminals``).
_TERMS = ("g", "d", "s")


class UnsupportedCircuitError(TypeError):
    """The netlist contains elements the vectorized engine cannot plan.

    This is the ONLY condition under which :func:`compile_circuit` falls
    back to the generic per-element path — genuine defects inside the
    compiler propagate instead of silently degrading to the slow path.
    """


class _Assembled:
    """Duck-typed :class:`repro.circuit.mna.System` result."""

    __slots__ = ("jacobian", "residual")

    def __init__(self, jacobian: np.ndarray, residual: np.ndarray):
        self.jacobian = jacobian
        self.residual = residual


def _stack_field(values):
    """Stack one parameter field across devices along a new last axis.

    Scalars that agree across the whole group stay scalar (no broadcast
    cost in the model's arithmetic); anything else becomes an array of
    shape ``field_batch + (n_dev,)``.
    """
    arrays = [np.asarray(value, dtype=float) for value in values]
    if all(a.ndim == 0 for a in arrays):
        first = float(arrays[0])
        if all(float(a) == first for a in arrays):
            return first
    common = np.broadcast_shapes(*(a.shape for a in arrays))
    return np.stack([np.broadcast_to(a, common) for a in arrays], axis=-1)


def _stack_devices(models):
    """One stacked device evaluating all of *models* in a single call.

    All models share a class, polarity and temperature (the group key),
    so only the numeric card fields differ; each field is stacked along
    a trailing device axis.  The stacked instance bypasses ``__init__``
    — the member cards are already validated and temperature-adjusted —
    and copies every other instance attribute (polarity, temperature,
    derived constants like ``phit``) from the first member, so any
    :class:`DeviceModel` subclass with elementwise math stacks cleanly.
    """
    first = models[0]
    cls = type(first)
    changes = {}
    for field in dataclasses.fields(first.params):
        if field.name == "polarity":
            continue
        changes[field.name] = _stack_field(
            [getattr(m.params, field.name) for m in models]
        )
    stacked = cls.__new__(cls)
    stacked.__dict__.update(first.__dict__)
    stacked.params = dataclasses.replace(first.params, **changes)
    return stacked


def _scatter_program(idx: np.ndarray) -> tuple:
    """Duplicate-free rounds replaying ``np.add.at(target, idx, values)``.

    ``np.add.at`` applies the additions of repeated indices in position
    order, but pays an unbuffered per-element inner loop to do it.  The
    same accumulation decomposes into **rounds**: round *k* holds the
    ``(k+1)``-th occurrence (in position order) of every index, so each
    round is duplicate-free and applies as one vectorized fancy-index
    ``+=``.  Applying the rounds in order feeds every target cell its
    contributions in exactly the position order ``np.add.at`` used —
    float addition order identical, results bitwise identical.  Most
    stamp index arrays need one round plus a small remainder (shared
    nodes, the ground dump row), so the hot path becomes a couple of
    gather/add/scatter passes instead of a scalar loop.
    """
    idx = np.asarray(idx)
    occurrence = np.empty(idx.shape, dtype=np.intp)
    counts: dict = {}
    for pos, value in enumerate(idx.tolist()):
        occurrence[pos] = counts.get(value, 0)
        counts[value] = occurrence[pos] + 1
    n_rounds = max(counts.values(), default=0)
    return tuple(
        (idx[positions], positions)
        for k in range(n_rounds)
        for positions in (np.flatnonzero(occurrence == k),)
    )


def _apply_scatter(target: np.ndarray, program: tuple, values: np.ndarray) -> None:
    """Run a :func:`_scatter_program`: ``target[..., idx] += values``,
    accumulating repeated indices in ``np.add.at`` order."""
    values = np.broadcast_to(values, target.shape[:-1] + values.shape[-1:])
    for cols, positions in program:
        target[..., cols] += values[..., positions]


class _MosfetGroupStructure:
    """Index arrays for all MOSFETs sharing one stacked evaluation.

    Value-free: built from terminal node indices only, shareable across
    every circuit with the same structural fingerprint.  ``slots`` are
    the members' positions in ``circuit.elements``, used at bind time to
    gather the matching models out of a concrete netlist.
    """

    def __init__(self, slots: List[int], elements: List[_el.MOSFET], n: int):
        naug = n + 1
        self.slots = list(slots)

        def aug(index: int) -> int:
            return index if index >= 0 else n

        g = np.array([aug(e.g) for e in elements])
        d = np.array([aug(e.d) for e in elements])
        s = np.array([aug(e.s) for e in elements])
        self.g_idx, self.d_idx, self.s_idx = g, d, s

        # I-V stamps: residual +ids at d, -ids at s; Jacobian entries
        # (d,g) (d,d) (d,s) (s,g) (s,d) (s,s) = gm gds gms -gm -gds -gms.
        self.f_idx = np.concatenate([d, s])
        rows = np.concatenate([d, d, d, s, s, s])
        cols = np.concatenate([g, d, s, g, d, s])
        self.j_idx = rows * naug + cols

        # Charge stamps over terminals (g, d, s), terminal-major layout.
        term = {"g": g, "d": d, "s": s}
        self.qf_idx = np.concatenate([term[t] for t in _TERMS])
        self.qj_idx = np.concatenate(
            [term[ti] * naug + term[tj] for ti in _TERMS for tj in _TERMS]
        )

        # Scatter programs: duplicate-free rounds equivalent (bitwise) to
        # ``np.add.at`` over the index arrays above; built once per
        # structure.
        self.f_prog = _scatter_program(self.f_idx)
        self.j_prog = _scatter_program(self.j_idx)
        self.qf_prog = _scatter_program(self.qf_idx)
        self.qj_prog = _scatter_program(self.qj_idx)


class _MosfetGroup:
    """A group structure bound to one circuit's stacked device."""

    def __init__(self, structure: _MosfetGroupStructure, models):
        self.structure = structure
        self.device = _stack_devices(models)

    def gather(self, v_aug: np.ndarray):
        st = self.structure
        return v_aug[..., st.g_idx], v_aug[..., st.d_idx], v_aug[..., st.s_idx]

    def charge_flat(self, v_aug: np.ndarray) -> np.ndarray:
        """Terminal charges in ``qf_idx`` layout, shape ``batch + (3 n_dev,)``."""
        qg, qd, qs = self.device.charges(*self.gather(v_aug))
        return np.concatenate(
            np.broadcast_arrays(qg, qd, qs), axis=-1
        )


class _CapacitorGroupStructure:
    """Index arrays for the stacked linear-capacitor group (value-free)."""

    def __init__(self, slots: List[int], elements: List[_el.Capacitor], n: int):
        def aug(index: int) -> int:
            return index if index >= 0 else n

        self.slots = list(slots)
        self.n1_idx = np.array([aug(e.n1) for e in elements])
        self.n2_idx = np.array([aug(e.n2) for e in elements])
        self.qf_idx = np.concatenate([self.n1_idx, self.n2_idx])
        self.qf_prog = _scatter_program(self.qf_idx)


class _CapacitorGroup:
    """The capacitor structure bound to one circuit's values."""

    def __init__(self, structure: _CapacitorGroupStructure, elements):
        self.structure = structure
        self.c = _stack_field([e.capacitance for e in elements])

    def charge_flat(self, v_aug: np.ndarray) -> np.ndarray:
        st = self.structure
        dv = v_aug[..., st.n1_idx] - v_aug[..., st.n2_idx]
        q = np.asarray(self.c) * dv
        return np.concatenate([q, -q], axis=-1)


def _mosfet_signature(model) -> tuple:
    """The group key / structural identity of one MOSFET's model."""
    return (
        type(model),
        int(model.polarity),
        getattr(model, "temperature", None),
        getattr(model, "derivatives", None),
    )


def structural_fingerprint(circuit) -> Optional[tuple]:
    """Topology-only plan key, or None for unplannable netlists.

    Two circuits with equal fingerprints compile to identical index
    bookkeeping — only parameter *values* (and
    batch shapes) differ, and those bind per circuit.  Covers node
    indices, element types and order, and each MOSFET's model
    class/polarity/temperature/derivative mode.  Deliberately excludes
    parameter values, parameter identities and batch shapes, so the
    fresh per-shard circuits a Monte-Carlo factory builds all map to one
    key.
    """
    parts: List[tuple] = [("nodes", circuit.n_nodes)]
    for element in circuit.elements:
        if type(element) is _el.Resistor:
            parts.append(("R", element.n1, element.n2))
        elif type(element) is _el.Capacitor:
            parts.append(("C", element.n1, element.n2))
        elif type(element) is _el.VoltageSource:
            parts.append(("V", element.pos, element.neg))
        elif type(element) is _el.CurrentSource:
            parts.append(("I", element.pos, element.neg))
        elif type(element) is _el.MOSFET:
            model = element.model
            params = getattr(model, "params", None)
            if params is None or not dataclasses.is_dataclass(params):
                return None
            parts.append(
                ("M", element.d, element.g, element.s)
                + _mosfet_signature(model)
            )
        else:
            return None
    return tuple(parts)


class PlanStructure:
    """The value-free half of a compiled plan.

    Element classification (slot lists into ``circuit.elements``) plus
    stacked-group index arrays and scatter programs.  Built once per
    structural fingerprint and shared by every
    :class:`CompiledCircuit` bound from it.
    """

    def __init__(self, circuit):
        self.n = circuit.assign_branches()
        self.n_nodes = circuit.n_nodes
        self.fingerprint = structural_fingerprint(circuit)

        self.resistor_slots: List[int] = []
        self.capacitor_slots: List[int] = []
        self.vsource_slots: List[int] = []
        self.isource_slots: List[int] = []
        mosfet_slots: List[int] = []
        for slot, element in enumerate(circuit.elements):
            if type(element) is _el.Resistor:
                self.resistor_slots.append(slot)
            elif type(element) is _el.Capacitor:
                self.capacitor_slots.append(slot)
            elif type(element) is _el.VoltageSource:
                self.vsource_slots.append(slot)
            elif type(element) is _el.CurrentSource:
                self.isource_slots.append(slot)
            elif type(element) is _el.MOSFET:
                model = element.model
                params = getattr(model, "params", None)
                if params is None or not dataclasses.is_dataclass(params):
                    raise UnsupportedCircuitError(
                        "MOSFET model without a dataclass card"
                    )
                mosfet_slots.append(slot)
            else:
                raise UnsupportedCircuitError(
                    f"unsupported element {type(element).__name__}"
                )

        # Stacked device groups, keyed by (class, polarity, temperature,
        # derivative mode) in first-appearance order.
        grouped: "dict[tuple, List[int]]" = {}
        for slot in mosfet_slots:
            key = _mosfet_signature(circuit.elements[slot].model)
            grouped.setdefault(key, []).append(slot)
        self.mos_group_structures = [
            _MosfetGroupStructure(
                slots, [circuit.elements[i] for i in slots], self.n
            )
            for slots in grouped.values()
        ]
        self.cap_structure = (
            _CapacitorGroupStructure(
                self.capacitor_slots,
                [circuit.elements[i] for i in self.capacitor_slots],
                self.n,
            )
            if self.capacitor_slots
            else None
        )


class CompiledCircuit:
    """A :class:`PlanStructure` bound to one :class:`Circuit`'s values.

    Compilation snapshots element parameters (device cards, resistances,
    capacitances); only *waveform* levels may change between solves.
    :meth:`Circuit.add` invalidates the owner's cached compilation.
    Pass a pre-built *structure* (from a circuit with an equal
    :func:`structural_fingerprint`) to skip the index bookkeeping — the
    structural-cache fast path of
    :class:`repro.api.plans.PlanCache`.
    """

    def __init__(self, circuit, structure: Optional[PlanStructure] = None):
        # Weak back-reference only: plans are held by caches that may
        # outlive the netlist, and a strong ref would pin the circuit
        # (and its batched parameter arrays) for the cache's lifetime.
        self._circuit_ref = weakref.ref(circuit)
        n = circuit.assign_branches()
        if structure is None:
            structure = PlanStructure(circuit)
        elif structure.n != n:
            raise UnsupportedCircuitError(
                "plan structure does not match circuit topology"
            )
        self.structure = structure
        self.n = structure.n
        self.n_nodes = structure.n_nodes
        self.batch = circuit.batch_shape

        elements = circuit.elements
        resistors = [elements[i] for i in structure.resistor_slots]
        capacitors = [elements[i] for i in structure.capacitor_slots]
        self.vsources = [elements[i] for i in structure.vsource_slots]
        self.isources = [elements[i] for i in structure.isource_slots]

        # Constant linear Jacobian: resistor conductances + source pattern.
        lin_batch = ()
        for r in resistors:
            lin_batch = np.broadcast_shapes(
                lin_batch, np.asarray(r.resistance).shape
            )
        j_const = np.zeros(lin_batch + (n, n))
        for r in resistors:
            g = 1.0 / np.asarray(r.resistance, dtype=float)
            for a, b, sign in (
                (r.n1, r.n1, 1.0), (r.n2, r.n2, 1.0),
                (r.n1, r.n2, -1.0), (r.n2, r.n1, -1.0),
            ):
                if a >= 0 and b >= 0:
                    j_const[..., a, b] += sign * g
        for src in self.vsources:
            nb = src.branch_index
            for a, b, sign in (
                (src.pos, nb, 1.0), (src.neg, nb, -1.0),
                (nb, src.pos, 1.0), (nb, src.neg, -1.0),
            ):
                if a >= 0 and b >= 0:
                    j_const[..., a, b] += sign
        self.j_const = j_const

        # Constant capacitor charge Jacobian (node space); the transient
        # folds ``coeff * c_lin`` into the per-step base matrix.
        cap_batch = ()
        for c in capacitors:
            cap_batch = np.broadcast_shapes(
                cap_batch, np.asarray(c.capacitance).shape
            )
        c_lin = np.zeros(cap_batch + (n, n))
        for cap in capacitors:
            cval = np.asarray(cap.capacitance, dtype=float)
            for a, b, sign in (
                (cap.n1, cap.n1, 1.0), (cap.n2, cap.n2, 1.0),
                (cap.n1, cap.n2, -1.0), (cap.n2, cap.n1, -1.0),
            ):
                if a >= 0 and b >= 0:
                    c_lin[..., a, b] += sign * cval
        self.c_lin = c_lin

        # Bind stacked device groups: structure supplies the indices,
        # this circuit supplies the cards.
        self.mos_groups = [
            _MosfetGroup(gs, [elements[i].model for i in gs.slots])
            for gs in structure.mos_group_structures
        ]
        self.cap_group = (
            _CapacitorGroup(structure.cap_structure, capacitors)
            if structure.cap_structure is not None
            else None
        )

    @property
    def circuit(self):
        """The source netlist, or None once it has been collected."""
        return self._circuit_ref()

    # ------------------------------------------------------------------
    # Per-time-point pieces.
    # ------------------------------------------------------------------
    def source_vector(self, t: float) -> np.ndarray:
        """Source contributions ``b(t)`` to the residual."""
        v_vals = [
            np.asarray(src.waveform.value(t), dtype=float)
            for src in self.vsources
        ]
        i_vals = [
            np.asarray(src.waveform.value(t), dtype=float)
            for src in self.isources
        ]
        shape = np.broadcast_shapes(*(v.shape for v in v_vals + i_vals), ())
        b = np.zeros(shape + (self.n,))
        for src, val in zip(self.vsources, v_vals):
            b[..., src.branch_index] -= val
        for src, val in zip(self.isources, i_vals):
            if src.pos >= 0:
                b[..., src.pos] += val
            if src.neg >= 0:
                b[..., src.neg] -= val
        return b

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------
    def _augment(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [v, np.zeros(v.shape[:-1] + (1,))], axis=-1
        )

    def _nonlinear(self, v: np.ndarray):
        """Stacked MOSFET I-V stamps at *v*.

        Returns augmented residual/flat-Jacobian accumulators plus the
        augmented solution vector for reuse by the charge stamps.
        """
        naug = self.n + 1
        batch = v.shape[:-1]
        v_aug = self._augment(v)
        res_aug = np.zeros(batch + (naug,))
        jac_flat = np.zeros(batch + (naug * naug,))
        for grp in self.mos_groups:
            ids, gm, gds, gms = self.device_iv(grp, v_aug)
            _apply_scatter(
                res_aug, grp.structure.f_prog,
                np.concatenate([ids, -ids], axis=-1),
            )
            _apply_scatter(
                jac_flat,
                grp.structure.j_prog,
                np.concatenate([gm, gds, gms, -gm, -gds, -gms], axis=-1),
            )
        return v_aug, res_aug, jac_flat

    @staticmethod
    def device_iv(grp: _MosfetGroup, v_aug: np.ndarray):
        ids, gm, gds, gms = grp.device.ids_and_derivatives(*grp.gather(v_aug))
        return np.broadcast_arrays(ids, gm, gds, gms)

    def _finish(self, v, base_jac, res_aug, jac_flat, b):
        naug = self.n + 1
        batch = v.shape[:-1]
        jac_nl = jac_flat.reshape(batch + (naug, naug))[..., : self.n, : self.n]
        jacobian = jac_nl + base_jac
        residual = (
            res_aug[..., : self.n]
            + np.matmul(self.j_const, v[..., None])[..., 0]
            + b
        )
        return _Assembled(jacobian, residual)

    def assemble_dc(self, t: float):
        """DC assembly closure for :func:`repro.circuit.mna.newton_solve`."""
        b = self.source_vector(t)

        def assemble(v: np.ndarray) -> _Assembled:
            _, res_aug, jac_flat = self._nonlinear(v)
            return self._finish(v, self.j_const, res_aug, jac_flat, b)

        return assemble

    # ------------------------------------------------------------------
    # Transient support (companion-model integration).
    # ------------------------------------------------------------------
    def charge_groups(self):
        """Charge-bearing groups in a stable order (caps first)."""
        groups = []
        if self.cap_group is not None:
            groups.append(self.cap_group)
        groups.extend(self.mos_groups)
        return groups

    def charge_state(self, v: np.ndarray):
        """Flat charge vectors per charge group at solution *v*."""
        v_aug = self._augment(v)
        return [np.array(g.charge_flat(v_aug)) for g in self.charge_groups()]

    def assemble_transient(self, t, coeff, use_be, q_hist, i_hist):
        """Assembly closure for one implicit integration step.

        ``q_hist``/``i_hist`` are the per-group flat charge and companion
        current histories (layouts from :meth:`charge_state`).
        """
        b = self.source_vector(t)
        base_jac = self.j_const + coeff * self.c_lin

        def assemble(v: np.ndarray) -> _Assembled:
            v_aug, res_aug, jac_flat = self._nonlinear(v)
            for k, grp in enumerate(self.charge_groups()):
                if isinstance(grp, _CapacitorGroup):
                    # Linear Jacobian already folded into base_jac.
                    q_new = grp.charge_flat(v_aug)
                else:
                    q0, cmat = grp.device.charges_and_capacitance(
                        *grp.gather(v_aug)
                    )
                    q_new = np.concatenate(
                        np.broadcast_arrays(*q0), axis=-1
                    )
                    cap_vals = np.concatenate(
                        np.broadcast_arrays(
                            *(cmat[(ti, tj)] for ti in _TERMS for tj in _TERMS)
                        ),
                        axis=-1,
                    )
                    _apply_scatter(jac_flat, grp.structure.qj_prog,
                                   coeff * cap_vals)
                i_comp = coeff * (q_new - q_hist[k])
                if not use_be:
                    i_comp = i_comp - i_hist[k]
                _apply_scatter(res_aug, grp.structure.qf_prog, i_comp)
            return self._finish(v, base_jac, res_aug, jac_flat, b)

        return assemble

    def advance_history(self, v, coeff, use_be, q_hist, i_hist):
        """Update charge/current histories at the accepted solution."""
        for k, q_new in enumerate(self.charge_state(v)):
            i_new = coeff * (q_new - q_hist[k])
            if not use_be:
                i_new = i_new - i_hist[k]
            q_hist[k] = q_new
            i_hist[k] = np.broadcast_to(i_new, q_new.shape).copy()


def compile_circuit(
    circuit, structure: Optional[PlanStructure] = None
) -> Optional[CompiledCircuit]:
    """Compile *circuit*, or return None when it contains elements the
    vectorized engine does not know (callers fall back to the generic
    per-element assembly).  A pre-built *structure* skips straight to
    value binding."""
    try:
        return CompiledCircuit(circuit, structure)
    except UnsupportedCircuitError:
        return None
