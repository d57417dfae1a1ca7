"""Compiled batched assembly: the device-axis vectorized MNA engine.

The generic assembly path (:mod:`repro.circuit.dcop` / ``transient``)
walks the element list in Python and stamps one element at a time.  That
is fine for the Monte-Carlo axis — every stamp is vectorized over
samples — but the per-element Python work (model calls, small-array
arithmetic) dominates the runtime of nominal and small-batch transients.

This module removes that loop.  A :class:`CompiledCircuit` partitions
the netlist once:

* **Linear stamps** (resistors, the voltage-source branch pattern) are
  accumulated into a constant matrix ``G`` over all unknowns; the
  per-iteration linear residual is one batched matvec ``G @ v``.  Only
  its node×node block (the resistor conductances) seeds the Jacobian.
* **Sources** are evaluated once per time point into a vector ``b(t)``.
* **MOSFETs are stacked along a trailing device axis**: all transistors
  sharing a model class, temperature and derivative mode become ONE
  stacked device whose parameter card holds arrays of shape
  ``batch + (n_dev,)``.  Polarity rides that axis too — NMOS and PMOS
  members each keep their own ±1 folding sign — so a CMOS cell is one
  group.  One model evaluation per Newton iteration computes every
  transistor of the circuit across every Monte-Carlo sample (a transient
  iteration takes its currents, conductances, charges and capacitances
  from that one evaluation); the results are scattered into the
  Jacobian/residual with precomputed duplicate-free scatter rounds that
  replay ``np.add.at`` on coincident entries bit for bit.  The rounds
  visit one polarity's members before the next polarity's, so every
  matrix cell sums its terms in the grouping the value path pins.
* **Capacitors** are likewise grouped; their constant charge Jacobian is
  folded into the per-step companion base matrix.

Ground bookkeeping happens at plan time: terminals are gathered from the
solution vector with one appended zero (ground reads as 0 V), and the
scatter programs drop every ground entry, so no masking appears in the
hot loop.

**Source elimination.**  Every voltage source must be grounded
at exactly one terminal; each then *pins* its other node, and no node is
pinned twice (anything else raises :class:`UnsupportedCircuitError`).
The unknowns split once per structure into pinned nodes, their sources'
branch currents and free nodes.  The assembled Jacobian is the node×node
block only — the source rows and columns are ±1 constants the plan
knows — and :meth:`_SourcePartition.newton_step` solves the Newton
system by exact block elimination: pinned-node steps come straight from
the source rows, one stacked ``np.linalg.solve`` runs on the free block,
and branch-current steps follow by back-substitution through the pinned
nodes' KCL rows.  In exact arithmetic this is the dense MNA step.

Compilation is split in two (PR 9):

* A :class:`PlanStructure` is the **value-free** part — element
  classification, the source partition, and per-group index arrays and
  scatter programs.  It depends only on the circuit's *structural
  fingerprint* (:func:`structural_fingerprint`: topology + element
  types + model class/polarity/temperature, never parameter values or
  batch shapes), so every per-shard circuit a factory stamps out shares
  one structure.
* A :class:`CompiledCircuit` **binds** a structure to one circuit's
  values: stacked device cards, the constant conductance matrix, the
  linear charge Jacobian.  Binding is cheap — no index bookkeeping.

Sample-for-sample the arithmetic is elementwise, so a batched solve
reproduces the scalar (``batch = ()``) solve of each sample exactly —
the property ``tests/test_batched_circuit.py`` locks in.
"""

from __future__ import annotations

import dataclasses
import logging
import threading
import weakref
from typing import List, Optional

import numpy as np

from repro.circuit import elements as _el
from repro.circuit.mna import _solve_stacked
from repro.obs import default_registry, get_logger, log_event

__all__ = [
    "CompiledCircuit",
    "PlanStructure",
    "UnsupportedCircuitError",
    "compile_circuit",
    "record_fallback",
    "structural_fingerprint",
]

#: Charge terminal order of a MOSFET group (matches ``MOSFET.charge_terminals``).
_TERMS = ("g", "d", "s")

_LOG = get_logger("circuit.compiled")
#: Fallback reasons already warned about in this process.
_FALLBACK_WARNED: set = set()
_FALLBACK_LOCK = threading.Lock()


class UnsupportedCircuitError(TypeError):
    """The netlist contains elements the vectorized engine cannot plan.

    This is the ONLY condition under which :func:`compile_circuit` falls
    back to the generic per-element path — genuine defects inside the
    compiler propagate instead of silently degrading to the slow path.
    *reason* is a short stable label (``unsupported_element``,
    ``floating_source``, ...) for ``repro_compile_fallbacks_total``.
    """

    def __init__(self, message: str, reason: str = "unsupported"):
        super().__init__(message)
        self.reason = reason


def record_fallback(error: UnsupportedCircuitError) -> None:
    """Make one generic-path fallback visible.

    Counts it in ``repro_compile_fallbacks_total{reason}`` and logs one
    structured ``compile.fallback`` warning per reason per process.
    Scheduling-side only: nothing here changes which path runs.
    """
    reason = error.reason
    default_registry().counter(
        "repro_compile_fallbacks_total",
        "Circuits sent to the generic per-element path, by reason",
        labels={"reason": reason},
    ).inc()
    with _FALLBACK_LOCK:
        first = reason not in _FALLBACK_WARNED
        _FALLBACK_WARNED.add(reason)
    if first:
        log_event(_LOG, "compile.fallback", level=logging.WARNING,
                  reason=reason, detail=str(error))


class _Assembled:
    """Duck-typed :class:`repro.circuit.mna.System` result.

    ``jacobian`` is the node×node block, ``residual`` covers every
    unknown, and ``newton_step`` is the plan's
    :meth:`_SourcePartition.newton_step`, which eliminates the source
    unknowns.
    """

    __slots__ = ("jacobian", "residual", "newton_step")

    def __init__(self, jacobian: np.ndarray, residual: np.ndarray,
                 newton_step):
        self.jacobian = jacobian
        self.residual = residual
        self.newton_step = newton_step


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

    All models share a class, temperature and derivative mode (the group
    key), so only the numeric card fields and the polarity differ.  Each
    card field is stacked along a trailing device axis, and so is the
    folding sign: the stacked device's ``sign`` holds one ±1 per member
    (a plain float when all members agree) and the device has no
    ``polarity`` at all, so nothing can fold a mixed NMOS/PMOS group
    with one member's polarity.  The stacked card keeps the first
    member's ``polarity`` field, which no model arithmetic reads.  The
    stacked instance bypasses ``__init__`` — the member cards are
    already validated and temperature-adjusted — and copies every other
    instance attribute (temperature, derived constants like ``phit``)
    from the first member, so any :class:`DeviceModel` subclass with
    elementwise math stacks cleanly.
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
    del stacked.polarity
    stacked.sign = _stack_field([m.sign for m in models])
    stacked.params = dataclasses.replace(first.params, **changes)
    return stacked


def _scatter_program(idx: np.ndarray, order=None) -> tuple:
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
    nodes), so the hot path becomes a couple of gather/add/scatter
    passes instead of a scalar loop.  Negative indices (ground entries)
    are dropped at plan time; every other cell still sees its
    contributions in position order.

    *order*, a permutation of the positions (default: position order),
    sets the order in which each cell receives its contributions: round
    *k* holds every index's ``(k+1)``-th occurrence in *order*.  The
    program then equals ``np.add.at`` over the values taken in *order*.
    """
    idx = np.asarray(idx)
    cells = idx.tolist()
    occurrence = np.full(idx.shape, -1, dtype=np.intp)
    counts: dict = {}
    for pos in (range(idx.size) if order is None else order):
        cell = cells[pos]
        if cell < 0:
            continue
        occurrence[pos] = counts.get(cell, 0)
        counts[cell] = occurrence[pos] + 1
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


def _subgroup_order(n_blocks: int, bounds) -> List[int]:
    """Visit order of a block-major stamp layout over subgroups.

    The layout holds *n_blocks* blocks of one entry per device; the
    devices form contiguous subgroups ``bounds[i]:bounds[i + 1]``.  The
    order visits each subgroup's entries block by block before the next
    subgroup's — the order in which separate per-subgroup programs
    applied one after another would stamp.
    """
    n_dev = bounds[-1]
    return [
        block * n_dev + dev
        for lo, hi in zip(bounds[:-1], bounds[1:])
        for block in range(n_blocks)
        for dev in range(lo, hi)
    ]


def _gather_index(nodes: np.ndarray, n: int) -> np.ndarray:
    """Node indices into ``v`` with one appended zero: ground reads 0 V."""
    return np.where(nodes < 0, n, nodes)


def _block_index(rows: np.ndarray, cols: np.ndarray, n_nodes: int) -> np.ndarray:
    """Flat row-major index into the node×node Jacobian block; entries
    in a ground row or column become -1 (dropped by the scatter)."""
    return np.where((rows >= 0) & (cols >= 0), rows * n_nodes + cols, -1)


class _MosfetGroupStructure:
    """Index arrays for all MOSFETs sharing one stacked evaluation.

    Value-free: built from terminal node indices only, shareable across
    every circuit with the same structural fingerprint.  *subgroups* are
    the members' positions in ``circuit.elements``, one list per
    polarity in first-appearance order; ``slots`` concatenates them (the
    device-axis order), used at bind time to gather the matching models
    out of a concrete netlist.
    """

    def __init__(self, subgroups: List[List[int]], elements: list,
                 n: int, n_nodes: int):
        self.slots = [slot for sub in subgroups for slot in sub]
        bounds = np.cumsum([0] + [len(sub) for sub in subgroups]).tolist()
        members = [elements[i] for i in self.slots]
        g = np.array([e.g for e in members])
        d = np.array([e.d for e in members])
        s = np.array([e.s for e in members])
        self.g_idx, self.d_idx, self.s_idx = (
            _gather_index(g, n), _gather_index(d, n), _gather_index(s, n)
        )

        # Scatter programs, duplicate-free rounds equivalent (bitwise) to
        # ``np.add.at`` with ground entries dropped; built once per
        # structure.  Each visits the subgroups in order (all of one
        # polarity's blocks, then the next's): the per-cell summation
        # order of the value path, which the golden figures pin.  I-V
        # stamps: residual +ids at d, -ids at s; Jacobian entries (d,g)
        # (d,d) (d,s) (s,g) (s,d) (s,s) = gm gds gms -gm -gds -gms.
        self.f_prog = _scatter_program(
            np.concatenate([d, s]), _subgroup_order(2, bounds)
        )
        self.j_node_prog = _scatter_program(_block_index(
            np.concatenate([d, d, d, s, s, s]),
            np.concatenate([g, d, s, g, d, s]),
            n_nodes,
        ), _subgroup_order(6, bounds))

        # Charge stamps over terminals (g, d, s), terminal-major layout.
        term = {"g": g, "d": d, "s": s}
        self.qf_prog = _scatter_program(
            np.concatenate([term[t] for t in _TERMS]),
            _subgroup_order(3, bounds),
        )
        self.qj_node_prog = _scatter_program(np.concatenate([
            _block_index(term[ti], term[tj], n_nodes)
            for ti in _TERMS for tj in _TERMS
        ]), _subgroup_order(9, bounds))


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
        self.slots = list(slots)
        n1 = np.array([e.n1 for e in elements])
        n2 = np.array([e.n2 for e in elements])
        self.n1_idx, self.n2_idx = _gather_index(n1, n), _gather_index(n2, n)
        self.qf_prog = _scatter_program(np.concatenate([n1, n2]))


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


class _SourcePartition:
    """The unknowns split by the grounded ideal voltage sources.

    Value-free, built once per :class:`PlanStructure`.  Each source is
    grounded at exactly one terminal and pins the other node: its branch
    row reads ``sign * dv[node] = -r[branch]`` (sign +1 when the node is
    the positive terminal, -1 when it is the negative one), and the
    pinned node's KCL row carries ``sign * dv[branch]``.  The remaining
    nodes are free.  A floating source, or a node pinned twice, raises
    :class:`UnsupportedCircuitError` (the generic path then solves the
    dense system).
    """

    def __init__(self, vsources, n_nodes: int):
        pinned: List[int] = []
        signs: List[float] = []
        for src in vsources:
            if src.pos >= 0 > src.neg:
                node, sign = src.pos, 1.0
            elif src.neg >= 0 > src.pos:
                node, sign = src.neg, -1.0
            else:
                raise UnsupportedCircuitError(
                    f"voltage source {src.name!r} is not grounded at "
                    "exactly one terminal", reason="floating_source",
                )
            if node in pinned:
                raise UnsupportedCircuitError(
                    f"voltage source {src.name!r} pins a node another "
                    "source already pins", reason="node_pinned_twice",
                )
            pinned.append(node)
            signs.append(sign)
        self.n_nodes = n_nodes
        self.pinned = np.array(pinned, dtype=np.intp)
        self.branches = np.array(
            [src.branch_index for src in vsources], dtype=np.intp
        )
        #: ``-sign``: both source-row solves are ``-sign * r``, exact for ±1.
        self.neg_sign = -np.array(signs)
        self.free = np.array(
            sorted(set(range(n_nodes)) - set(pinned)), dtype=np.intp
        )
        # Flat indices into a row-major (n_nodes, n_nodes) block.
        p, f, nodes = self.pinned, self.free, np.arange(n_nodes)
        self.ff_idx = (f[:, None] * n_nodes + f[None, :]).ravel()
        self.fp_idx = (f[:, None] * n_nodes + p[None, :]).ravel()
        self.pn_idx = (p[:, None] * n_nodes + nodes[None, :]).ravel()

    def newton_step(self, jacobian: np.ndarray, residual: np.ndarray):
        """Newton updates ``dv`` solving ``J dv = -r`` by elimination.

        *jacobian* is the stacked node×node block ``(k, N, N)``,
        *residual* covers all unknowns ``(k, n)``.  Same contract as
        :func:`repro.circuit.mna._solve_stacked`: returns ``(dv,
        solvable)`` with *solvable* None unless a free block was
        singular (those rows are flagged False).
        """
        k = residual.shape[0]
        nf, npin, n_nodes = self.free.size, self.pinned.size, self.n_nodes
        jac = jacobian.reshape(k, n_nodes * n_nodes)
        dv = np.empty_like(residual)
        # Pinned nodes: straight from the source rows.
        dv_pinned = self.neg_sign * residual[:, self.branches]
        dv[:, self.pinned] = dv_pinned
        # Free nodes: A_ff dv_f = -(r_f + A_fp dv_p).
        r_free = residual[:, self.free] + np.matmul(
            jac[:, self.fp_idx].reshape(k, nf, npin), dv_pinned[:, :, None]
        )[:, :, 0]
        dv_free, solvable = _solve_stacked(
            jac[:, self.ff_idx].reshape(k, nf, nf), r_free
        )
        dv[:, self.free] = dv_free
        # Branch currents: back-substitute the pinned nodes' KCL rows,
        # A_pn dv_n + sign dv_b = -r_p.
        r_pinned = residual[:, self.pinned] + np.matmul(
            jac[:, self.pn_idx].reshape(k, npin, n_nodes),
            dv[:, :n_nodes, None],
        )[:, :, 0]
        dv[:, self.branches] = self.neg_sign * r_pinned
        return dv, solvable


def _mosfet_signature(model) -> tuple:
    """The structural identity of one MOSFET's model; without the
    polarity (second entry) it is the stacked-group key."""
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

    Element classification (slot lists into ``circuit.elements``), the
    :class:`_SourcePartition` of the unknowns, and stacked-group index
    arrays and scatter programs.  Built once per structural fingerprint
    and shared by every :class:`CompiledCircuit` bound from it.
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
                        "MOSFET model without a dataclass card",
                        reason="model_without_card",
                    )
                mosfet_slots.append(slot)
            else:
                raise UnsupportedCircuitError(
                    f"unsupported element {type(element).__name__}",
                    reason="unsupported_element",
                )
        self.partition = _SourcePartition(
            [circuit.elements[i] for i in self.vsource_slots], self.n_nodes
        )

        # Stacked device groups, keyed by (class, temperature, derivative
        # mode) in first-appearance order; inside each, one subgroup per
        # polarity in first-appearance order.
        grouped: "dict[tuple, dict]" = {}
        for slot in mosfet_slots:
            cls, polarity, *rest = _mosfet_signature(
                circuit.elements[slot].model
            )
            grouped.setdefault((cls, *rest), {}).setdefault(
                polarity, []
            ).append(slot)
        self.mos_group_structures = [
            _MosfetGroupStructure(
                list(subgroups.values()), circuit.elements, self.n,
                self.n_nodes,
            )
            for subgroups in grouped.values()
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
                "plan structure does not match circuit topology",
                reason="structure_mismatch",
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

        # Constant linear matrix over all unknowns: resistor conductances
        # + source pattern.  The residual's ``G @ v`` uses all of it; the
        # Jacobian only its node×node block (the source pattern lives in
        # the partition).
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
        n_nodes = self.n_nodes
        self.j_nodes = np.ascontiguousarray(
            j_const[..., :n_nodes, :n_nodes]
        ).reshape(lin_batch + (n_nodes * n_nodes,))

        # Constant capacitor charge Jacobian (node block, flat); the
        # transient folds ``coeff * c_lin`` into the per-step base.
        cap_batch = ()
        for c in capacitors:
            cap_batch = np.broadcast_shapes(
                cap_batch, np.asarray(c.capacitance).shape
            )
        c_lin = np.zeros(cap_batch + (n_nodes, n_nodes))
        for cap in capacitors:
            cval = np.asarray(cap.capacitance, dtype=float)
            for a, b, sign in (
                (cap.n1, cap.n1, 1.0), (cap.n2, cap.n2, 1.0),
                (cap.n1, cap.n2, -1.0), (cap.n2, cap.n1, -1.0),
            ):
                if a >= 0 and b >= 0:
                    c_lin[..., a, b] += sign * cval
        self.c_lin = c_lin.reshape(cap_batch + (n_nodes * n_nodes,))

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

    def _nonlinear(self, v: np.ndarray, base_jac: np.ndarray,
                   charges: bool = False):
        """Stacked MOSFET I-V stamps at *v*.

        Returns the augmented solution vector (for reuse by the charge
        stamps), the residual accumulator over all unknowns, the flat
        node×node Jacobian, seeded with the constant *base_jac*, and the
        per-group ``(q, cmat)`` list — with *charges*, each group's
        charges and capacitances from the same device evaluation
        (:meth:`DeviceModel.iv_and_charges`), else empty.
        """
        batch = v.shape[:-1]
        v_aug = self._augment(v)
        res = np.zeros(batch + (self.n,))
        jac_flat = np.empty(batch + base_jac.shape[-1:])
        jac_flat[...] = base_jac
        group_charges = []
        for grp in self.mos_groups:
            terminals = grp.gather(v_aug)
            if charges:
                iv, q_cmat = grp.device.iv_and_charges(*terminals)
                group_charges.append(q_cmat)
            else:
                iv = grp.device.ids_and_derivatives(*terminals)
            ids, gm, gds, gms = np.broadcast_arrays(*iv)
            _apply_scatter(
                res, grp.structure.f_prog,
                np.concatenate([ids, -ids], axis=-1),
            )
            _apply_scatter(
                jac_flat,
                grp.structure.j_node_prog,
                np.concatenate([gm, gds, gms, -gm, -gds, -gms], axis=-1),
            )
        return v_aug, res, jac_flat, group_charges

    def _finish(self, v, res, jac_flat, b):
        n_nodes = self.n_nodes
        residual = res + np.matmul(self.j_const, v[..., None])[..., 0] + b
        return _Assembled(
            jac_flat.reshape(v.shape[:-1] + (n_nodes, n_nodes)),
            residual,
            self.structure.partition.newton_step,
        )

    def assemble_dc(self, t: float):
        """DC assembly closure for :func:`repro.circuit.mna.newton_solve`."""
        b = self.source_vector(t)

        def assemble(v: np.ndarray) -> _Assembled:
            _, res, jac_flat, _ = self._nonlinear(v, self.j_nodes)
            return self._finish(v, res, jac_flat, b)

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
        base_jac = self.j_nodes + coeff * self.c_lin

        def assemble(v: np.ndarray) -> _Assembled:
            v_aug, res, jac_flat, mos_charges = self._nonlinear(
                v, base_jac, charges=True
            )
            mos_charges = iter(mos_charges)
            for k, grp in enumerate(self.charge_groups()):
                if isinstance(grp, _CapacitorGroup):
                    # Linear Jacobian already folded into base_jac.
                    q_new = grp.charge_flat(v_aug)
                else:
                    q0, cmat = next(mos_charges)
                    q_new = np.concatenate(
                        np.broadcast_arrays(*q0), axis=-1
                    )
                    cap_vals = np.concatenate(
                        np.broadcast_arrays(
                            *(cmat[(ti, tj)] for ti in _TERMS for tj in _TERMS)
                        ),
                        axis=-1,
                    )
                    _apply_scatter(jac_flat, grp.structure.qj_node_prog,
                                   coeff * cap_vals)
                i_comp = coeff * (q_new - q_hist[k])
                if not use_be:
                    i_comp = i_comp - i_hist[k]
                _apply_scatter(res, grp.structure.qf_prog, i_comp)
            return self._finish(v, res, jac_flat, b)

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
    """Compile *circuit*, or return None when the vectorized engine
    cannot plan it (callers fall back to the generic per-element
    assembly; :func:`record_fallback` counts and warns).  A pre-built
    *structure* skips straight to value binding."""
    try:
        return CompiledCircuit(circuit, structure)
    except UnsupportedCircuitError as error:
        record_fallback(error)
        return None
