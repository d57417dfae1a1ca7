"""Compiled batched assembly: the device-axis vectorized MNA engine.

The generic assembly path (:mod:`repro.circuit.dcop` / ``transient``)
walks the element list in Python and stamps one element at a time.  That
is fine for the Monte-Carlo axis — every stamp is vectorized over
samples — but the per-element Python work (model calls, small-array
arithmetic) dominates the runtime of nominal and small-batch transients.

This module removes that loop.  A :class:`CompiledCircuit` partitions
the netlist once:

* **Linear stamps** (resistor conductances) form a constant node×node
  matrix; its free rows seed the Jacobian and give the linear residual,
  one batched matvec per iteration.
* **Sources** are evaluated once per time point.
* **MOSFETs are stacked along a trailing device axis**: all transistors
  sharing a model class, temperature and derivative mode become ONE
  stacked device whose parameter card holds arrays of shape
  ``batch + (n_dev,)``.  Polarity rides that axis too — NMOS and PMOS
  members each keep their own ±1 folding sign — so a CMOS cell is one
  group.  One model evaluation per Newton iteration computes every
  iterated transistor across every Monte-Carlo sample (a transient
  iteration takes its currents, conductances, charges and capacitances
  from that one evaluation).  A transient evaluates once per time
  point (:meth:`CompiledCircuit.transient_point`): the evaluation at
  an accepted solution closes its KCL and charge history and is the
  next step's first Newton iteration, which starts there.  The results
  are scattered into the Jacobian/residual with precomputed
  duplicate-free scatter rounds that replay ``np.add.at`` on
  coincident entries bit for bit; a round of one entry adds through a
  view.  The rounds visit one polarity's members before the next
  polarity's, so every matrix cell sums its terms in the grouping the
  value path pins.
* **Capacitors** are likewise grouped; their constant charge Jacobian is
  folded into the per-step companion base matrix.

Ground bookkeeping happens at plan time: terminals are gathered from the
solution vector with one appended zero (ground reads as 0 V), and the
scatter programs drop every ground entry, so no masking appears in the
hot loop.

**Free-row Newton.**  Every voltage source must be grounded at exactly
one terminal; each then *pins* its other node, and no node is pinned
twice (anything else raises :class:`UnsupportedCircuitError`).  The
unknowns split once per structure into pinned nodes, their sources'
branch currents and free nodes.  The Newton loop assembles, steps and
tests the free-node rows only: the scatter programs stamp the free rows
of the residual and the free rows × all nodes block of the Jacobian,
whose columns are laid out free nodes first, then pinned nodes, so the
step's ff and fp blocks are views of it.  (The residual's resistor
matvec keeps node order: its sums are on the value path.)  A DC
iteration leaves out of the iterated stacked device every MOSFET whose
drain and source are both pinned or grounded (it stamps no free row); a
transient iterates every member.
:meth:`_FreeRowSystem.newton_step` takes the pinned-node steps from the
source rows and solves the free block with one stacked
``np.linalg.solve``; in exact arithmetic its node updates are those of
the dense MNA step.
Branch currents do not move inside the loop: they come from KCL once per
converged solution, at every pinned node, from all members, with the
gmin term each sample's residual carried when it converged
(:meth:`CompiledCircuit.set_branch_currents` in ``dc_operating_point``,
:meth:`CompiledCircuit.advance_history` at each accepted time step, from
that time point's evaluation); a DC sweep reports node voltages only and
skips them.

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


class _FreeRowSystem:
    """One compiled Newton iteration's system: the free-node rows only.

    ``jacobian`` is the free rows × all nodes block with its columns
    laid out free nodes first, then pinned nodes (``_SourcePartition.
    column``), flat ``batch + (nf * n_nodes,)``, so the step's ff and fp
    blocks are views; ``residual`` is the free rows ``batch + (nf,)``.
    Both are before gmin conditioning.  ``b_branch`` holds each
    source's ``-V(t)`` in partition order.
    """

    __slots__ = ("jacobian", "residual", "b_branch", "partition")

    def __init__(self, jacobian: np.ndarray, residual: np.ndarray,
                 b_branch: np.ndarray, partition: "_SourcePartition"):
        self.jacobian = jacobian
        self.residual = residual
        self.b_branch = b_branch
        self.partition = partition

    def newton_step(self, v: np.ndarray, sel: np.ndarray, gmin: float,
                    n_nodes: int):
        """Node updates ``dv`` of the samples *sel* solving ``J dv = -r``.

        *v* is the flat ``(N, n)`` solution and *sel* the active sample
        indices (protocol of :meth:`repro.circuit.mna.System.
        newton_step`); the selected rows are gathered whole, once.
        Pinned nodes step straight from the source rows, ``dv_p = -sign
        * (sign * v_p - V)``; the free nodes solve ``A_ff dv_f = -(r_f +
        A_fp dv_p)``, the ff block conditioned with ``+gmin`` on its
        diagonal and the free residual with ``+gmin * v``, in one
        stacked ``np.linalg.solve`` (:func:`repro.circuit.mna.
        _solve_stacked`).  The system itself is left as assembled.
        Returns ``(dv, solvable, residual)``: *dv* ``(k, n_nodes)`` over
        the node unknowns (branch currents do not move), *solvable* as
        ``_solve_stacked`` gives it, and the gmin-conditioned free-row
        residual the convergence test reads.
        """
        part = self.partition
        nf, npin = part.free.size, part.pinned.size
        n_samples, k = v.shape[0], sel.size
        jac = self.jacobian.reshape(n_samples, nf, n_nodes)[sel]
        v = v[sel]
        residual = self.residual.reshape(n_samples, nf)[sel] + gmin * v[
            :, part.free
        ]
        b_branch = self.b_branch
        if b_branch.ndim > 1:  # batched source levels
            b_branch = np.broadcast_to(
                b_branch, self.residual.shape[:-1] + (npin,)
            ).reshape(n_samples, npin)[sel]
        dv_pinned = part.neg_sign * (part.sign * v[:, part.pinned]
                                     + b_branch)
        r_free = residual + np.matmul(
            jac[:, :, nf:], dv_pinned[:, :, None]
        )[:, :, 0]
        a_ff = jac[:, :, :nf].copy()
        a_ff.reshape(k, nf * nf)[:, ::nf + 1] += gmin
        dv_free, solvable = _solve_stacked(a_ff, r_free)
        dv = np.empty((k, n_nodes))
        dv[:, part.pinned] = dv_pinned
        dv[:, part.free] = dv_free
        return dv, solvable, residual


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


def _rebuilt(template, sign, field):
    """A copy of the device *template* with folding *sign* and every card
    field but ``polarity`` set to ``field(name)``.

    The copy bypasses ``__init__`` — the cards it derives from are
    already validated and temperature-adjusted — and copies every other
    instance attribute (temperature, derived constants like ``phit``)
    from *template*, so any :class:`DeviceModel` subclass with
    elementwise math rebuilds cleanly.  It has no ``polarity``
    attribute: its ``sign`` may hold one ±1 per member, and nothing can
    fold a mixed NMOS/PMOS group with one member's polarity.  The card
    keeps the template's ``polarity`` field, which no model arithmetic
    reads.
    """
    cls = type(template)
    device = cls.__new__(cls)
    device.__dict__.update(template.__dict__)
    device.__dict__.pop("polarity", None)
    device.sign = sign
    device.params = dataclasses.replace(template.params, **{
        f.name: field(f.name)
        for f in dataclasses.fields(template.params) if f.name != "polarity"
    })
    return device


def _stack_devices(models):
    """One stacked device evaluating all of *models* in a single call.

    All models share a class, temperature and derivative mode (the group
    key), so only the numeric card fields and the polarity differ.  Each
    card field is stacked along a trailing device axis, and so is the
    folding sign: the stacked device's ``sign`` holds one ±1 per member
    (a plain float when all members agree).  Everything else comes from
    the first member (:func:`_rebuilt`).
    """
    return _rebuilt(
        models[0], _stack_field([m.sign for m in models]),
        lambda name: _stack_field([getattr(m.params, name) for m in models]),
    )


def _take_members(device, members: np.ndarray):
    """The stacked *device* restricted to the members at *members*.

    Every stacked card field (and ``sign``) is a shared scalar or an
    array over a trailing device axis; the subset takes those positions.
    Member by member the arithmetic is that of the full stacked device,
    so the subset's values are the full device's bit for bit.
    """
    def take(value):
        return value if np.ndim(value) == 0 else value[..., members]

    return _rebuilt(device, take(device.sign),
                    lambda name: take(getattr(device.params, name)))


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
    accumulating repeated indices in ``np.add.at`` order.

    A round of one entry adds through a view (basic indexing) instead
    of a fancy-index get, add and set: the same elementwise sums.
    """
    lead = target.shape[:-1]
    if values.shape[:-1] != lead:
        values = np.broadcast_to(values, lead + values.shape[-1:])
    for cols, positions in program:
        if cols.size == 1:
            target[..., cols[0]] += values[..., positions[0]]
        else:
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


def _row_index(nodes: np.ndarray, row_map: np.ndarray) -> np.ndarray:
    """Each node's row under *row_map*; ground, and nodes the map gives
    no row, become -1 (dropped by the scatter)."""
    return np.where(nodes >= 0, row_map[nodes], -1)


def _block_index(rows: np.ndarray, nodes: np.ndarray,
                 column: np.ndarray) -> np.ndarray:
    """Flat row-major index into a rows × all nodes block whose columns
    *column* lays out; entries without a row or in a ground column
    become -1 (dropped by the scatter)."""
    return np.where((rows >= 0) & (nodes >= 0),
                    rows * column.size + column[nodes], -1)


#: Jacobian entries of one I-V stamp: (row terminal, column terminal)
#: for gm gds gms -gm -gds -gms.
_IV_ENTRIES = (("d", "g"), ("d", "d"), ("d", "s"),
               ("s", "g"), ("s", "d"), ("s", "s"))


class _MemberStamps:
    """Scatter programs of one subset of a MOSFET group's members.

    *members* are ascending positions along the group's device axis,
    *row_map* maps each node to its target row (-1: none) and *column*
    to its Jacobian column (``_SourcePartition.column``).  The programs
    take the subset's values in device-axis order and visit them
    subgroup by subgroup (all of one polarity's blocks, then the
    next's), so every target cell sums its terms in the order the
    whole group's stamps would — the per-cell summation order of the
    value path, which the golden figures pin.  *programs* names the
    ones built: ``f_prog`` stamps the I-V residual (+ids at d, -ids at
    s), ``j_prog`` the :data:`_IV_ENTRIES` into the flat rows × all
    nodes block, ``qf_prog`` the charges over terminals (g, d, s),
    terminal-major, and ``qj_prog`` the capacitance entries into that
    block.  ``gather`` indexes the members' (g, d, s) voltages in ``v``
    with one appended zero.
    """

    def __init__(self, terminals, bounds, members: np.ndarray,
                 row_map: np.ndarray, column: np.ndarray, n: int, programs):
        self.members = members
        sub_bounds = np.searchsorted(members, bounds).tolist()
        nodes = dict(zip(_TERMS, (t[members] for t in terminals)))
        rows = {t: _row_index(nodes[t], row_map) for t in _TERMS}
        self.gather = tuple(_gather_index(nodes[t], n) for t in _TERMS)
        layouts = {
            "f_prog": [rows["d"], rows["s"]],
            "j_prog": [_block_index(rows[r], nodes[c], column)
                       for r, c in _IV_ENTRIES],
            "qf_prog": [rows[t] for t in _TERMS],
            "qj_prog": [_block_index(rows[ti], nodes[tj], column)
                        for ti in _TERMS for tj in _TERMS],
        }
        for name in programs:
            blocks = layouts[name]
            order = _subgroup_order(len(blocks), sub_bounds)
            setattr(self, name,
                    _scatter_program(np.concatenate(blocks), order))


class _MosfetGroupStructure:
    """Index arrays for all MOSFETs sharing one stacked evaluation.

    Value-free: built from terminal node indices only, shareable across
    every circuit with the same structural fingerprint.  *subgroups* are
    the members' positions in ``circuit.elements``, one list per
    polarity in first-appearance order; ``slots`` concatenates them (the
    device-axis order), used at bind time to gather the matching models
    out of a concrete netlist.

    Three member subsets carry their own programs: ``dc`` iterates the
    members whose drain or source is a free node (a DC I-V stamp touches
    rows d and s only) into the free rows; ``tran`` iterates every
    member into the free rows, charges included (a member's stamps on
    rows without a free node are dropped); ``kcl`` is every member into
    the pinned rows, for the branch currents.
    """

    def __init__(self, subgroups: List[List[int]], elements: list,
                 n: int, partition: "_SourcePartition"):
        self.slots = [slot for sub in subgroups for slot in sub]
        bounds = np.cumsum([0] + [len(sub) for sub in subgroups]).tolist()
        members = [elements[i] for i in self.slots]
        terminals = tuple(
            np.array([getattr(e, t) for e in members], dtype=np.intp)
            for t in _TERMS
        )
        d, s = (_row_index(t, partition.free_row) >= 0 for t in terminals[1:])
        every = np.arange(len(members))
        column = partition.column
        self.dc = _MemberStamps(terminals, bounds, np.flatnonzero(d | s),
                                partition.free_row, column, n,
                                ("f_prog", "j_prog"))
        self.tran = _MemberStamps(terminals, bounds, every,
                                  partition.free_row, column, n,
                                  ("f_prog", "j_prog", "qf_prog", "qj_prog"))
        self.kcl = _MemberStamps(terminals, bounds, every,
                                 partition.pinned_row, column, n,
                                 ("f_prog", "qf_prog"))


class _MosfetGroup:
    """A group structure bound to one circuit's stacked device.

    ``device`` stacks every member; ``dc_device`` is the members a DC
    iteration evaluates (the device itself when that is every member).
    """

    def __init__(self, structure: _MosfetGroupStructure, models):
        self.structure = structure
        self.device = _stack_devices(models)
        members = structure.dc.members
        self.dc_device = (
            self.device if members.size == len(models)
            else _take_members(self.device, members)
        )

    def gather(self, v_aug: np.ndarray, stamps: _MemberStamps):
        return tuple(v_aug[..., idx] for idx in stamps.gather)


class _CapacitorGroupStructure:
    """Index arrays for the stacked linear-capacitor group (value-free):
    charge stamps into the free rows (``qf_prog``) and the pinned rows
    (``kcl_qf_prog``)."""

    def __init__(self, slots: List[int], elements: List[_el.Capacitor],
                 n: int, partition: "_SourcePartition"):
        self.slots = list(slots)
        n1 = np.array([e.n1 for e in elements], dtype=np.intp)
        n2 = np.array([e.n2 for e in elements], dtype=np.intp)
        self.n1_idx, self.n2_idx = _gather_index(n1, n), _gather_index(n2, n)
        nodes = np.concatenate([n1, n2])
        self.qf_prog = _scatter_program(_row_index(nodes, partition.free_row))
        self.kcl_qf_prog = _scatter_program(
            _row_index(nodes, partition.pinned_row)
        )


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
    row reads ``sign * v[node] - V(t)`` (sign +1 when the node is the
    positive terminal, -1 when it is the negative one), and the pinned
    node's KCL row carries ``sign * i[branch]``.  The remaining nodes
    are free.  ``free_row`` and ``pinned_row`` give each node's row in
    the free and the pinned row sets (-1 where it has none), and
    ``column`` each node's column in the free-row Jacobian: the free
    nodes first, then the pinned nodes in partition order.  A floating
    source, or a node pinned twice, raises
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
        self.sign = np.array(signs)
        #: ``-sign``: both source-row solves are ``-sign * r``, exact for ±1.
        self.neg_sign = -self.sign
        self.free = np.array(
            sorted(set(range(n_nodes)) - set(pinned)), dtype=np.intp
        )
        nf = self.free.size
        self.free_row = np.full(n_nodes, -1, dtype=np.intp)
        self.free_row[self.free] = np.arange(nf)
        self.pinned_row = np.full(n_nodes, -1, dtype=np.intp)
        self.pinned_row[self.pinned] = np.arange(self.pinned.size)
        self.column = np.empty(n_nodes, dtype=np.intp)
        self.column[np.concatenate([self.free, self.pinned])] = np.arange(
            n_nodes
        )


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
                self.partition,
            )
            for subgroups in grouped.values()
        ]
        self.cap_structure = (
            _CapacitorGroupStructure(
                self.capacitor_slots,
                [circuit.elements[i] for i in self.capacitor_slots],
                self.n, self.partition,
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

        # Resistor conductances over the node block: their free rows seed
        # the Jacobian and give the free rows' linear residual; their
        # pinned rows enter the branch currents' KCL.  The source pattern
        # lives in the partition.
        part = structure.partition
        g_nodes = _two_terminal_block(
            resistors, [1.0 / np.asarray(r.resistance, dtype=float)
                        for r in resistors], self.n_nodes,
        )
        self.j_base = _free_block(g_nodes, part)
        self.g_free = g_nodes[..., part.free, :] if resistors else None
        self.g_pinned = g_nodes[..., part.pinned, :] if resistors else None
        # Constant capacitor charge Jacobian (free rows, flat); the
        # transient folds ``coeff * c_base`` into the per-step base.
        self.c_base = _free_block(_two_terminal_block(
            capacitors, [c.capacitance for c in capacitors], self.n_nodes,
        ), part)

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
    def sources(self, t: float):
        """``(b_branch, b_free, b_pinned)`` at time *t*: each source's
        ``-V(t)`` in partition order, and the current sources' terms on
        the free and the pinned rows (None without current sources)."""
        v_vals = [
            np.asarray(src.waveform.value(t), dtype=float)
            for src in self.vsources
        ]
        i_vals = [
            np.asarray(src.waveform.value(t), dtype=float)
            for src in self.isources
        ]
        shape = np.broadcast_shapes(*(v.shape for v in v_vals + i_vals), ())
        b_branch = np.zeros(shape + (len(v_vals),))
        for k, val in enumerate(v_vals):
            b_branch[..., k] -= val
        if not i_vals:
            return b_branch, None, None
        b = np.zeros(shape + (self.n_nodes,))
        for src, val in zip(self.isources, i_vals):
            if src.pos >= 0:
                b[..., src.pos] += val
            if src.neg >= 0:
                b[..., src.neg] -= val
        part = self.structure.partition
        return b_branch, b[..., part.free], b[..., part.pinned]

    # ------------------------------------------------------------------
    # Assembly: free rows only.
    # ------------------------------------------------------------------
    def _augment(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate(
            [v, np.zeros(v.shape[:-1] + (1,))], axis=-1
        )

    def _nonlinear(self, v_aug: np.ndarray, base_jac: np.ndarray,
                   tran_iv: Optional[list] = None):
        """Stacked MOSFET I-V stamps at ``v_aug`` into the free rows.

        Returns the free-row residual accumulator and the flat free-row
        Jacobian seeded with the constant *base_jac*.  Without *tran_iv*
        each group evaluates its ``dc_device`` here; a transient passes
        each group's ``(ids, gm, gds, gms)`` of every member, from its
        :meth:`transient_point`.
        """
        batch = v_aug.shape[:-1]
        res = np.zeros(batch + (self.structure.partition.free.size,))
        jac_flat = np.empty(batch + base_jac.shape[-1:])
        jac_flat[...] = base_jac
        for k, grp in enumerate(self.mos_groups):
            if tran_iv is None:
                stamps = grp.structure.dc
                iv = grp.dc_device.ids_and_derivatives(
                    *grp.gather(v_aug, stamps)
                )
            else:
                stamps, iv = grp.structure.tran, tran_iv[k]
            ids, gm, gds, gms = np.broadcast_arrays(*iv)
            _apply_scatter(res, stamps.f_prog,
                           np.concatenate([ids, -ids], axis=-1))
            _apply_scatter(
                jac_flat, stamps.j_prog,
                np.concatenate([gm, gds, gms, -gm, -gds, -gms], axis=-1),
            )
        return res, jac_flat

    def _system(self, v, res, jac_flat, sources) -> _FreeRowSystem:
        b_branch, b_free, _ = sources
        if self.g_free is not None:
            res = res + _linear(self.g_free, v[..., :self.n_nodes])
        if b_free is not None:
            res = res + b_free
        return _FreeRowSystem(jac_flat, res, b_branch,
                              self.structure.partition)

    def assemble_dc(self, t: float):
        """DC assembly closure for :func:`repro.circuit.mna.newton_solve`."""
        sources = self.sources(t)

        def assemble(v: np.ndarray) -> _FreeRowSystem:
            res, jac_flat = self._nonlinear(self._augment(v), self.j_base)
            return self._system(v, res, jac_flat, sources)

        return assemble

    # ------------------------------------------------------------------
    # Branch currents: KCL at the pinned nodes, once per solution.
    # ------------------------------------------------------------------
    def _set_branches(self, v, r_pinned, b_pinned, gmin) -> None:
        """``i = -sign * (r_p + gmin * v_p)`` into *v*'s branch unknowns.

        *r_pinned* holds every member's stamps on the pinned rows; the
        linear and current-source terms and the gmin term are added
        here.  *gmin* is the conductance each sample's Newton system
        carried when it converged (batch shape, or one scalar for all;
        :attr:`repro.circuit.mna.NewtonInfo.gmin`), so a converged
        solution's full MNA residual vanishes on the pinned rows to
        rounding.
        """
        part = self.structure.partition
        if self.g_pinned is not None:
            r_pinned = r_pinned + _linear(self.g_pinned,
                                          v[..., :self.n_nodes])
        if b_pinned is not None:
            r_pinned = r_pinned + b_pinned
        r_pinned = r_pinned + np.asarray(gmin)[..., None] * v[..., part.pinned]
        v[..., part.branches] = part.neg_sign * r_pinned

    def set_branch_currents(self, v: np.ndarray, t: float, gmin) -> None:
        """Fill the branch currents of the DC solution *v* (in place).

        One value-path evaluation of every member (``ids``), stamped on
        the pinned rows, closes each pinned node's KCL.
        """
        v_aug = self._augment(v)
        r_pinned = np.zeros(
            v.shape[:-1] + self.structure.partition.pinned.shape
        )
        for grp in self.mos_groups:
            stamps = grp.structure.kcl
            ids = grp.device.ids(*grp.gather(v_aug, stamps))
            _apply_scatter(r_pinned, stamps.f_prog,
                           np.concatenate([ids, -ids], axis=-1))
        self._set_branches(v, r_pinned, self.sources(t)[2], gmin)

    # ------------------------------------------------------------------
    # Transient support (companion-model integration).
    # ------------------------------------------------------------------
    def transient_point(self, v: np.ndarray):
        """Every MOSFET group evaluated once at the solution *v*.

        Returns ``(v_aug, evaluations)``: *v* with its appended ground
        zero, and each group's :meth:`DeviceModel.iv_and_charges` of
        every member (the ``tran`` gather), ``(iv, (q, cmat))``.  A
        transient evaluates one at its initial solution, where it gives
        the initial charge history (:meth:`charge_state`), and at each
        accepted solution but the last.  There its value parts, bit for
        bit ``ids()`` and ``charges()``, close that point's KCL and
        charge history (:meth:`advance_history`), and the whole point is
        the next step's first Newton assembly (:meth:`assemble_transient`).
        """
        v_aug = self._augment(v)
        return v_aug, [
            grp.device.iv_and_charges(*grp.gather(v_aug, grp.structure.tran))
            for grp in self.mos_groups
        ]

    def _charges(self, v_aug: np.ndarray, mos_q) -> list:
        """Flat charge vector per charge group: the capacitors' at
        ``v_aug`` first, then each MOSFET group's terminal charges
        *mos_q*, terminal-major."""
        flat = [] if self.cap_group is None else [
            self.cap_group.charge_flat(v_aug)
        ]
        flat.extend(np.concatenate(np.broadcast_arrays(*q), axis=-1)
                    for q in mos_q)
        return flat

    def charge_state(self, point) -> list:
        """Flat charge vectors per charge group at a
        :meth:`transient_point`: a transient's initial charge history."""
        v_aug, evaluations = point
        return self._charges(v_aug, [q for _, (q, _) in evaluations])

    def assemble_transient(self, sources, coeff, use_be, q_hist, i_hist,
                           first=None):
        """Assembly closure for one implicit integration step.

        *sources* are :meth:`sources` at the step's time point;
        ``q_hist``/``i_hist`` are the per-group flat charge and companion
        current histories (layouts from :meth:`charge_state`).  Each
        call evaluates a :meth:`transient_point` at its trial solution,
        except that the first call takes *first* when given: the point
        at the step's start vector, where
        :func:`repro.circuit.mna.newton_solve` always assembles first.
        Later iterations and gmin rungs evaluate their own.
        """
        base_jac = self.j_base + coeff * self.c_base
        qf_progs = [] if self.cap_group is None else [
            self.cap_group.structure.qf_prog
        ]
        qf_progs.extend(grp.structure.tran.qf_prog for grp in self.mos_groups)

        def assemble(v: np.ndarray) -> _FreeRowSystem:
            nonlocal first
            v_aug, evaluations = (
                self.transient_point(v) if first is None else first
            )
            first = None
            res, jac_flat = self._nonlinear(
                v_aug, base_jac, [iv for iv, _ in evaluations]
            )
            # The capacitors' linear Jacobian is already in base_jac.
            for grp, (_, (_, cmat)) in zip(self.mos_groups, evaluations):
                cap_vals = np.concatenate(
                    np.broadcast_arrays(
                        *(cmat[(ti, tj)] for ti in _TERMS for tj in _TERMS)
                    ),
                    axis=-1,
                )
                _apply_scatter(jac_flat, grp.structure.tran.qj_prog,
                               coeff * cap_vals)
            q_new = self._charges(v_aug, [q for _, (q, _) in evaluations])
            for k, (q, qf_prog) in enumerate(zip(q_new, qf_progs)):
                i_comp = coeff * (q - q_hist[k])
                if not use_be:
                    i_comp = i_comp - i_hist[k]
                _apply_scatter(res, qf_prog, i_comp)
            return self._system(v, res, jac_flat, sources)

        return assemble

    def advance_history(self, v, sources, coeff, use_be, q_hist, i_hist,
                        gmin, point=None) -> None:
        """Update charge/current histories at the accepted solution *v*
        and fill its branch currents (in place).

        The currents and charges are the value parts of *point*, the
        :meth:`transient_point` at *v*.  Without one (a transient's last
        step, which no later step takes a point from) one value-core
        evaluation per MOSFET group (:meth:`DeviceModel.ids_and_charges`,
        every member) gives the same bits.  The pinned rows' KCL takes
        the I-V stamps, then each group's new companion current, in the
        order the Newton residual stamps them; *sources* are the step's,
        those its assembly used.
        """
        if point is None:
            v_aug = self._augment(v)
            values = [
                grp.device.ids_and_charges(
                    *grp.gather(v_aug, grp.structure.kcl)
                )
                for grp in self.mos_groups
            ]
        else:
            v_aug, evaluations = point
            values = [(iv[0], q) for iv, (q, _) in evaluations]
        r_pinned = np.zeros(
            v.shape[:-1] + self.structure.partition.pinned.shape
        )
        kcl_progs = [] if self.cap_group is None else [
            self.cap_group.structure.kcl_qf_prog
        ]
        for grp, (ids, _) in zip(self.mos_groups, values):
            stamps = grp.structure.kcl
            _apply_scatter(r_pinned, stamps.f_prog,
                           np.concatenate([ids, -ids], axis=-1))
            kcl_progs.append(stamps.qf_prog)
        q_new = self._charges(v_aug, [q for _, q in values])
        for k, (q, kcl_prog) in enumerate(zip(q_new, kcl_progs)):
            i_new = coeff * (q - q_hist[k])
            if not use_be:
                i_new = i_new - i_hist[k]
            q_hist[k] = q
            i_hist[k] = np.broadcast_to(i_new, q.shape).copy()
            _apply_scatter(r_pinned, kcl_prog, i_new)
        self._set_branches(v, r_pinned, sources[2], gmin)


def _two_terminal_block(elements, values, n_nodes: int) -> np.ndarray:
    """Node×node stamp matrix of two-terminal linear elements: each
    value on both of its nodes' diagonals and negated off them, ground
    entries dropped; batched values broadcast."""
    values = [np.asarray(value, dtype=float) for value in values]
    shape = np.broadcast_shapes(*(value.shape for value in values), ())
    block = np.zeros(shape + (n_nodes, n_nodes))
    for element, value in zip(elements, values):
        n1, n2 = element.n1, element.n2
        for a, b, sign in ((n1, n1, 1.0), (n2, n2, 1.0),
                           (n1, n2, -1.0), (n2, n1, -1.0)):
            if a >= 0 and b >= 0:
                block[..., a, b] += sign * value
    return block


def _free_block(matrix: np.ndarray, part: _SourcePartition) -> np.ndarray:
    """The free rows of a node×node *matrix* in the free-row Jacobian's
    column layout, flat row-major."""
    block = matrix[..., part.free, :][..., np.argsort(part.column)]
    rows, cols = block.shape[-2:]
    return block.reshape(block.shape[:-2] + (rows * cols,))


def _linear(g: np.ndarray, v_nodes: np.ndarray) -> np.ndarray:
    """``g @ v`` per sample: conductance rows times node voltages."""
    if g.ndim == 2:
        return v_nodes @ g.T
    return np.matmul(g, v_nodes[..., None])[..., 0]


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
