"""Fast Newton path: analytic derivatives, scatter rounds, coalesced
cross-shard execution, one device evaluation per transient iteration.

Seven contracts are pinned here:

* **Analytic = finite differences** — the closed-form gradient hooks of
  both compact models agree with central differences of their own
  ``ids`` across random bias points and card perturbations (hypothesis
  property tests, one per model).
* **Scatter rounds = np.add.at** — the duplicate-free scatter programs
  the assembly runs are *bitwise* the reference ``np.add.at``
  accumulation for arbitrary index multisets, batch shapes (``()``
  included) and broadcast values, and a polarity-merged group's
  programs replay the former per-polarity groups' accumulation.
* **Fused = separate** — ``iv_and_charges`` (one bias fold, one model
  core) is bitwise ``ids_and_derivatives`` plus
  ``charges_and_capacitance`` for both models, both polarities, both
  derivative modes, swapped biases included.
* **One value path** — the value parts of all three derivative methods
  are bitwise ``ids()`` / ``charges()`` on sampled VS and BSIM cards in
  both derivative modes: the gradient cores finish the value cores.
* **Polarity rides the device axis** — a mixed NMOS/PMOS stacked device
  equals each member evaluated alone, bit for bit, and every CMOS cell
  plan has one MOSFET group per model class.
* **Determinism matrix** — the circuit-level Monte-Carlo envelope is
  bit-identical across every fast-path switch: coalescing on/off,
  analytic/fd derivatives (values only), and 1/2 workers.
* **Compile economics** — a sharded fig9-style run performs exactly one
  structure compile per distinct circuit topology, verified through the
  plan-cache metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.runtime.tasks as tasks_mod
from repro.api import Execution, FactoryMap, MonteCarlo, Session, Sweep
from repro.cells.dff import DFFSpec, build_dff
from repro.cells.factory import NominalDeviceFactory
from repro.cells.inverter import InverterSpec, build_inverter_fo
from repro.cells.nand import Nand2Spec, build_nand2_fo
from repro.cells.sram import SRAMSpec, _build_half_forced, _sampled_devices
from repro.circuit import DC, GROUND, Circuit
from repro.circuit.compiled import (
    _MosfetGroupStructure,
    _apply_scatter,
    _scatter_program,
    _stack_devices,
    _subgroup_order,
    compile_circuit,
    structural_fingerprint,
)
from repro.data.cards import (
    bsim_nmos_40nm,
    bsim_pmos_40nm,
    vs_nmos_40nm,
    vs_pmos_40nm,
)
from repro.devices.bsim.model import BSIMDevice
from repro.devices.vs.model import VSDevice
from repro.experiments.fig9_sram_snm import SNMWork


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20260801)


def _vt0_metric(params):
    """Module-level (picklable) yield metric."""
    return np.asarray(params.vt0)


def _fresh_process_cache():
    """Reset the per-process plan cache (cold-compile isolation)."""
    tasks_mod._PROCESS_PLAN_CACHE = None


# ----------------------------------------------------------------------
# Analytic derivatives vs central differences (per model card).
# ----------------------------------------------------------------------
def _central_difference(device, vg, vd, vs, h=1e-5):
    """Reference terminal derivatives from the device's own ``ids``."""
    gm = (device.ids(vg + h, vd, vs) - device.ids(vg - h, vd, vs)) / (2 * h)
    gds = (device.ids(vg, vd + h, vs) - device.ids(vg, vd - h, vs)) / (2 * h)
    gms = (device.ids(vg, vd, vs + h) - device.ids(vg, vd, vs - h)) / (2 * h)
    return gm, gds, gms


def _assert_grad_close(device, vg, vd, vs):
    ids, gm, gds, gms = device.ids_and_derivatives(vg, vd, vs)
    ref = _central_difference(device, vg, vd, vs)
    # Conductance scale of the bias point: currents span ~10 decades, so
    # a pure rtol/atol pair cannot cover both the off and on state.
    scale = abs(float(ids)) / 0.0259 + 1e-15
    for got, want in zip((gm, gds, gms), ref):
        assert abs(float(got) - float(want)) <= 1e-4 * (
            abs(float(want)) + scale
        )


_BIAS = {
    "vg": st.floats(-0.2, 1.1),
    "vd": st.floats(0.0, 1.0),
    "vs": st.floats(0.0, 1.0),
}


class TestAnalyticDerivatives:
    @settings(max_examples=60, deadline=None)
    @given(**_BIAS, dvt=st.floats(-0.08, 0.08), w=st.floats(120.0, 900.0))
    def test_vs_nmos_matches_central_difference(self, vg, vd, vs, dvt, w):
        # The central-difference stencil must not straddle the
        # source/drain swap kink at vds = 0.
        assume(abs(vd - vs) > 1e-3)
        card = vs_nmos_40nm(w, 40.0)
        card = card.replace(vt0=float(np.asarray(card.vt0)) + dvt)
        _assert_grad_close(VSDevice(card), vg, vd, vs)

    @settings(max_examples=30, deadline=None)
    @given(**_BIAS)
    def test_vs_pmos_matches_central_difference(self, vg, vd, vs):
        assume(abs(vd - vs) > 1e-3)
        _assert_grad_close(VSDevice(vs_pmos_40nm(300.0, 40.0)), -vg, -vd, -vs)

    @settings(max_examples=60, deadline=None)
    @given(**_BIAS, dvt=st.floats(-0.08, 0.08), l=st.floats(35.0, 80.0))
    def test_bsim_nmos_matches_central_difference(self, vg, vd, vs, dvt, l):
        assume(abs(vd - vs) > 1e-3)
        card = bsim_nmos_40nm(300.0, l)
        card = card.replace(vth0=float(np.asarray(card.vth0)) + dvt)
        _assert_grad_close(BSIMDevice(card), vg, vd, vs)

    def test_fd_mode_values_bitwise_derivatives_close(self):
        """``derivatives="fd"`` stays available and shares the value path."""
        analytic = VSDevice(vs_nmos_40nm(300.0, 40.0))
        fd = VSDevice(vs_nmos_40nm(300.0, 40.0), derivatives="fd")
        bias = (0.7, 0.5, 0.05)
        ia, gma, gdsa, gmsa = analytic.ids_and_derivatives(*bias)
        i2, gmf, gdsf, gmsf = fd.ids_and_derivatives(*bias)
        np.testing.assert_array_equal(ia, i2)
        for a, f in zip((gma, gdsa, gmsa), (gmf, gdsf, gmsf)):
            assert float(a) == pytest.approx(float(f), rel=5e-3, abs=1e-12)


# ----------------------------------------------------------------------
# Scatter rounds == np.add.at, bitwise.
# ----------------------------------------------------------------------
def _scatter_add(target: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """The ``np.add.at`` oracle: ``target[..., idx] += values`` with
    accumulation on repeated indices (*values* broadcasts to
    ``batch + (K,)`` for ``idx`` of shape ``(K,)``)."""
    values = np.broadcast_to(values, target.shape[:-1] + idx.shape)
    flat_t = target.reshape(-1, target.shape[-1])
    flat_v = values.reshape(-1, idx.shape[0])
    np.add.at(flat_t, (slice(None), idx), flat_v)


def _assert_same_bits(got, want):
    """Nested tuples/dicts of arrays equal bit for bit (``-0.0`` differs
    from ``0.0``, shapes must match)."""
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_same_bits(got[key], want[key])
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)
    else:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestScatterProgram:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(2, 10), k=st.integers(1, 24),
           batch=st.sampled_from([(), (1,), (4,), (2, 3)]),
           form=st.sampled_from(["full", "row", "stride0"]))
    def test_bitwise_equal_to_add_at(self, data, m, k, batch, form):
        # Batch () writes one-entry rounds through 0-d views.  *form*:
        # values over the whole batch, one row the scatter broadcasts,
        # or that row already broadcast to the batch (stride 0).  Signed
        # zeros on both sides must come out as np.add.at's.
        idx = np.asarray(
            data.draw(st.lists(st.integers(0, m - 1),
                               min_size=k, max_size=k))
        )
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1))
        )
        shape = batch + (k,) if form == "full" else (k,)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(
            -12, 3, size=shape
        )
        values[rng.random(shape) < 0.2] = -0.0
        if form == "stride0":
            values = np.broadcast_to(values, batch + (k,))
        reference = rng.standard_normal(batch + (m,))
        reference[rng.random(reference.shape) < 0.2] = 0.0
        via_add_at = reference.copy()
        _scatter_add(via_add_at, idx, values)
        via_rounds = reference.copy()
        _apply_scatter(via_rounds, _scatter_program(idx), values)
        _assert_same_bits(via_rounds, via_add_at)

    def test_rounds_preserve_occurrence_order(self):
        # idx 0 appears at positions 0, 2, 3: round r must hold its
        # (r+1)-th occurrence so accumulation order matches add.at.
        program = _scatter_program(np.array([0, 1, 0, 0]))
        assert [list(pos) for _, pos in program] == [[0, 1], [2], [3]]

    def test_subgroup_order_visits_subgroups_blockwise(self):
        # Two blocks over devices [0, 2) and [2, 3): subgroup 0's entries
        # of both blocks come before subgroup 1's.
        assert _subgroup_order(2, [0, 2, 3]) == [0, 1, 3, 4, 2, 5]
        # One subgroup is plain position order.
        assert _subgroup_order(3, [0, 2]) == list(range(6))
        # Occurrences count in visit order: idx 0 at positions 1 and 2,
        # visited 2 first.
        program = _scatter_program(np.array([1, 0, 0]), [0, 2, 1])
        assert [list(pos) for _, pos in program] == [[0, 2], [1]]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(2, 8),
           sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           n_blocks=st.integers(1, 9), batch=st.integers(1, 4))
    def test_merged_program_equals_add_at_per_subgroup(
        self, data, m, sizes, n_blocks, batch
    ):
        """A merged group's program is ``np.add.at`` over each former
        subgroup's own block layout, subgroup after subgroup (ground
        entries, index -1, dropped)."""
        bounds = np.cumsum([0] + sizes).tolist()
        n_dev = bounds[-1]
        k = n_blocks * n_dev
        idx = np.asarray(data.draw(
            st.lists(st.integers(-1, m - 1), min_size=k, max_size=k)
        ))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_normal((batch, k)) * 10.0 ** rng.integers(
            -12, 3, size=(batch, k)
        )
        reference = rng.standard_normal((batch, m))
        via_add_at = reference.copy()
        layout = np.arange(k).reshape(n_blocks, n_dev)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            positions = layout[:, lo:hi].ravel()
            positions = positions[idx[positions] >= 0]
            if positions.size:
                _scatter_add(via_add_at, idx[positions], values[:, positions])
        via_program = reference.copy()
        _apply_scatter(via_program,
                       _scatter_program(idx, _subgroup_order(n_blocks, bounds)),
                       values)
        _assert_same_bits(via_program, via_add_at)


# ----------------------------------------------------------------------
# Determinism matrix: every fast-path switch is invisible in the bits.
# ----------------------------------------------------------------------
N_MC = 24
SHARDS = Execution(shard_size=8)


class TestDeterminismMatrix:
    @pytest.fixture()
    def work(self, session):
        return SNMWork(SRAMSpec(), session.technology.vdd, "read")

    def _run(self, technology, work, execution):
        _fresh_process_cache()
        try:
            session = Session(technology=technology, seed=20260801)
            values, _ = session.map_mc(work, N_MC, model="vs",
                                       execution=execution)
            return np.asarray(values)
        finally:
            _fresh_process_cache()

    def test_montecarlo_matrix(self, technology, work):
        sharded = self._run(technology, work, Execution(shard_size=8))
        cases = {
            "uncoalesced": Execution(shard_size=8, coalesce=False),
            "workers2": Execution(shard_size=8, workers=2),
            "workers2_uncoalesced": Execution(shard_size=8, workers=2,
                                              coalesce=False),
        }
        for label, execution in cases.items():
            got = self._run(technology, work, execution)
            np.testing.assert_array_equal(got, sharded, err_msg=label)

    def test_sweep_composition_worker_invariant(self, technology, work):
        def run(workers):
            _fresh_process_cache()
            session = Session(technology=technology, seed=20260801)
            return session.run(Sweep(
                FactoryMap(work=work, n_samples=16,
                           execution=Execution(shard_size=8,
                                               workers=workers)),
                over={"work.vdd": (0.8, 0.9)},
            ))

        serial, parallel = run(1), run(2)
        for a, b in zip(serial.points, parallel.points):
            np.testing.assert_array_equal(a.payload, b.payload)

    def test_yield_ignores_coalesce_flag(self, session, technology):
        """Device-level yield runs accept (and ignore) the circuit-only
        coalesce switch without changing their stream."""
        from repro.api import Yield

        model = technology["nmos"].statistical
        threshold = float(np.asarray(model.nominal.vt0)) + 3.0 * (
            model.sigmas(600.0, 40.0)["vt0"]
        )
        spec = dict(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 3.0},
            n_samples=512, n_rounds=1, n_per_round=256, block_size=128,
            w_nm=600.0, l_nm=40.0, fail_below=False,
        )
        on = session.run(Yield(**spec, execution=Execution(workers=1)))
        off = session.run(Yield(
            **spec, execution=Execution(workers=1, coalesce=False)))
        assert on.payload.probability == off.payload.probability


# ----------------------------------------------------------------------
# Compile economics: one structure compile per topology.
# ----------------------------------------------------------------------
class TestCompileEconomics:
    def test_sharded_snm_compiles_once_per_topology(self, technology):
        session = Session(technology=technology, seed=20260801)
        work = SNMWork(SRAMSpec(), technology.vdd, "read")
        session.map_mc(work, N_MC, model="vs",
                       execution=Execution(shard_size=8))
        # In-process shards compile into the session's own cache.
        stats = session.plan_cache.stats()
        # The butterfly measurement solves two forced half-cell
        # topologies; every sweep point and every shard rebinds a cached
        # structure instead of recompiling.
        assert stats["structural_compiles"] == 2

        # A second run builds fresh circuits with the same topologies:
        # structural hits (value binding only), zero new compiles.
        session.map_mc(work, N_MC, model="vs",
                       execution=Execution(shard_size=8))
        stats = session.plan_cache.stats()
        assert stats["structural_compiles"] == 2
        assert stats["structural_hits"] >= 2


# ----------------------------------------------------------------------
# One device evaluation per transient iteration.
# ----------------------------------------------------------------------
def _column(value, j):
    """Member *j*'s slice of a stacked device's (nested) output."""
    if isinstance(value, dict):
        return {key: _column(v, j) for key, v in value.items()}
    if isinstance(value, tuple):
        return tuple(_column(v, j) for v in value)
    return np.asarray(value)[..., j]


_DEVICE_KINDS = {
    "vs_nmos": (VSDevice, vs_nmos_40nm),
    "vs_pmos": (VSDevice, vs_pmos_40nm),
    "bsim_nmos": (BSIMDevice, bsim_nmos_40nm),
    "bsim_pmos": (BSIMDevice, bsim_pmos_40nm),
}
_VOLT = st.floats(-1.1, 1.1)


class TestFusedEvaluation:
    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(_DEVICE_KINDS)),
           mode=st.sampled_from(("analytic", "fd")),
           vg=_VOLT, vd=_VOLT, vs=_VOLT)
    def test_fused_equals_separate_calls_bitwise(self, kind, mode, vg, vd, vs):
        cls, card = _DEVICE_KINDS[kind]
        device = cls(card(300.0, 40.0), derivatives=mode)
        # Both terminal orders: one of them folds to vds < 0 (swapped).
        for bias in ((vg, vd, vs), (vg, vs, vd)):
            _assert_same_bits(
                device.iv_and_charges(*bias),
                (device.ids_and_derivatives(*bias),
                 device.charges_and_capacitance(*bias)),
            )

    @pytest.mark.parametrize("kind", sorted(_DEVICE_KINDS))
    def test_fused_evaluates_the_core_once(self, kind):
        cls, card = _DEVICE_KINDS[kind]
        device = cls(card(300.0, 40.0))
        core = device._core_grad_normalized
        calls = []

        def counted(vgs, vds):
            calls.append(1)
            return core(vgs, vds)

        device._core_grad_normalized = counted
        bias = (np.array([0.9, 0.1]), np.array([0.2, 0.8]), 0.3)
        device.iv_and_charges(*bias)
        assert len(calls) == 1
        device.ids_and_derivatives(*bias)
        device.charges_and_capacitance(*bias)
        assert len(calls) == 3

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    @pytest.mark.parametrize("cls,nmos,pmos,vt_field", [
        (VSDevice, vs_nmos_40nm, vs_pmos_40nm, "vt0"),
        (BSIMDevice, bsim_nmos_40nm, bsim_pmos_40nm, "vth0"),
    ])
    def test_mixed_polarity_stack_equals_members(
        self, cls, nmos, pmos, vt_field, mode
    ):
        rng = np.random.default_rng(17)
        batch = 5

        def member(card):
            vt = float(np.asarray(getattr(card, vt_field)))
            batched = card.replace(
                **{vt_field: vt + 0.03 * rng.standard_normal(batch)}
            )
            return cls(batched, derivatives=mode)

        members = [member(pmos(600.0, 40.0)), member(nmos(300.0, 40.0)),
                   member(pmos(200.0, 45.0)), member(nmos(450.0, 40.0))]
        stacked = _stack_devices(members)
        assert not hasattr(stacked, "polarity")
        assert np.asarray(stacked.sign).tolist() == [-1.0, 1.0, -1.0, 1.0]
        vg, vd, vs = rng.uniform(-1.0, 1.0, size=(3, batch, len(members)))
        for method in ("ids", "charges", "ids_and_derivatives",
                       "charges_and_capacitance", "iv_and_charges"):
            together = getattr(stacked, method)(vg, vd, vs)
            for j, device in enumerate(members):
                alone = getattr(device, method)(vg[:, j], vd[:, j], vs[:, j])
                _assert_same_bits(_column(together, j), alone)


class TestValuePathIdentity:
    """Every derivative method carries the value path's bits.

    The gradient cores finish the value cores and both paths share one
    I-V finish and one Ward–Dutton partition, so the current and the
    charges that ``ids_and_derivatives``, ``charges_and_capacitance``
    and ``iv_and_charges`` return are ``ids()`` / ``charges()`` bit for
    bit — on Monte-Carlo cards of either model, not only nominal ones.
    The fused value method ``ids_and_charges`` returns them too.
    """

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(("vs", "bsim")),
           polarity=st.sampled_from(("nmos", "pmos")),
           mode=st.sampled_from(("analytic", "fd")),
           seed=st.integers(0, 2**32 - 1),
           bias=st.lists(st.tuples(_VOLT, _VOLT, _VOLT),
                         min_size=1, max_size=8))
    def test_value_parts_are_the_value_path(self, technology, model,
                                            polarity, mode, seed, bias):
        chars = technology[polarity]
        rng = np.random.default_rng(seed)
        n = len(bias)
        if model == "vs":
            card = chars.statistical.sample(n, rng, w_nm=300.0,
                                            l_nm=40.0).params
            device = VSDevice(card, derivatives=mode)
        else:
            card = chars.golden_mismatch.sample(n, rng, w_nm=300.0,
                                                l_nm=40.0)
            device = BSIMDevice(card, derivatives=mode)
        vg, vd, vs = np.asarray(bias, dtype=float).T
        # Both terminal orders: one of them folds to vds < 0 (swapped).
        for args in ((vg, vd, vs), (vg, vs, vd)):
            ids, q = device.ids(*args), device.charges(*args)
            (ids_f, *_), (q_f, _) = device.iv_and_charges(*args)
            _assert_same_bits(device.ids_and_derivatives(*args)[0], ids)
            _assert_same_bits(ids_f, ids)
            _assert_same_bits(device.charges_and_capacitance(*args)[0], q)
            _assert_same_bits(q_f, q)
            ids_v, q_v = device.ids_and_charges(*args)
            _assert_same_bits(ids_v, ids)
            _assert_same_bits(q_v, q)


def _cell_circuits(technology, model):
    """The INV FO3, NAND2 FO3, SRAM read half-cell and DFF netlists."""
    factory = NominalDeviceFactory(technology, model)
    vdd = technology.vdd
    return {
        "inv_fo3": build_inverter_fo(factory, InverterSpec(), vdd)[0],
        "nand2_fo3": build_nand2_fo(factory, Nand2Spec(), vdd)[0],
        "sram_read_half": _build_half_forced(
            _sampled_devices(factory, SRAMSpec()), vdd, "read", "ql"
        ),
        "dff": build_dff(factory, DFFSpec(), vdd,
                         DC(0.0), DC(vdd), DC(0.0))[0],
    }


class TestPolarityMergedPlans:
    @pytest.mark.parametrize("model", ["vs", "bsim"])
    def test_one_mosfet_group_per_model_class(self, technology, model):
        for name, circuit in _cell_circuits(technology, model).items():
            plan = compile_circuit(circuit)
            assert len(plan.mos_groups) == 1, name
            signs = np.asarray(plan.mos_groups[0].device.sign).tolist()
            assert sorted(set(signs)) == [-1.0, 1.0], name

    def test_fingerprint_keeps_polarity(self, technology):
        factory = NominalDeviceFactory(technology, "vs")

        def one_device(polarity):
            circuit = Circuit()
            circuit.add_vsource("d", GROUND, DC(0.5), name="VD")
            circuit.add_mosfet(factory(polarity, 300.0, 40.0),
                               d="d", g="d", s=GROUND, name="M")
            return circuit

        assert (structural_fingerprint(one_device("nmos"))
                != structural_fingerprint(one_device("pmos")))

    def test_nand2_programs_replay_per_polarity_groups(self, technology):
        """Each scatter program of the merged NAND2 FO3 group stamps every
        cell in the order the separate per-polarity groups did."""
        circuit = _cell_circuits(technology, "vs")["nand2_fo3"]
        plan = compile_circuit(circuit)
        merged = plan.mos_groups[0].structure
        partition = plan.structure.partition
        polarity = [int(circuit.elements[i].model.polarity)
                    for i in merged.slots]
        # Two contiguous subgroups along the device axis.
        bounds = [0, *(np.flatnonzero(np.diff(polarity)) + 1).tolist(),
                  len(polarity)]
        assert len(bounds) == 3
        parts = [
            _MosfetGroupStructure([merged.slots[lo:hi]], circuit.elements,
                                  plan.n, partition)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        nf, npin = partition.free.size, partition.pinned.size
        block = nf * plan.n_nodes
        rng = np.random.default_rng(3)
        iv = [("f_prog", 2, nf), ("j_prog", 6, block)]
        charge = [("qf_prog", 3, nf), ("qj_prog", 9, block)]
        for subset, programs in (("dc", iv), ("tran", iv + charge),
                                 ("kcl", [("f_prog", 2, npin),
                                          ("qf_prog", 3, npin)])):
            whole = getattr(merged, subset)
            n_sub = whole.members.size
            for prog, n_blocks, size in programs:
                values = rng.standard_normal((4, n_blocks * n_sub))
                target = rng.standard_normal((4, size))
                via_merged = target.copy()
                _apply_scatter(via_merged, getattr(whole, prog), values)
                via_parts = target.copy()
                blocks = values.reshape(4, n_blocks, n_sub)
                for part, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
                    stamps = getattr(part, subset)
                    mine = (whole.members >= lo) & (whole.members < hi)
                    np.testing.assert_array_equal(whole.members[mine] - lo,
                                                  stamps.members)
                    _apply_scatter(via_parts, getattr(stamps, prog),
                                   blocks[:, :, mine].reshape(4, -1))
                _assert_same_bits(via_merged, via_parts)
