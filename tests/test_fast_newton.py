"""Fast Newton path: analytic derivatives, scatter rounds, coalesced
cross-shard execution.

Four contracts are pinned here:

* **Analytic = finite differences** — the closed-form gradient hooks of
  both compact models agree with central differences of their own
  ``ids`` across random bias points and card perturbations (hypothesis
  property tests, one per model).
* **Scatter rounds = np.add.at** — the duplicate-free scatter programs
  the assembly runs are *bitwise* the reference ``np.add.at``
  accumulation for arbitrary index multisets.
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
from repro.cells.sram import SRAMSpec
from repro.circuit.compiled import _apply_scatter, _scatter_program
from repro.data.cards import bsim_nmos_40nm, vs_nmos_40nm, vs_pmos_40nm
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


class TestScatterProgram:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(2, 10), k=st.integers(1, 24),
           batch=st.integers(1, 5))
    def test_bitwise_equal_to_add_at(self, data, m, k, batch):
        idx = np.asarray(
            data.draw(st.lists(st.integers(0, m - 1),
                               min_size=k, max_size=k))
        )
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1))
        )
        values = rng.standard_normal((batch, k)) * 10.0 ** rng.integers(
            -12, 3, size=(batch, k)
        )
        reference = rng.standard_normal((batch, m))
        via_add_at = reference.copy()
        _scatter_add(via_add_at, idx, values)
        via_rounds = reference.copy()
        _apply_scatter(via_rounds, _scatter_program(idx), values)
        np.testing.assert_array_equal(via_rounds, via_add_at)

    def test_rounds_preserve_occurrence_order(self):
        # idx 0 appears at positions 0, 2, 3: round r must hold its
        # (r+1)-th occurrence so accumulation order matches add.at.
        program = _scatter_program(np.array([0, 1, 0, 0]))
        assert [list(pos) for _, pos in program] == [[0, 1], [2], [3]]


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
