"""Property-based validation of the MNA engine against graph theory.

A purely resistive network's node voltages obey the weighted graph
Laplacian; networkx provides an independent construction.  Hypothesis
drives random network topologies and values through both paths.  The
compiled engine's grounded-source elimination is checked against the
generic full-MNA solve and against a dense solve of the generic full
MNA system; its branch currents close every pinned node's KCL.  The
Newton loop's column-wise tests, the row-subset step, the node-only,
secant-predicted DC sweep and the transient's one device evaluation per
time point are pinned against their reference forms.
"""

import functools
import importlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.plans import PlanCache
from repro.cells.dff import DFFSpec, build_dff
from repro.cells.factory import (
    MonteCarloDeviceFactory,
    RecordingFactory,
    ScalarReplayFactory,
)
from repro.cells.inverter import InverterSpec, build_inverter_fo
from repro.cells.nand import Nand2Spec, build_nand2_fo
from repro.cells.sram import SRAMSpec, _build_half_forced, _sampled_devices
from repro.circuit import (
    Circuit,
    GROUND,
    DC,
    MOSFET,
    Pulse,
    Step,
    VoltageSource,
    dc_operating_point,
    dc_sweep,
    transient,
)
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.dcop import initial_guess
from repro.circuit.mna import (
    DEFAULT_GMIN,
    DEFAULT_VLIMIT,
    ConvergenceError,
    NewtonOptions,
    System,
    _COLUMNWISE_ROWS_PER_COLUMN,
    _every_column,
    newton_solve,
)
from repro.circuit.waveforms import Waveform
from repro.devices.base import DeviceModel
from repro.devices.vs import VSDevice
from repro.obs import Tracer
from repro.obs.trace import activate


def solve_with_networkx(edges, source_node, v_source):
    """Reference solution via the weighted Laplacian."""
    graph = nx.Graph()
    for (a, b, r) in edges:
        if graph.has_edge(a, b):
            # Parallel resistors combine.
            g_existing = graph[a][b]["weight"]
            graph[a][b]["weight"] = g_existing + 1.0 / r
        else:
            graph.add_edge(a, b, weight=1.0 / r)
    nodes = sorted(graph.nodes)
    laplacian = nx.laplacian_matrix(graph, nodelist=nodes, weight="weight")
    laplacian = laplacian.toarray().astype(float)

    # Dirichlet conditions: ground at 0, source at v_source.
    fixed = {0: 0.0, source_node: v_source}
    free = [n for n in nodes if n not in fixed]
    if not free:
        return {}
    idx = {n: i for i, n in enumerate(nodes)}
    free_idx = [idx[n] for n in free]
    fixed_idx = [idx[n] for n in fixed]
    fixed_vals = np.array([fixed[n] for n in fixed])

    a_ff = laplacian[np.ix_(free_idx, free_idx)]
    a_fc = laplacian[np.ix_(free_idx, fixed_idx)]
    v_free = np.linalg.solve(a_ff, -a_fc @ fixed_vals)
    return dict(zip(free, v_free))


@st.composite
def resistor_networks(draw):
    """Random connected resistor networks touching ground and a source."""
    n_nodes = draw(st.integers(3, 7))
    extra_edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_nodes - 1),
                st.integers(0, n_nodes - 1),
            ),
            max_size=8,
        )
    )
    resist = st.floats(10.0, 1e5)
    edges = []
    # Spanning chain guarantees connectivity 0-1-2-...-(n-1).
    for k in range(n_nodes - 1):
        edges.append((k, k + 1, draw(resist)))
    for (a, b) in extra_edges:
        if a != b:
            edges.append((a, b, draw(resist)))
    v_source = draw(st.floats(-5.0, 5.0))
    return n_nodes, edges, v_source


class TestAgainstLaplacian:
    @given(network=resistor_networks())
    @settings(max_examples=40, deadline=None)
    def test_matches_graph_laplacian(self, network):
        n_nodes, edges, v_source = network
        source_node = n_nodes - 1

        ckt = Circuit()
        ckt.add_vsource(f"n{source_node}", GROUND, DC(v_source), name="VS")
        for k, (a, b, r) in enumerate(edges):
            na = GROUND if a == 0 else f"n{a}"
            nb = GROUND if b == 0 else f"n{b}"
            ckt.add_resistor(na, nb, r, name=f"R{k}")
        solution = dc_operating_point(ckt)

        expected = solve_with_networkx(edges, source_node, v_source)
        for node, v_expected in expected.items():
            v_actual = solution[ckt.index_of(f"n{node}")]
            assert v_actual == pytest.approx(v_expected, abs=2e-4)

    @given(
        r1=st.floats(10.0, 1e5),
        r2=st.floats(10.0, 1e5),
        v=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_divider_property(self, r1, r2, v):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(v), name="V1")
        ckt.add_resistor("a", "b", r1)
        ckt.add_resistor("b", GROUND, r2)
        sol = dc_operating_point(ckt)
        assert sol[ckt.index_of("b")] == pytest.approx(
            v * r2 / (r1 + r2), abs=1e-5 + 1e-4 * abs(v)
        )

    @given(
        resistances=st.lists(st.floats(100.0, 1e4), min_size=2, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_parallel_resistors_combine(self, resistances):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
        for k, r in enumerate(resistances):
            ckt.add_resistor("a", GROUND, r, name=f"R{k}")
        sol = dc_operating_point(ckt)
        g_total = sum(1.0 / r for r in resistances)
        # Source supplies V * G_total.
        assert -sol[ckt["V1"].branch_index] == pytest.approx(
            g_total, rel=1e-4
        )


def _scalar_root_assemble(targets):
    """``F(v) = v^2 - targets`` on a 1-unknown system, batched."""
    targets = np.asarray(targets, dtype=float)

    def assemble(v):
        system = System(targets.shape, 1)
        system.add_f(0, v[..., 0] ** 2 - targets)
        system.add_j(0, 0, 2.0 * v[..., 0])
        return system

    return assemble


class TestConvergenceMasking:
    """Per-sample Newton masking: edge cases of the batched solver."""

    def test_batch_of_one_matches_scalar(self):
        assemble_b = _scalar_root_assemble(np.array([4.0]))
        assemble_s = _scalar_root_assemble(4.0)
        vb = newton_solve(assemble_b, np.full((1, 1), 3.0), 1)
        vs = newton_solve(assemble_s, np.full((1,), 3.0), 1)
        np.testing.assert_array_equal(vb[0], vs)
        assert vb[0, 0] == pytest.approx(2.0, abs=1e-6)

    def test_all_converged_early_stops_iterating(self):
        # A linear system converges on the first update; the loop must
        # stop long before max_iterations.
        def assemble(v):
            system = System((5,), 1)
            system.add_f(0, v[..., 0] - 1.0)
            system.add_j(0, 0, 1.0)
            return system

        opts = NewtonOptions(max_iterations=80, vlimit=10.0)
        v, info = newton_solve(
            assemble, np.zeros((5, 1)), 1, options=opts, return_info=True
        )
        assert np.all(info.converged)
        assert info.iterations <= 3
        np.testing.assert_allclose(v[:, 0], 1.0, atol=1e-9)

    def test_one_diverged_sample_does_not_corrupt_the_rest(self):
        # Sample 1's residual is NaN from the start: its update turns
        # non-finite and it must be frozen as failed while samples 0 and
        # 2 converge to their roots exactly as they would alone.
        targets = np.array([4.0, np.nan, 9.0])
        assemble = _scalar_root_assemble(targets)
        v0 = np.full((3, 1), 5.0)
        v, info = newton_solve(assemble, v0, 1, return_info=True)
        assert list(info.converged) == [True, False, True]
        assert v[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert v[2, 0] == pytest.approx(3.0, abs=1e-6)
        # The healthy samples converged in the plain pass; the gmin
        # ladder triggered by the bad die must not have re-run them —
        # they keep bitwise the result of their standalone solves.
        for k in (0, 2):
            standalone = newton_solve(
                _scalar_root_assemble(targets[k]), np.full((1,), 5.0), 1
            )
            np.testing.assert_array_equal(v[k], standalone)
        # Without return_info the failure is a clean ConvergenceError.
        with pytest.raises(ConvergenceError):
            newton_solve(assemble, v0, 1)

    def test_frozen_samples_match_standalone_trajectories(self):
        # Mixed convergence speeds: the fast sample freezes early, yet
        # both finish bitwise-identical to their standalone solves.
        targets = np.array([1.0, 1e6])
        assemble = _scalar_root_assemble(targets)
        opts = NewtonOptions(vlimit=1e6, max_iterations=200)
        v = newton_solve(assemble, np.full((2, 1), 2.0), 1, options=opts)
        for k in range(2):
            vk = newton_solve(
                _scalar_root_assemble(targets[k]), np.full((1,), 2.0), 1,
                options=opts,
            )
            np.testing.assert_array_equal(v[k], vk)


    def test_info_gmin_is_each_samples_last_loop(self):
        # Sample 0 converges in the plain pass; three clamped iterations
        # cannot walk sample 1 from 5 to 2, so the ladder takes it over.
        opts = NewtonOptions(gmin=1e-6, max_iterations=3)
        _, info = newton_solve(_scalar_root_assemble(np.array([4.0, 4.0])),
                               np.array([[2.001], [5.0]]), 1, options=opts,
                               return_info=True)
        assert bool(info.converged[0])
        np.testing.assert_array_equal(info.gmin,
                                      [opts.gmin, opts.gmin_steps[-1]])


class TestSingularJacobians:
    def test_zero_derivative_start_recovers(self):
        # F(v) = v^2 - 4 from v0 = 0: the Jacobian is singular at the
        # first iterate; gmin conditioning plus the vlimit clamp walk
        # the solve off the stationary point and it still finds a root.
        assemble = _scalar_root_assemble(4.0)
        v = newton_solve(assemble, np.zeros(1), 1)
        assert abs(v[0]) == pytest.approx(2.0, abs=1e-6)

    def test_permanently_singular_system_raises_cleanly(self):
        # A zero branch row (no gmin on branch rows) is singular at
        # every gmin rung: the ladder must surface ConvergenceError,
        # not a raw LinAlgError.
        def assemble(v):
            system = System((), 2)
            system.add_f(0, v[..., 0] - 1.0)
            system.add_j(0, 0, 1.0)
            return system

        with pytest.raises(ConvergenceError):
            newton_solve(assemble, np.zeros(2), 1)


class TestNewtonSpan:
    def test_span_counts_every_assemble_call(self):
        # Three iterations cannot walk v from 5 to 2 under the 0.3 V
        # clamp, so the plain pass and all four gmin rungs run out: 15
        # assemble calls.  The span reports every one of them, while
        # NewtonInfo.iterations keeps the last loop's count.
        calls = []
        inner = _scalar_root_assemble(4.0)

        def assemble(v):
            calls.append(1)
            return inner(v)

        tracer = Tracer()
        with activate(tracer):
            _, info = newton_solve(assemble, np.full((1,), 5.0), 1,
                                   options=NewtonOptions(max_iterations=3),
                                   return_info=True)
        (solve,) = [r for r in tracer.records if r["name"] == "newton.solve"]
        assert not info.converged
        assert solve["args"]["gmin_ladder"] is True
        assert solve["args"]["iterations"] == len(calls) == 15
        assert info.iterations == 3


# ----------------------------------------------------------------------
# Grounded-source elimination in the compiled engine.
# ----------------------------------------------------------------------
#: The compiled-vs-generic tolerances of tests/test_api.py.
NODE_RTOL, NODE_ATOL = 1e-7, 1e-9
BRANCH_RTOL, BRANCH_ATOL = 1e-6, 1e-15


class _Negated(Waveform):
    """``-inner(t)``: the same source seen from its other terminal."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, t):
        return -np.asarray(self.inner.value(t), dtype=float)


def _flip_sources(circuit, flips):
    """Reground the chosen voltage sources at their positive terminal.

    ``V(node, gnd, w)`` becomes ``V(gnd, node, -w)``: the same circuit,
    with that source's branch current negated.  *flips* is indexed by
    the sources' netlist order (cycled if shorter).  Call before the
    first solve — the terminals are part of the plan structure.
    """
    sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
    for k, src in enumerate(sources):
        if flips[k % len(flips)]:
            src.pos, src.neg = src.neg, src.pos
            src.waveform = _Negated(src.waveform)
    return circuit


def _resistor_circuit(network, flip):
    n_nodes, edges, v_source = network
    source_node = f"n{n_nodes - 1}"
    ckt = Circuit()
    if flip:
        ckt.add_vsource(GROUND, source_node, DC(-v_source), name="VS")
    else:
        ckt.add_vsource(source_node, GROUND, DC(v_source), name="VS")
    for k, (a, b, r) in enumerate(edges):
        na = GROUND if a == 0 else f"n{a}"
        nb = GROUND if b == 0 else f"n{b}"
        ckt.add_resistor(na, nb, r, name=f"R{k}")
    return ckt


def _sram_half(factory, vdd):
    circuit = _build_half_forced(
        _sampled_devices(factory, SRAMSpec()), vdd, "read", "ql"
    )
    circuit["VFORCE"].waveform.level = 0.35 * vdd
    hints = {"vdd": vdd, "wl": vdd, "bl": vdd, "blb": vdd, "qr": vdd}
    return circuit, hints


def _nand2(factory, vdd):
    pulse = Pulse(0.0, vdd, delay=5e-12, t_rise=5e-12, t_fall=5e-12,
                  width=40e-12)
    return build_nand2_fo(factory, Nand2Spec(), vdd, input_waveform=pulse)


def _inverter(factory, vdd):
    pulse = Pulse(0.0, vdd, delay=5e-12, t_rise=5e-12, t_fall=5e-12,
                  width=40e-12)
    return build_inverter_fo(factory, InverterSpec(), vdd,
                             input_waveform=pulse, separate_load_supply=True)


def _dff(factory, vdd):
    clk = Pulse(vdd, 0.0, delay=10e-12, t_rise=5e-12, t_fall=5e-12,
                width=40e-12)
    clkb = Pulse(0.0, vdd, delay=10e-12, t_rise=5e-12, t_fall=5e-12,
                 width=40e-12)
    return build_dff(factory, DFFSpec(), vdd, DC(0.0), clk, clkb)


CELLS = {"sram_half": _sram_half, "nand2_fo3": _nand2,
         "inverter_fo3_load_supply": _inverter, "dff": _dff}
#: Cells with capacitors also step a short transient.
TRANSIENT_CELLS = ("nand2_fo3", "inverter_fo3_load_supply", "dff")

#: Newton options under which :func:`_ladder_circuit`'s second sample
#: takes the gmin ladder.
LADDER_OPTIONS = NewtonOptions(gmin=1e-6, max_iterations=8)


def _ladder_circuit(analysis):
    """A two-sample divider whose 5 V sample outruns the 0.3 V clamp in
    ``LADDER_OPTIONS.max_iterations``; with ``analysis="transient"`` its
    source steps up at 0.5 ps and node b carries a capacitor."""
    circuit = Circuit()
    level = np.array([0.2, 5.0])
    if analysis == "dc":
        circuit.add_vsource("a", GROUND, DC(level), name="V1")
    else:
        circuit.add_vsource("a", GROUND, Step(0.0, level, 0.5e-12, 1e-15),
                            name="V1")
        circuit.add_capacitor("b", GROUND, 1e-15, name="C1")
    circuit.add_resistor("a", "b", 1e3, name="R1")
    circuit.add_resistor("b", GROUND, np.array([1e3, 2e3]), name="R2")
    return circuit


def _solve(circuit, backend, solve):
    circuit.set_backend(backend)
    try:
        return solve(circuit)
    finally:
        circuit.set_backend("auto")


def _assert_matches_generic(circuit, solve):
    """*solve* on the compiled plan agrees with the generic full MNA."""
    n_nodes = circuit.n_nodes
    generic = _solve(circuit, "generic", solve)
    compiled = _solve(circuit, "compiled", solve)
    np.testing.assert_allclose(compiled[..., :n_nodes],
                               generic[..., :n_nodes],
                               rtol=NODE_RTOL, atol=NODE_ATOL)
    np.testing.assert_allclose(compiled[..., n_nodes:],
                               generic[..., n_nodes:],
                               rtol=BRANCH_RTOL, atol=BRANCH_ATOL)


def _generic_system(circuit, v, t=0.0):
    """The generic full-MNA system at *v*: every element stamped, over
    every unknown (the reference the compiled engine eliminates from)."""
    system = System(v.shape[:-1], circuit.assign_branches())
    for element in circuit.elements:
        element.stamp_static(system, v, t)
        element.stamp_nonlinear(system, v)
    return system


def _assert_step_is_dense_solve(circuit, v):
    """One compiled Newton step's node updates == np.linalg.solve on the
    full MNA system (branch currents are not stepped)."""
    n_nodes = circuit.n_nodes
    flat = v.reshape(-1, v.shape[-1])
    system = circuit.compiled().assemble_dc(0.0)(v)
    dv, solvable, _ = system.newton_step(
        flat, np.arange(flat.shape[0]), DEFAULT_GMIN, n_nodes
    )
    assert solvable is None
    assert dv.shape == (flat.shape[0], n_nodes)
    full = _generic_system(circuit, v)
    node = np.arange(n_nodes)
    jac = full.jacobian
    jac[..., node, node] += DEFAULT_GMIN
    res = full.residual
    res[..., :n_nodes] += DEFAULT_GMIN * v[..., :n_nodes]
    dense = np.linalg.solve(jac, -res[..., None])[..., 0].reshape(flat.shape)
    # Both solves are backward stable, so they agree to the system's
    # conditioning: the normwise forward-error bound n * eps * cond.
    bound = dense.shape[-1] * np.finfo(float).eps * np.linalg.cond(
        jac.reshape((-1,) + jac.shape[-2:])
    )
    error = np.abs(dv - dense[:, :n_nodes]).max(axis=-1)
    assert np.all(error <= bound * np.abs(dense).max(axis=-1))


def _pinned_nodes(circuit):
    return [src.pos if src.pos >= 0 else src.neg
            for src in circuit.vsources()]


def _kcl_residual(circuit, v, gmin):
    """The generic residual plus its gmin term at *v*, and each row's
    sum of absolute terms (elements and gmin)."""
    n_nodes = circuit.n_nodes
    residual = _generic_system(circuit, v).residual
    residual[..., :n_nodes] += gmin * v[..., :n_nodes]
    scale = np.zeros_like(residual)
    for element in circuit.elements:
        alone = System(v.shape[:-1], v.shape[-1])
        element.stamp_static(alone, v, 0.0)
        element.stamp_nonlinear(alone, v)
        scale += np.abs(alone.residual)
    scale[..., :n_nodes] += np.abs(gmin * v[..., :n_nodes])
    return residual, scale


class TestSourceElimination:
    @given(network=resistor_networks(), flip=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_resistor_networks_match_generic(self, network, flip):
        ckt = _resistor_circuit(network, flip)
        _assert_matches_generic(ckt, dc_operating_point)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @given(seed=st.integers(0, 2**16),
           flips=st.lists(st.booleans(), min_size=1, max_size=5))
    @settings(max_examples=4, deadline=None)
    def test_cells_match_generic(self, technology, cell, seed, flips):
        vdd = technology.vdd
        factory = MonteCarloDeviceFactory(technology, 3, seed=seed)
        circuit, hints = CELLS[cell](factory, vdd)
        _flip_sources(circuit, flips)
        v0 = initial_guess(circuit, hints)
        _assert_matches_generic(
            circuit, lambda c: dc_operating_point(c, v0=v0)
        )
        if cell in TRANSIENT_CELLS:
            _assert_matches_generic(
                circuit,
                lambda c: transient(c, 12e-12, 2e-12, dc_guess=v0).voltages,
            )

    @given(network=resistor_networks(), flip=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_step_equals_dense_solve_resistor_networks(self, network, flip,
                                                       seed):
        ckt = _resistor_circuit(network, flip)
        n = ckt.assign_branches()
        v = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(4, n))
        _assert_step_is_dense_solve(ckt, v)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @given(seed=st.integers(0, 2**16),
           flips=st.lists(st.booleans(), min_size=1, max_size=5))
    @settings(max_examples=4, deadline=None)
    def test_step_equals_dense_solve_cells(self, technology, cell, seed,
                                           flips):
        vdd = technology.vdd
        factory = MonteCarloDeviceFactory(technology, 3, seed=seed)
        circuit, _ = CELLS[cell](factory, vdd)
        _flip_sources(circuit, flips)
        n = circuit.assign_branches()
        v = np.random.default_rng(seed).uniform(0.0, vdd, size=(3, n))
        _assert_step_is_dense_solve(circuit, v)

    def test_singular_free_block_freezes_only_that_sample(self):
        # Sample 1's free node hangs on infinite resistors: with gmin off
        # its free block is exactly zero.  It must fail frozen at v0; the
        # others converge bitwise as they would alone.
        r1 = np.array([1e3, np.inf, 2e3])
        r2 = np.array([1e3, np.inf, 3e3])
        opts = NewtonOptions(gmin=0.0, gmin_steps=())

        def solve(r_top, r_bottom, v0):
            ckt = Circuit()
            ckt.add_vsource(GROUND, "a", DC(-1.0), name="V1")
            ckt.add_resistor("a", "b", r_top, name="R1")
            ckt.add_resistor("b", GROUND, r_bottom, name="R2")
            compiled = ckt.compiled()
            assert compiled is not None
            return newton_solve(compiled.assemble_dc(0.0), v0, ckt.n_nodes,
                                opts, return_info=True)

        v0 = np.full((3, 3), 0.25)
        v, info = solve(r1, r2, v0)
        assert list(info.converged) == [True, False, True]
        np.testing.assert_array_equal(v[1], v0[1])
        for k in (0, 2):
            alone, alone_info = solve(r1[k], r2[k], v0[k].copy())
            assert alone_info.converged
            np.testing.assert_array_equal(v[k], alone)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @given(seed=st.integers(0, 2**16),
           flips=st.lists(st.booleans(), min_size=1, max_size=5))
    @settings(max_examples=3, deadline=None)
    def test_kcl_branch_currents_close_pinned_rows(self, technology, cell,
                                                   seed, flips):
        # At the compiled DC solution the generic residual, gmin term
        # included, vanishes on every pinned row to rounding: recursive
        # summation of the row's terms in another order errs by at most
        # (terms + 1) * eps * (sum of |terms|).
        vdd = technology.vdd
        factory = MonteCarloDeviceFactory(technology, 3, seed=seed)
        circuit, hints = CELLS[cell](factory, vdd)
        _flip_sources(circuit, flips)
        v0 = initial_guess(circuit, hints)
        v = _solve(circuit, "compiled",
                   lambda c: dc_operating_point(c, v0=v0))
        residual, scale = _kcl_residual(circuit, v, DEFAULT_GMIN)
        pinned = _pinned_nodes(circuit)
        bound = (len(circuit.elements) + 2) * np.finfo(float).eps
        assert np.all(np.abs(residual[..., pinned])
                      <= bound * scale[..., pinned])

    def test_read_half_cell_iterates_free_coupled_members(self, technology,
                                                          monkeypatch):
        # With ql forced, PUL, PDL and AXL stamp only pinned rows: the DC
        # Newton loop evaluates PUR, PDR and AXR and nothing else, and
        # the KCL still recovers the supply and forcing currents.
        factory = MonteCarloDeviceFactory(technology, 4, seed=17)
        circuit, hints = _sram_half(factory, technology.vdd)
        (group,) = circuit.compiled().mos_groups
        members = [circuit.elements[group.structure.slots[i]]
                   for i in group.structure.dc.members]
        assert [m.name for m in members] == ["PUR", "PDR", "AXR"]
        rng = np.random.default_rng(17)
        bias = rng.uniform(0.0, technology.vdd, size=(3, 4, 3))
        ids = group.dc_device.ids(*bias)
        for j, member in enumerate(members):
            np.testing.assert_array_equal(
                ids[..., j], member.model.ids(*bias[..., j])
            )

        evaluated = []
        ids_and_derivatives = DeviceModel.ids_and_derivatives

        def spy(device, vg, vd, vs):
            evaluated.append(device)
            return ids_and_derivatives(device, vg, vd, vs)

        monkeypatch.setattr(DeviceModel, "ids_and_derivatives", spy)
        v0 = initial_guess(circuit, hints)
        compiled = _solve(circuit, "compiled",
                          lambda c: dc_operating_point(c, v0=v0))
        assert evaluated
        assert all(device is group.dc_device for device in evaluated)
        monkeypatch.undo()
        generic = _solve(circuit, "generic",
                         lambda c: dc_operating_point(c, v0=v0))
        for name in ("VDD", "VFORCE"):
            branch = circuit[name].branch_index
            np.testing.assert_allclose(compiled[..., branch],
                                       generic[..., branch],
                                       rtol=BRANCH_RTOL, atol=BRANCH_ATOL)

    def test_transient_evaluates_devices_once_per_iteration_and_step(
            self, technology, monkeypatch):
        # NAND2 FO3: every Newton iteration is one fused core evaluation.
        # The evaluation at each accepted time point but the last also
        # closes its KCL and history and is the next step's first
        # iteration; the one at the initial solution gives the initial
        # charge history.  The extra one is the last step's value-only
        # history evaluation.
        factory = MonteCarloDeviceFactory(technology, 3, seed=23)
        circuit, hints = CELLS["nand2_fo3"](factory, technology.vdd)
        v0 = initial_guess(circuit, hints)
        v_dc = _solve(circuit, "compiled",
                      lambda c: dc_operating_point(c, v0=v0))
        cores, iterations, value_only = [], [], []
        core = VSDevice._core_normalized

        def counting_core(device, vgs, vds):
            cores.append(1)
            return core(device, vgs, vds)

        build = CompiledCircuit.assemble_transient

        def counting_build(plan, *args, **kwargs):
            assemble = build(plan, *args, **kwargs)

            def counted(v):
                iterations.append(1)
                return assemble(v)

            return counted

        ids_and_charges = DeviceModel.ids_and_charges

        def counting_ids_and_charges(device, vg, vd, vs):
            value_only.append(1)
            return ids_and_charges(device, vg, vd, vs)

        monkeypatch.setattr(VSDevice, "_core_normalized", counting_core)
        monkeypatch.setattr(CompiledCircuit, "assemble_transient",
                            counting_build)
        monkeypatch.setattr(DeviceModel, "ids_and_charges",
                            counting_ids_and_charges)
        result = _solve(circuit, "compiled",
                        lambda c: transient(c, 24e-12, 2e-12, v0=v_dc))
        steps = len(result.times) - 1
        assert steps == 12
        assert len(cores) == len(iterations) + 1
        assert len(value_only) == 1

        # A run stopped by ``until`` closes its last step the same way.
        del cores[:], iterations[:], value_only[:]
        result = _solve(circuit, "compiled",
                        lambda c: transient(c, 24e-12, 2e-12, v0=v_dc,
                                            until=lambda t, nodes: t > 9e-12))
        assert len(result.times) - 1 == 5
        assert len(cores) == len(iterations) + 1
        assert len(value_only) == 1

    @pytest.mark.parametrize("analysis", ["dc", "transient"])
    def test_kcl_uses_the_gmin_each_sample_converged_at(self, analysis):
        # Sample 0 converges in the plain pass at gmin = 1e-6.  Sample
        # 1's 5 V source outruns the 0.3 V clamp in 8 iterations, so the
        # ladder solves it at gmin_steps[-1] (in the transient, on the
        # step's first time point).  Each sample's branch current must
        # carry its own gmin term, as the generic dense solve's does:
        # 1e-6 S * 5 V against 1.7 mA is far outside BRANCH_RTOL.
        opts = LADDER_OPTIONS
        circuit = _ladder_circuit(analysis)
        v, info = newton_solve(
            circuit.compiled().assemble_dc(1e-12),
            np.zeros((2, circuit.assign_branches())), circuit.n_nodes, opts,
            return_info=True,
        )
        assert info.converged.all()
        np.testing.assert_array_equal(info.gmin,
                                      [opts.gmin, opts.gmin_steps[-1]])
        if analysis == "dc":
            _assert_matches_generic(
                circuit, lambda c: dc_operating_point(c, options=opts)
            )
        else:
            _assert_matches_generic(
                circuit, lambda c: transient(c, 3e-12, 1e-12,
                                             options=opts).voltages
            )

    @pytest.mark.parametrize("polarity", ["nmos", "pmos"])
    def test_all_pinned_device_matches_generic(self, technology, polarity):
        # Every node pinned: no free row.  DC iterates an empty device,
        # the transient iterates the device and drops all its stamps;
        # KCL alone gives the currents.
        factory = MonteCarloDeviceFactory(technology, 4, seed=29)
        device = factory(polarity, 300.0, 40.0)
        circuit = Circuit()
        circuit.add_vsource("d", GROUND, DC(0.5), name="VD")
        circuit.add_vsource("g", GROUND, DC(0.7), name="VG")
        circuit.add_mosfet(device, d="d", g="g", s=GROUND, name="M")
        circuit.add_capacitor("d", GROUND, 1e-15, name="C")
        (group,) = circuit.compiled().mos_groups
        assert group.structure.dc.members.size == 0
        _assert_matches_generic(circuit, dc_operating_point)
        _assert_matches_generic(
            circuit, lambda c: transient(c, 4e-12, 1e-12).voltages
        )
        v = _solve(circuit, "compiled", dc_operating_point)
        np.testing.assert_allclose(
            v[..., circuit["VD"].branch_index],
            -(device.ids(0.7, 0.5, 0.0) + DEFAULT_GMIN * 0.5), rtol=1e-14,
        )


# ----------------------------------------------------------------------
# One device evaluation per transient time point.
# ----------------------------------------------------------------------
def _logged_newton(log):
    """``newton_solve`` that appends each solve's assemble calls and
    per-sample gmin to *log*."""
    def solve(assemble, *args, **kwargs):
        calls = []

        @functools.wraps(assemble)
        def counted(v):
            calls.append(1)
            return assemble(v)

        v, info = newton_solve(counted, *args, **kwargs)
        log.append((len(calls), np.asarray(info.gmin).tolist()))
        return v, info

    return solve


def _shared_transient(circuit, t_stop, dt, v0, method, monkeypatch,
                      options=None):
    """``transient`` on the compiled plan: every step's unknown vector
    and its Newton solve's log (:func:`_logged_newton`)."""
    log = []
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("repro.circuit.transient"),
                      "newton_solve", _logged_newton(log))
        result = _solve(circuit, "compiled", lambda c: transient(
            c, t_stop, dt, v0=v0, method=method, options=options
        ))
    return result.voltages, log


def _unshared_transient(circuit, t_stop, dt, v0, method, options=None):
    """The compiled transient without the shared time-point evaluation.

    Every Newton assembly evaluates its own devices, the initial charge
    history comes from ``charges()``, and each accepted step refreshes
    the history and closes its KCL with its own value-path
    ``ids_and_charges`` (``advance_history`` without a point).  Returns
    what :func:`_shared_transient` does.
    """
    plan = circuit.compiled()
    v = np.array(v0, dtype=float)
    v_aug = plan._augment(v)
    q_hist = plan._charges(v_aug, [
        grp.device.charges(*grp.gather(v_aug, grp.structure.kcl))
        for grp in plan.mos_groups
    ])
    i_hist = [np.zeros_like(q) for q in q_hist]
    recorded, log = [v.copy()], []
    for step in range(1, int(np.ceil(t_stop / dt)) + 1):
        use_be = method == "be" or step == 1
        coeff = (1.0 / dt) if use_be else (2.0 / dt)
        sources = plan.sources(step * dt)
        v, info = _logged_newton(log)(
            plan.assemble_transient(sources, coeff, use_be, q_hist, i_hist),
            v, circuit.n_nodes, options, return_info=True,
        )
        assert info.converged.all()
        plan.advance_history(v, sources, coeff, use_be, q_hist, i_hist,
                             info.gmin)
        recorded.append(v.copy())
    return np.stack(recorded), log


def _assert_same_bits(got, want):
    """Equal shapes and bytes: ``-0.0`` differs from ``0.0``."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSharedTimePoint:
    """A transient evaluates each MOSFET once per time point.

    The evaluation at an accepted solution closes its KCL and charge
    history and is the next step's first Newton assembly, so every node
    voltage and branch current at every step equals the unshared loop's
    bit for bit, and every step takes the same Newton iterations.
    """

    @pytest.mark.parametrize("method", ["trap", "be"])
    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    @pytest.mark.parametrize("model", ["vs", "bsim"])
    @pytest.mark.parametrize("cell", ["nand2_fo3", "dff"])
    def test_equals_unshared_loop_bitwise(self, technology, monkeypatch,
                                          cell, model, mode, method):
        # Batched over 3 samples, then each sample as a scalar circuit.
        recorder = RecordingFactory(
            MonteCarloDeviceFactory(technology, 3, model=model, seed=31)
        )
        factories = [recorder] + [
            ScalarReplayFactory(recorder.devices, k) for k in range(3)
        ]
        for factory in factories:
            circuit, hints = CELLS[cell](factory, technology.vdd)
            for element in circuit.elements:
                if isinstance(element, MOSFET):
                    element.model.derivatives = mode
            v0 = initial_guess(circuit, hints)
            v_dc = _solve(circuit, "compiled",
                          lambda c: dc_operating_point(c, v0=v0))
            voltages, log = _shared_transient(circuit, 40e-12, 2e-12, v_dc,
                                              method, monkeypatch)
            ref_voltages, ref_log = _unshared_transient(
                circuit, 40e-12, 2e-12, v_dc, method
            )
            _assert_same_bits(voltages, ref_voltages)
            assert log == ref_log

    def test_gmin_ladder_step_equals_unshared_loop_bitwise(
            self, technology, monkeypatch):
        # The ladder circuit with a transistor on node b: step 1 takes
        # sample 1 through the gmin ladder, whose rungs restart from
        # their own start vectors and evaluate their own devices.
        circuit = _ladder_circuit("transient")
        device = MonteCarloDeviceFactory(technology, 2, seed=37)(
            "nmos", 300.0, 40.0
        )
        circuit.add_mosfet(device, d="b", g="a", s=GROUND, name="M1")
        v_dc = _solve(circuit, "compiled",
                      lambda c: dc_operating_point(c, options=LADDER_OPTIONS))
        voltages, log = _shared_transient(circuit, 3e-12, 1e-12, v_dc, "trap",
                                          monkeypatch, LADDER_OPTIONS)
        ref_voltages, ref_log = _unshared_transient(
            circuit, 3e-12, 1e-12, v_dc, "trap", LADDER_OPTIONS
        )
        floor = LADDER_OPTIONS.gmin_steps[-1]
        assert log[0][1] == [LADDER_OPTIONS.gmin, floor]
        _assert_same_bits(voltages, ref_voltages)
        assert log == ref_log


# ----------------------------------------------------------------------
# The lean step and loop.
# ----------------------------------------------------------------------
class _Columnwise:
    """``F_j(v) = scale * (v_j - roots_j)`` on the node unknowns: an
    assemble closure (it returns itself) whose ``newton_step`` keeps
    every update in its own column — a dense solve would spread one
    non-finite entry across the whole row.  Unknowns past *n_nodes* are
    not stepped."""

    def __init__(self, roots, scale=1.0):
        self.roots = np.asarray(roots, dtype=float)
        self.scale = scale

    def __call__(self, v):
        return self

    def newton_step(self, v, sel, gmin, n_nodes):
        roots = self.roots.reshape(-1, n_nodes)[sel]
        v = v[sel, :n_nodes]
        res = self.scale * (v - roots) + gmin * v
        return -res / (self.scale + gmin), None, res


def _batched_dc_level(circuit, n_samples):
    """Give the first DC voltage source one level per sample, so the
    compiled step's source rows carry a batch axis."""
    src = next(e for e in circuit.vsources() if isinstance(e.waveform, DC))
    src.waveform.level = src.waveform.level * np.linspace(0.8, 1.0,
                                                          n_samples)


#: Batch copies that put the Newton loop's tests on each side of
#: ``_every_column``'s shape choice: one row reduction for a few rows,
#: one pass per column once rows far outnumber columns.
COPIES = (1, 4 * _COLUMNWISE_ROWS_PER_COLUMN)


class TestLeanNewton:
    @pytest.mark.parametrize("copies", COPIES)
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_nonfinite_column_fails_only_its_sample(self, column, copies):
        # Sample 1's update is NaN in one node column only: the sample
        # fails frozen at v0 (every gmin rung fails it again on its
        # first step), and the others equal their standalone solves.
        roots = np.array([[0.5, -1.0, 2.0], [0.25, 0.75, -0.5],
                          [1.5, 1.0, 0.0]])
        roots[1, column] = np.nan
        v0 = np.full((3 * copies, 4), 0.1)
        opts = NewtonOptions(vlimit=10.0)
        v, info = newton_solve(_Columnwise(np.tile(roots, (copies, 1))), v0,
                               3, opts, return_info=True)
        np.testing.assert_array_equal(info.converged,
                                      np.tile([True, False, True], copies))
        np.testing.assert_array_equal(v[1::3], v0[1::3])
        for k in (0, 2):
            alone, alone_info = newton_solve(_Columnwise(roots[k]), v0[k], 3,
                                             opts, return_info=True)
            assert alone_info.converged
            np.testing.assert_array_equal(v[k::3],
                                          np.broadcast_to(alone, (copies, 4)))

    @pytest.mark.parametrize("copies", COPIES)
    def test_last_node_column_keeps_a_sample_iterating(self, copies):
        # Both samples start on their roots except sample 1's last node
        # column, and the residual scale (1e-13) keeps every residual
        # below itol: only that column's update holds sample 1 back.  It
        # must walk the 0.9 V gap in clamped steps; the trailing
        # (branch-like) unknown is never stepped.
        roots = np.tile([[0.2, 0.4, 0.6], [0.2, 0.4, 0.6]], (copies, 1))
        v0 = np.tile([[0.2, 0.4, 0.6, 7.0], [0.2, 0.4, 1.5, 7.0]],
                     (copies, 1))
        opts = NewtonOptions(gmin=0.0)
        v, info = newton_solve(_Columnwise(roots, scale=1e-13), v0, 3, opts,
                               return_info=True)
        assert info.converged.all()
        assert info.iterations >= 4
        np.testing.assert_array_equal(v[0::2], v0[0::2])
        assert np.all(np.abs(v[1::2, 2] - 0.6) < opts.vtol)
        np.testing.assert_array_equal(v[:, 3], 7.0)

    @pytest.mark.parametrize("copies", COPIES)
    def test_residual_above_itol_keeps_a_sample_iterating(self, copies):
        # Sample 1 starts 1e-8 V off its root in the last node column:
        # below vtol, but its residual there (scale 0.01: 1e-10) is above
        # itol, so it takes a second step.  Sample 0 starts on its roots
        # and stops after the first.
        roots = np.tile([0.2, 0.4, 0.6], (2 * copies, 1))
        v0 = np.tile([[0.2, 0.4, 0.6, 7.0], [0.2, 0.4, 0.6 + 1e-8, 7.0]],
                     (copies, 1))
        opts = NewtonOptions(gmin=0.0)
        v, info = newton_solve(_Columnwise(roots, scale=1e-2), v0, 3, opts,
                               return_info=True)
        assert info.converged.all()
        assert info.iterations == 2
        np.testing.assert_array_equal(v[0::2], v0[0::2])
        assert np.all(np.abs(v[1::2, 2] - 0.6) < 1e-15)

    @pytest.mark.parametrize("shape", [
        (3, 4), (2, 30), (2, 1), (6 * _COLUMNWISE_ROWS_PER_COLUMN - 1, 6),
        (6 * _COLUMNWISE_ROWS_PER_COLUMN, 6), (2500, 1),
    ])
    def test_every_column_is_the_row_test(self, shape):
        # One failing entry per row at a random column, first and last
        # columns included, on each side of the shape choice: the mask
        # is the parent's row reduction's, for the finiteness and the
        # tolerance tests alike.
        rng = np.random.default_rng(shape[0] * 101 + shape[1])
        rows, cols = shape
        a = rng.uniform(-0.9e-7, 0.9e-7, shape)
        hit = rng.random(rows) < 0.5
        hit[:2] = True
        where = rng.integers(0, cols, rows)
        where[:2] = (0, cols - 1)
        bad = np.zeros(shape, dtype=bool)
        bad[np.flatnonzero(hit), where[hit]] = True
        tolerance = np.where(bad, rng.choice([2e-7, -3e-7, np.nan], shape), a)
        finite = np.where(bad, rng.choice([np.inf, -np.inf, np.nan], shape),
                          a)
        np.testing.assert_array_equal(
            _every_column(lambda col: np.abs(col) < 1e-7, tolerance),
            np.abs(tolerance).max(axis=-1) < 1e-7,
        )
        np.testing.assert_array_equal(_every_column(np.isfinite, finite),
                                      np.isfinite(finite).all(axis=-1))
        np.testing.assert_array_equal(_every_column(np.isfinite, finite),
                                      ~hit)

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_row_subset_step_equals_those_rows(self, technology, cell):
        # One source level per sample, so the source rows are gathered
        # too.  The all-samples step must not condition the system in
        # place: the subset step runs on the same system.
        n_samples = 6
        factory = MonteCarloDeviceFactory(technology, n_samples, seed=31)
        circuit, _ = CELLS[cell](factory, technology.vdd)
        _batched_dc_level(circuit, n_samples)
        n, n_nodes = circuit.assign_branches(), circuit.n_nodes
        v = np.random.default_rng(31).uniform(0.0, technology.vdd,
                                              size=(n_samples, n))
        sel = np.array([1, 4, 5])
        systems = {
            "compiled": circuit.compiled().assemble_dc(0.0)(v),
            "generic": _generic_system(circuit, v),
        }
        for path, system in systems.items():
            dv, solvable, res = system.newton_step(
                v, np.arange(n_samples), DEFAULT_GMIN, n_nodes
            )
            dv_sel, solvable_sel, res_sel = system.newton_step(
                v, sel, DEFAULT_GMIN, n_nodes
            )
            assert solvable is None and solvable_sel is None, path
            np.testing.assert_array_equal(dv_sel, dv[sel], err_msg=path)
            np.testing.assert_array_equal(res_sel, res[sel], err_msg=path)


def _reference_sweep(circuit, source, values, v0, predict):
    """``dc_operating_point`` at each level of *source*, started from the
    previous solution or, with *predict*, from that solution with its
    node voltages moved by the secant step (``r * (x[k-1] - x[k-2])``,
    ``r`` the ratio of the level steps, clamped at the default vlimit).
    Returns the node voltages ``(S,) + batch + (n_nodes,)``."""
    n_nodes = circuit.n_nodes
    waveform = circuit[source].waveform
    original = waveform.level
    solutions = []
    guess = v0
    try:
        for k, level in enumerate(values):
            waveform.level = level
            if predict and k >= 2 and values[k - 1] != values[k - 2]:
                ratio = ((values[k] - values[k - 1])
                         / (values[k - 1] - values[k - 2]))
                x, x_prev = solutions[-1], solutions[-2]
                guess = guess.copy()
                guess[..., :n_nodes] = x + np.clip(
                    ratio * (x - x_prev), -DEFAULT_VLIMIT, DEFAULT_VLIMIT)
            guess = dc_operating_point(circuit, v0=guess)
            solutions.append(guess[..., :n_nodes])
    finally:
        waveform.level = original
    return np.stack(solutions)


def _newton_iterations(run):
    """Newton iterations *run* spends: every ``newton.solve`` span's
    count (plain pass and gmin rungs)."""
    tracer = Tracer()
    with activate(tracer):
        run()
    return sum(record["args"]["iterations"] for record in tracer.records
               if record["name"] == "newton.solve")


class TestNodeOnlySweep:
    def test_compiled_sweep_reports_node_voltages_only(self, technology,
                                                       monkeypatch):
        # The fig9 half-cell: no per-point KCL, node voltages of shape
        # (S,) + batch + (n_nodes,), each point bitwise the node voltages
        # of a dc_operating_point loop started from the same secant
        # predictions, and within 1e-12 V of the zero-order loop's.
        factory = MonteCarloDeviceFactory(technology, 3, seed=41)
        circuit, hints = _sram_half(factory, technology.vdd)
        assert circuit.compiled() is not None
        v0 = initial_guess(circuit, hints)
        values = np.linspace(0.0, technology.vdd, 7)
        kcl_calls = []
        kcl = CompiledCircuit.set_branch_currents

        def counting_kcl(plan, *args):
            kcl_calls.append(1)
            return kcl(plan, *args)

        monkeypatch.setattr(CompiledCircuit, "set_branch_currents",
                            counting_kcl)
        result = dc_sweep(circuit, "VFORCE", values, v0=v0)
        monkeypatch.undo()
        assert kcl_calls == []
        n_nodes = circuit.n_nodes
        assert result.voltages.shape == (values.size, 3, n_nodes)

        predicted = _reference_sweep(circuit, "VFORCE", values, v0, True)
        np.testing.assert_array_equal(result.voltages, predicted)
        zero_order = _reference_sweep(circuit, "VFORCE", values, v0, False)
        assert np.abs(result.voltages - zero_order).max() <= 1e-12

    def test_fig9_sweep_spends_fewer_iterations(self, technology):
        # The fig9 read half-cell's 61-point butterfly sweep: predicting
        # each point's start saves Newton iterations over the zero-order
        # loop.
        factory = MonteCarloDeviceFactory(technology, 4, seed=43)
        circuit, hints = _sram_half(factory, technology.vdd)
        v0 = initial_guess(circuit, hints)
        values = np.linspace(0.0, technology.vdd, 61)
        predicted = _newton_iterations(
            lambda: dc_sweep(circuit, "VFORCE", values, v0=v0))
        zero_order = _newton_iterations(
            lambda: _reference_sweep(circuit, "VFORCE", values, v0, False))
        assert predicted < zero_order

    @pytest.mark.parametrize("descending", [False, True])
    @pytest.mark.parametrize("backend", ["compiled", "generic"])
    def test_coarse_vtc_spends_no_more_iterations(self, technology, backend,
                                                  descending):
        # A 5-point inverter VTC: across the switching region the secant
        # step overshoots, and the clamp keeps the predicted sweep from
        # costing more than the zero-order loop.
        factory = MonteCarloDeviceFactory(technology, 3, seed=52)
        circuit, hints = build_inverter_fo(factory, InverterSpec(),
                                           technology.vdd)
        circuit.set_backend(backend)
        values = np.linspace(0.0, technology.vdd, 5)
        if descending:
            values = values[::-1]
        v0 = initial_guess(circuit, hints)
        predicted = _newton_iterations(
            lambda: dc_sweep(circuit, "VIN", values, v0=v0))
        zero_order = _newton_iterations(
            lambda: _reference_sweep(circuit, "VIN", values, v0, False))
        assert predicted <= zero_order

    def test_one_plan_lookup_per_sweep(self, technology, monkeypatch):
        # The sweep resolves its compiled plan once, not once per point;
        # a dc_operating_point resolves it once per call.
        lookups = []
        plan_for = PlanCache.plan_for

        def counting_plan_for(cache, circuit):
            lookups.append(1)
            return plan_for(cache, circuit)

        monkeypatch.setattr(PlanCache, "plan_for", counting_plan_for)
        factory = MonteCarloDeviceFactory(technology, 2, seed=47)
        circuit, hints = _sram_half(factory, technology.vdd)
        circuit.plan_cache = PlanCache()
        v0 = initial_guess(circuit, hints)
        for _ in range(2):
            dc_sweep(circuit, "VFORCE", np.linspace(0.0, technology.vdd, 9),
                     v0=v0)
        assert len(lookups) == 2
        dc_operating_point(circuit, v0=v0)
        assert len(lookups) == 3
