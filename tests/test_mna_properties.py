"""Property-based validation of the MNA engine against graph theory.

A purely resistive network's node voltages obey the weighted graph
Laplacian; networkx provides an independent construction.  Hypothesis
drives random network topologies and values through both paths.  The
compiled engine's grounded-source elimination is checked against the
generic full-MNA solve and against a dense solve of the explicitly
built full Jacobian.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells.dff import DFFSpec, build_dff
from repro.cells.factory import MonteCarloDeviceFactory
from repro.cells.inverter import InverterSpec, build_inverter_fo
from repro.cells.nand import Nand2Spec, build_nand2_fo
from repro.cells.sram import SRAMSpec, _build_half_forced, _sampled_devices
from repro.circuit import (
    Circuit,
    GROUND,
    DC,
    Pulse,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.circuit.dcop import initial_guess
from repro.circuit.mna import (
    ConvergenceError,
    NewtonOptions,
    System,
    newton_solve,
)
from repro.circuit.waveforms import Waveform


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


def _full_jacobian(circuit, node_block):
    """The dense MNA Jacobian: node block + the source stamp pattern."""
    n = circuit.assign_branches()
    n_nodes = circuit.n_nodes
    full = np.zeros(node_block.shape[:-2] + (n, n))
    full[..., :n_nodes, :n_nodes] = node_block
    for src in circuit.vsources():
        nb = src.branch_index
        for a, b, sign in ((src.pos, nb, 1.0), (src.neg, nb, -1.0),
                           (nb, src.pos, 1.0), (nb, src.neg, -1.0)):
            if a >= 0 and b >= 0:
                full[..., a, b] += sign
    return full


def _assert_step_is_dense_solve(circuit, v):
    """One compiled Newton step == np.linalg.solve on the full system."""
    system = circuit.compiled().assemble_dc(0.0)(v)
    n_nodes = circuit.n_nodes
    jac = system.jacobian.copy()
    assert jac.shape[-2:] == (n_nodes, n_nodes)
    jac[..., np.arange(n_nodes), np.arange(n_nodes)] += 1e-10
    dv, solvable = system.newton_step(jac, system.residual)
    assert solvable is None
    full = _full_jacobian(circuit, jac)
    dense = np.linalg.solve(full, -system.residual[..., None])[..., 0]
    # Both solves are backward stable, so they agree to the system's
    # conditioning: the normwise forward-error bound n * eps * cond.
    bound = dv.shape[-1] * np.finfo(float).eps * np.linalg.cond(full)
    error = np.abs(dv - dense).max(axis=-1)
    assert np.all(error <= bound * np.abs(dense).max(axis=-1))


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
