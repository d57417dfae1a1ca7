"""Transient analysis with companion-model integration.

Fixed-step integration with backward Euler for the first step (to damp the
DC-to-transient transition) and trapezoidal integration afterwards
(second-order, non-dissipative — the standard SPICE arrangement).  The
charge history ``q`` and companion current ``i`` are carried per
charge-bearing element, batched over the Monte-Carlo axis.

On a compiled plan every MOSFET is evaluated once per time point
(:meth:`repro.circuit.compiled.CompiledCircuit.transient_point`).  The
evaluation at an accepted solution closes that point's branch-current
KCL and charge history, and it is also the next step's first Newton
assembly: :func:`repro.circuit.mna.newton_solve` always assembles first
at its start vector, the previous solution.  Only the last step closes
with a value-only evaluation.  Each step evaluates its sources once, for
its assembly and its KCL.

A run may end before *t_stop*: an ``until`` test sees the node voltages
of every recorded time point, and the run ends after the first recorded
step it accepts.  Every step up to there is computed exactly as in the
full run, so the recorded points are a prefix of the full run's, bit for
bit.  The stopping step closes its history with the value-only
evaluation, as the last step of a full run does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.circuit.dcop import dc_operating_point
from repro.circuit.mna import (
    NewtonOptions,
    System,
    newton_solve,
    require_converged,
)
from repro.circuit.netlist import Circuit


@dataclass
class TransientResult:
    """Waveforms from a transient run."""

    times: np.ndarray            #: (T,)
    voltages: np.ndarray         #: (T,) + batch + (n,)
    node_index: Dict[str, int]   #: node name -> unknown index

    def __getitem__(self, node: str) -> np.ndarray:
        """Waveform of *node*, shape ``(T,) + batch``."""
        return self.voltages[..., self.node_index[node]]

    @property
    def batch_shape(self) -> tuple:
        return self.voltages.shape[1:-1]


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    v0: Optional[np.ndarray] = None,
    method: str = "trap",
    options: Optional[NewtonOptions] = None,
    record_every: int = 1,
    dc_guess: Optional[np.ndarray] = None,
    until: Optional[Callable[[float, np.ndarray], bool]] = None,
) -> TransientResult:
    """Run a fixed-step transient from *t_start* to *t_stop*.

    Parameters
    ----------
    dt:
        Time step [s].  Fixed; choose ``~T_edge / 20`` or finer.
    v0:
        Initial unknown vector; computed by a DC operating point at
        *t_start* when omitted.
    dc_guess:
        Newton starting point for that initial DC solve (node hints from
        :func:`repro.circuit.dcop.initial_guess` go here).
    method:
        ``"trap"`` (default, trapezoidal after a BE start) or ``"be"``.
    record_every:
        Keep every k-th time point (memory control for long runs).
    until:
        Stop test ``until(t, nodes) -> bool``, called at every recorded
        time point, the initial solution at *t_start* included, with
        that point's node voltages (a read-only array of shape
        ``batch + (n_nodes,)``; no branch currents).  It is called
        before the step's history update.  The run ends after the first
        recorded step where it returns True, and that step is recorded;
        a True at the initial point does not end the run.  The recorded
        points are the full run's first ones, bit for bit.  A run that
        stops never reaches the later steps, so a Newton failure there
        does not raise.

    *t_start*, *t_stop* and *dt* must be finite and *record_every* at
    least 1 (``ValueError``), and *until* callable or None
    (``TypeError``), all checked before the initial DC solve.
    """
    if not all(math.isfinite(x) for x in (t_start, t_stop, dt)):
        raise ValueError("t_start, t_stop and dt must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_stop <= t_start:
        raise ValueError("t_stop must exceed t_start")
    if method not in ("trap", "be"):
        raise ValueError(f"unknown integration method {method!r}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if until is not None and not callable(until):
        raise TypeError(f"until must be callable, got {type(until).__name__}")

    n = circuit.assign_branches()
    batch = circuit.batch_shape
    n_steps = int(np.ceil((t_stop - t_start) / dt))

    if v0 is None:
        v = dc_operating_point(circuit, v0=dc_guess, t=t_start, options=options)
    else:
        v = np.broadcast_to(np.asarray(v0, dtype=float), batch + (n,)).copy()

    compiled = circuit.compiled()
    if compiled is not None:
        # Charge/companion histories live as one flat array per element
        # group; the stepping loop below is shared with the generic path.
        # One device evaluation per time point (see the module
        # docstring): each step's first assembly takes the point the
        # previous step's history update evaluated at its start vector,
        # and a step's sources serve its assembly and its KCL.  The
        # compiled Newton loop leaves branch currents alone; each
        # accepted step's history update fills them by KCL, with the
        # gmin each sample converged at.
        point = compiled.transient_point(v)
        q_hist = compiled.charge_state(point)
        i_hist = [np.zeros_like(q) for q in q_hist]
        sources = None

        def make_assemble(t_new, coeff, use_be):
            nonlocal sources
            sources = compiled.sources(t_new)
            return compiled.assemble_transient(sources, coeff, use_be,
                                               q_hist, i_hist, first=point)

        def advance_history(v_new, coeff, use_be, gmin, last):
            nonlocal point
            point = None if last else compiled.transient_point(v_new)
            compiled.advance_history(v_new, sources, coeff, use_be, q_hist,
                                     i_hist, gmin, point)

    else:
        charge_elements: List = [
            e for e in circuit.elements if e.charge_terminals
        ]
        q_hist = [
            np.array(e.charge_vector(v), dtype=float) for e in charge_elements
        ]
        i_hist = [np.zeros_like(q) for q in q_hist]

        def make_assemble(t_new, coeff, use_be):
            def assemble(v_trial: np.ndarray) -> System:
                system = System(batch, n)
                for element in circuit.elements:
                    element.stamp_static(system, v_trial, t_new)
                    element.stamp_nonlinear(system, v_trial)
                for k, element in enumerate(charge_elements):
                    q_new, cap = element.charge_and_jacobian(v_trial)
                    i_comp = coeff * (q_new - q_hist[k])
                    if not use_be:
                        i_comp = i_comp - i_hist[k]
                    terminals = element.charge_terminals
                    for a, node_a in enumerate(terminals):
                        system.add_f(node_a, i_comp[..., a])
                        for b, node_b in enumerate(terminals):
                            system.add_j(node_a, node_b, coeff * cap[..., a, b])
                return system

            return assemble

        def advance_history(v_new, coeff, use_be, gmin, last):
            for k, element in enumerate(charge_elements):
                q_new = np.array(element.charge_vector(v_new), dtype=float)
                i_new = coeff * (q_new - q_hist[k])
                if not use_be:
                    i_new = i_new - i_hist[k]
                q_hist[k] = q_new
                i_hist[k] = np.broadcast_to(i_new, q_new.shape).copy()

    def stops(t, v) -> bool:
        if until is None:
            return False
        nodes = v[..., :circuit.n_nodes]
        nodes.flags.writeable = False
        return bool(until(t, nodes))

    recorded_times = [t_start]
    recorded_v = [v.copy()]
    stops(t_start, v)

    for step in range(1, n_steps + 1):
        t_new = t_start + step * dt
        use_be = method == "be" or step == 1
        coeff = (1.0 / dt) if use_be else (2.0 / dt)

        v, info = newton_solve(
            make_assemble(t_new, coeff, use_be), v, circuit.n_nodes, options,
            return_info=True,
        )
        require_converged(info, options)
        record = step % record_every == 0 or step == n_steps
        stop = record and stops(t_new, v)
        advance_history(v, coeff, use_be, info.gmin, stop or step == n_steps)

        if record:
            recorded_times.append(t_new)
            recorded_v.append(v.copy())
        if stop:
            break

    node_index = {name: circuit.index_of(name) for name in circuit.node_names}
    return TransientResult(
        times=np.array(recorded_times),
        voltages=np.stack(recorded_v, axis=0),
        node_index=node_index,
    )
