"""DC operating-point analysis.

One DC point is a node solve (:func:`_solve_nodes`: Newton on the
assembled system) and, on a compiled plan, the KCL that fills the
source branch currents.  :func:`dc_operating_point` runs both;
:func:`repro.circuit.dcsweep.dc_sweep` runs the node solve alone.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.circuit.mna import (
    ConvergenceError,
    NewtonOptions,
    System,
    newton_solve,
    require_converged,
)
from repro.circuit.netlist import Circuit

__all__ = ["dc_operating_point", "initial_guess", "ConvergenceError"]


def initial_guess(
    circuit: Circuit, node_values: Optional[Dict[str, float]] = None
) -> np.ndarray:
    """Build an initial solution vector from a ``{node: voltage}`` hint.

    Unlisted nodes start at 0 V; branch currents start at 0 A.  Passing
    expected logic levels here is the difference between 3 and 30 Newton
    iterations on a CMOS cell.
    """
    n = circuit.assign_branches()
    batch = circuit.batch_shape
    v0 = np.zeros(batch + (n,))
    for name, value in (node_values or {}).items():
        idx = circuit.index_of(name)
        if idx >= 0:
            v0[..., idx] = value
    return v0


def _assemble_generic(circuit: Circuit, t: float):
    n = circuit.assign_branches()
    batch = circuit.batch_shape

    def assemble(v: np.ndarray) -> System:
        system = System(batch, n)
        for element in circuit.elements:
            element.stamp_static(system, v, t)
            element.stamp_nonlinear(system, v)
        return system

    return assemble


def dc_operating_point(
    circuit: Circuit,
    v0: Optional[np.ndarray] = None,
    t: float = 0.0,
    options: Optional[NewtonOptions] = None,
) -> np.ndarray:
    """Solve the DC operating point at time *t* (sources evaluated there).

    Returns the full unknown vector ``batch + (n,)``: node voltages first
    (in :attr:`Circuit.node_names` order), then source branch currents.
    A compiled plan's Newton loop moves the node voltages only; its
    branch currents follow from KCL at the converged solution, with the
    gmin each sample converged at.
    """
    compiled = circuit.compiled()
    v, gmin = _solve_nodes(circuit, compiled, v0, t, options)
    if compiled is not None:
        compiled.set_branch_currents(v, t, gmin)
    return v


def _solve_nodes(circuit: Circuit, compiled, v0: Optional[np.ndarray],
                 t: float, options: Optional[NewtonOptions]):
    """The Newton solve of one DC point: ``(v, gmin)``.

    *compiled* is the plan the caller resolved (``circuit.compiled()``;
    None runs the generic assembly), so a sweep looks it up once rather
    than once per point.  *v* is the converged unknown vector
    ``batch + (n,)``; on a compiled plan its branch currents are still
    those of *v0*, and *gmin* is what each sample converged at
    (:attr:`NewtonInfo.gmin`), for the KCL that fills them.  Raises
    :class:`ConvergenceError` unless every sample converged.
    """
    if compiled is not None:
        assemble, n, batch = compiled.assemble_dc(t), compiled.n, compiled.batch
    else:
        assemble = _assemble_generic(circuit, t)
        n, batch = circuit.assign_branches(), circuit.batch_shape
    if v0 is None:
        v0 = np.zeros(batch + (n,))
    else:
        v0 = np.broadcast_to(np.asarray(v0, dtype=float), batch + (n,)).copy()
    v, info = newton_solve(assemble, v0, circuit.n_nodes, options,
                           return_info=True)
    require_converged(info, options)
    return v, info.gmin
