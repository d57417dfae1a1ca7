"""DC sweep analysis (secant-predicted continuation).

Sweeps the level of one DC voltage source, starting each operating point
from the secant extrapolation of the two before it.  Continuation is what
makes the bistable SRAM butterfly curves of Fig. 9 solvable: each branch
is tracked from its own end of the sweep.  The prediction only moves
where Newton starts: every point is still a converged DC solution, so
its node voltages sit within the Newton tolerance of those a zero-order
start (the previous point's solution) converges to, and a point whose
curve is smooth needs fewer iterations.

A sweep reports node voltages only.  Each point runs the node solve of
:func:`repro.circuit.dcop.dc_operating_point` without the KCL that fills
a compiled plan's branch currents (a value-path evaluation of every
transistor per point, which transfer curves never read).
``dc_operating_point`` at a level of interest (``DCOp`` through the API)
gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.circuit.dcop import _solve_nodes
from repro.circuit.mna import NewtonOptions
from repro.circuit.netlist import Circuit
from repro.circuit.waveforms import DC


@dataclass
class SweepResult:
    """Node voltages across a DC sweep (no branch currents: a
    :func:`repro.circuit.dcop.dc_operating_point` at one level gives
    those)."""

    values: np.ndarray           #: (S,) swept source levels
    voltages: np.ndarray         #: (S,) + batch + (n_nodes,)
    node_index: Dict[str, int]

    def __getitem__(self, node: str) -> np.ndarray:
        """Transfer curve of *node*, shape ``(S,) + batch``."""
        return self.voltages[..., self.node_index[node]]


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values,
    v0: Optional[np.ndarray] = None,
    options: Optional[NewtonOptions] = None,
) -> SweepResult:
    """Sweep the DC level of voltage source *source_name* over *values*.

    Point *k* starts from the secant prediction of its node voltages,
    ``x[k-1] + clip(r * (x[k-1] - x[k-2]), -vlimit, vlimit)`` with
    ``r = (values[k] - values[k-1]) / (values[k-1] - values[k-2])`` the
    ratio of the level steps and ``vlimit`` the Newton update clamp of
    *options*; its branch unknowns start at ``x[k-1]``'s.  The first
    point starts from *v0* (a full unknown vector as
    :func:`repro.circuit.dcop.initial_guess` builds it), the second and
    any point after a zero level step from the previous solution.  The
    prediction is elementwise, so each sample's start depends only on its
    own solutions.  The compiled plan is resolved once for the whole
    sweep.  Returns every point's node voltages.
    """
    source = circuit[source_name]
    waveform = getattr(source, "waveform", None)
    if not isinstance(waveform, DC):
        raise TypeError(
            f"source {source_name!r} must drive a DC waveform to be swept"
        )

    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if not np.isfinite(values).all():
        raise ValueError("sweep levels must be finite")

    vlimit = (options or NewtonOptions()).vlimit
    plan = circuit.compiled()
    original_level = waveform.level
    n_nodes = circuit.n_nodes
    solutions = []
    try:
        guess = v0
        for k, level in enumerate(values):
            waveform.level = level
            ratio = _step_ratio(values, k)
            if ratio is not None:
                x, x_prev = solutions[-1], solutions[-2]
                guess = guess.copy()
                guess[..., :n_nodes] += np.clip(ratio * (x - x_prev),
                                                -vlimit, vlimit)
            guess, _ = _solve_nodes(circuit, plan, guess, 0.0, options)
            # Contiguous, so the prediction and the final stack run
            # elementwise in one pass instead of once per sample row.
            solutions.append(np.ascontiguousarray(guess[..., :n_nodes]))
    finally:
        waveform.level = original_level

    node_index = {name: circuit.index_of(name) for name in circuit.node_names}
    return SweepResult(
        values=values, voltages=np.stack(solutions, axis=0), node_index=node_index
    )


def _step_ratio(values: np.ndarray, k: int) -> Optional[float]:
    """The secant ratio of point *k*'s level step to the one before it,
    or None where the point starts from the previous solution: the first
    two points, and after a zero level step (or steps so unequal that
    the ratio overflows)."""
    if k < 2:
        return None
    before = float(values[k - 1] - values[k - 2])
    if before == 0.0:
        return None
    ratio = float(values[k] - values[k - 1]) / before
    return ratio if math.isfinite(ratio) else None
