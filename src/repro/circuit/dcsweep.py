"""DC sweep analysis (warm-started continuation).

Sweeps the level of one DC voltage source, reusing each operating point as
the next initial guess.  Continuation is what makes the bistable SRAM
butterfly curves of Fig. 9 solvable: each branch is tracked from its own
end of the sweep.

A sweep reports node voltages only.  Each point runs the node solve of
:func:`repro.circuit.dcop.dc_operating_point` without the KCL that fills
a compiled plan's branch currents (a value-path evaluation of every
transistor per point, which transfer curves never read).
``dc_operating_point`` at a level of interest (``DCOp`` through the API)
gives them.
"""

from __future__ import annotations

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

    Each point starts from the previous point's solution (*v0*, a full
    unknown vector as :func:`repro.circuit.dcop.initial_guess` builds
    it, for the first) and reports its node voltages.
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

    original_level = waveform.level
    n_nodes = circuit.n_nodes
    solutions = []
    try:
        guess = v0
        for level in values:
            waveform.level = level
            guess, _, _ = _solve_nodes(circuit, guess, 0.0, options)
            solutions.append(guess[..., :n_nodes])
    finally:
        waveform.level = original_level

    node_index = {name: circuit.index_of(name) for name in circuit.node_names}
    return SweepResult(
        values=values, voltages=np.stack(solutions, axis=0), node_index=node_index
    )
