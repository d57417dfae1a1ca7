"""Batched modified-nodal-analysis assembly and the Newton-Raphson core.

The solver operates on stacked systems: the residual has shape
``batch + (n,)`` over all unknowns, and the assembled system supplies
its own linear step.  The generic :class:`System` carries the dense
``batch + (n, n)`` Jacobian and solves it with one batched
``numpy.linalg.solve`` (the reference path); the compiled engine
(:mod:`repro.circuit.compiled`) carries only the node×node block and
eliminates the grounded-source unknowns exactly, factorizing just the
free-node block.  Per-sample convergence is tracked with a mask so
finished samples stop moving while stragglers iterate — at no point
does Python loop over Monte-Carlo samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.obs.trace import span as _trace_span

#: Conductance tied from every node to ground for matrix conditioning [S].
DEFAULT_GMIN = 1e-10

#: Newton update clamp per iteration [V] — classic SPICE-style voltage
#: limiting; keeps the exponential subthreshold region from overshooting.
DEFAULT_VLIMIT = 0.3

#: Convergence tolerances.
DEFAULT_VTOL = 1e-7
DEFAULT_ITOL = 1e-11


class ConvergenceError(RuntimeError):
    """Raised when Newton-Raphson fails to converge."""


class System:
    """One Newton iteration's Jacobian and residual accumulator.

    The generic (per-element) assembly target, and the reference linear
    step: :meth:`newton_step` solves the dense system.
    """

    def __init__(self, batch_shape: tuple, n_unknowns: int):
        self.batch_shape = batch_shape
        self.n = n_unknowns
        self.jacobian = np.zeros(batch_shape + (n_unknowns, n_unknowns))
        self.residual = np.zeros(batch_shape + (n_unknowns,))

    def add_f(self, index: int, value) -> None:
        """Accumulate into the residual; ground rows are discarded."""
        if index >= 0:
            self.residual[..., index] += value

    def add_j(self, row: int, col: int, value) -> None:
        """Accumulate into the Jacobian; ground rows/cols are discarded."""
        if row >= 0 and col >= 0:
            self.jacobian[..., row, col] += value

    @staticmethod
    def newton_step(jacobian: np.ndarray, residual: np.ndarray):
        """Newton updates for a stacked selection: ``J dv = -r``, dense.

        *jacobian* ``(k, n, n)`` and *residual* ``(k, n)`` are the
        gmin-conditioned active rows; returns ``(dv, solvable)`` as
        :func:`_solve_stacked` does.
        """
        return _solve_stacked(jacobian, residual)


@dataclass
class NewtonOptions:
    """Knobs for the Newton-Raphson loop."""

    max_iterations: int = 80
    gmin: float = DEFAULT_GMIN
    vlimit: float = DEFAULT_VLIMIT
    vtol: float = DEFAULT_VTOL
    itol: float = DEFAULT_ITOL
    #: Retry ladder of gmin values when plain Newton stalls.
    gmin_steps: tuple = (1e-3, 1e-5, 1e-7, DEFAULT_GMIN)


@dataclass
class NewtonInfo:
    """Per-sample outcome of a Newton solve."""

    #: Boolean mask with the batch shape: True where the sample converged.
    converged: np.ndarray
    #: Iterations spent in the last inner loop (max over samples).
    iterations: int = 0


def newton_solve(
    assemble: Callable[[np.ndarray], System],
    v0: np.ndarray,
    n_nodes: int,
    options: Optional[NewtonOptions] = None,
    return_info: bool = False,
):
    """Solve ``F(v) = 0`` by damped Newton-Raphson on batched systems.

    Parameters
    ----------
    assemble:
        Callback building the :class:`System` (Jacobian + residual) at a
        trial solution.  Must already include all element stamps.  The
        result may be any object with ``jacobian`` (its first
        ``n_nodes`` rows/columns are the node unknowns), ``residual``
        (``batch + (n,)``) and a ``newton_step(jacobian, residual)`` that
        solves the stacked selection — see :meth:`System.newton_step`.
    v0:
        Initial guess, shape ``batch + (n,)`` (modified copies are used,
        the input is untouched).
    n_nodes:
        Number of node unknowns (gmin applies only to these rows, not to
        source branch currents).
    return_info:
        When True, return ``(v, NewtonInfo)`` instead of raising on
        failure; samples whose mask entry is False did not converge.

    Convergence is tracked per sample: a sample that meets the tolerance
    is frozen (its unknowns stop moving) while stragglers keep
    iterating, so every sample follows exactly the trajectory it would
    follow in a standalone scalar solve.  A sample whose update turns
    non-finite is frozen as failed without disturbing the others.
    """
    opts = options or NewtonOptions()
    v = np.array(v0, dtype=float)
    # Scheduling-side tracing only: the span observes the solve (batch
    # size, iterations, convergence counts) and never alters it.
    with _trace_span("newton.solve", batch=int(v[..., 0].size)) as sp:
        converged, iters = _newton_inner(assemble, v, n_nodes, opts,
                                         opts.gmin)
        if np.all(converged):
            sp.set(iterations=int(iters),
                   converged=int(np.count_nonzero(converged)),
                   gmin_ladder=False)
            return (v, NewtonInfo(converged, iters)) if return_info else v

        # gmin stepping for the samples the plain pass could not solve:
        # heavily damped systems first, reusing each solution as the next
        # initial guess.  Samples that already converged keep their plain
        # Newton result and sit the ladder out — exactly what their
        # standalone scalar solves would do — and every rung runs so the
        # verdict comes from the final (lightest-damped) rung, never a
        # damped rung's accuracy.
        ladder = ~converged
        v0 = np.broadcast_to(np.asarray(v0, dtype=float), v.shape)
        n = v.shape[-1]
        v.reshape(-1, n)[ladder.reshape(-1)] = (
            v0.reshape(-1, n)[ladder.reshape(-1)]
        )
        ladder_converged = converged
        for gmin in opts.gmin_steps:
            ladder_converged, iters = _newton_inner(
                assemble, v, n_nodes, opts, gmin, restrict=ladder
            )
        converged = converged | ladder_converged
        sp.set(iterations=int(iters),
               converged=int(np.count_nonzero(converged)),
               gmin_ladder=True)
        if np.all(converged) or return_info:
            return (v, NewtonInfo(converged, iters)) if return_info else v
    raise ConvergenceError(
        f"Newton failed to converge (gmin stepping down to "
        f"gmin={opts.gmin_steps[-1]:g})"
    )


def _solve_stacked(jac: np.ndarray, res: np.ndarray):
    """Newton updates for a stacked selection; isolates singular members.

    Returns ``(dv, solvable)``: rows of *dv* for unsolvable (singular)
    systems are zero and flagged False in *solvable*.  The common case
    is one batched ``np.linalg.solve``; only when that throws does the
    per-sample fallback run to pin the offenders.
    """
    try:
        return np.linalg.solve(jac, -res[..., None])[..., 0], None
    except np.linalg.LinAlgError:
        dv = np.zeros_like(res)
        solvable = np.ones(res.shape[0], dtype=bool)
        for k in range(res.shape[0]):
            try:
                dv[k] = np.linalg.solve(jac[k], -res[k])
            except np.linalg.LinAlgError:
                solvable[k] = False
        return dv, solvable


def _newton_inner(
    assemble: Callable[[np.ndarray], System],
    v: np.ndarray,
    n_nodes: int,
    opts: NewtonOptions,
    gmin: float,
    restrict: Optional[np.ndarray] = None,
):
    """In-place Newton loop with per-sample convergence masking.

    Returns ``(converged, iterations)`` where *converged* is a boolean
    mask with the batch shape (a 0-d array for unbatched solves).
    Converged samples are frozen; only still-active samples enter the
    system's ``newton_step`` (one stacked ``np.linalg.solve``: the dense
    ``(k, n, n)`` systems on the generic path, the free-node block after
    source elimination on the compiled path), so a handful of stragglers
    no longer pays the factorization cost of the whole batch.  Assembly
    still evaluates the full batch — frozen samples' unknowns are
    unchanged, so their stamps are recomputed identically.  With the
    source unknowns eliminated, assembly and device evaluation are the
    larger share of an iteration; assembling only the active subset
    would need mask-aware assemble closures.

    *restrict* (optional boolean mask, batch shape) limits the loop to a
    subset of samples; everything outside it is left untouched and
    reported unconverged.
    """
    batch = v.shape[:-1]
    n = v.shape[-1]
    n_batch = int(np.prod(batch, dtype=np.int64)) if batch else 1
    vf = v.reshape(n_batch, n)  # view: updates land in the caller's array

    if restrict is None:
        active = np.ones(n_batch, dtype=bool)
    else:
        active = np.broadcast_to(restrict, batch).reshape(n_batch).copy()
    started = active.copy()
    failed = np.zeros(n_batch, dtype=bool)
    node_idx = np.arange(n_nodes)
    iteration = 0
    for iteration in range(1, opts.max_iterations + 1):
        if not active.any():
            break
        system = assemble(v)
        jac = system.jacobian
        res = system.residual.copy()

        # gmin conditioning on node rows only.
        jac[..., node_idx, node_idx] += gmin
        res[..., :n_nodes] += gmin * v[..., :n_nodes]

        m = jac.shape[-1]
        jac_f = jac.reshape(n_batch, m, m)
        res_f = res.reshape(n_batch, n)
        sel = np.flatnonzero(active)
        dv, solvable = system.newton_step(jac_f[sel], res_f[sel])
        if solvable is not None:
            singular = sel[~solvable]
            failed[singular] = True
            active[singular] = False
            sel = sel[solvable]
            dv = dv[solvable]

        finite = np.isfinite(dv).all(axis=-1)
        diverged = sel[~finite]
        failed[diverged] = True
        active[diverged] = False

        sel = sel[finite]
        dv = np.clip(dv[finite], -opts.vlimit, opts.vlimit)
        res_active = res_f[sel]
        vf[sel] += dv

        dv_ok = np.abs(dv).max(axis=-1) < opts.vtol
        if n_nodes:
            res_ok = np.abs(res_active[:, :n_nodes]).max(axis=-1) < opts.itol
        else:
            res_ok = np.ones(sel.shape, dtype=bool)
        active[sel[dv_ok & res_ok]] = False
        if not active.any():
            break

    converged = started & ~(active | failed)
    return converged.reshape(batch), iteration
