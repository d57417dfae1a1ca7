"""Batched modified-nodal-analysis assembly and the Newton-Raphson core.

The solver operates on stacked systems over a flat sample axis, and the
assembled system supplies its own linear step.  The generic
:class:`System` carries the dense ``batch + (n, n)`` Jacobian and the
residual over all unknowns and solves the dense system with one batched
``numpy.linalg.solve`` (the reference path).  The compiled engine
(:mod:`repro.circuit.compiled`) assembles the free-node rows only, steps
the node unknowns by exact elimination of the grounded sources and
factorizes just the free-node block; its branch currents come from KCL
once the solve has converged.  Per-sample convergence is tracked with a
mask so finished samples stop moving while stragglers iterate — at no
point does Python loop over Monte-Carlo samples.
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

    def newton_step(self, v: np.ndarray, sel: np.ndarray, gmin: float,
                    n_nodes: int):
        """Newton updates of the samples *sel*: ``J dv = -r``, dense.

        *v* is the flat ``(N, n)`` solution and *sel* the active sample
        indices.  The selected rows are gmin-conditioned (``+gmin`` on
        the node diagonal, ``+gmin * v`` on the node residual rows) and
        solved together.  Returns ``(dv, solvable, residual)``: *dv*
        ``(k, n)`` over every unknown, *solvable* as
        :func:`_solve_stacked` gives it, and the conditioned node rows
        of the residual the convergence test reads.
        """
        n = self.n
        node = np.arange(n_nodes)
        jac = self.jacobian.reshape(-1, n, n)[sel]
        jac[:, node, node] += gmin
        res = self.residual.reshape(-1, n)[sel]
        res[:, :n_nodes] += gmin * v[sel, :n_nodes]
        dv, solvable = _solve_stacked(jac, res)
        return dv, solvable, res[:, :n_nodes]


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
    #: Iterations spent in the last inner loop (max over samples).  The
    #: ``newton.solve`` span reports the total over every loop instead.
    iterations: int = 0
    #: The gmin each sample's system carried in its last Newton loop
    #: (batch shape): ``NewtonOptions.gmin`` for samples the plain pass
    #: solved, the last ``gmin_steps`` rung for those the ladder took
    #: over.  The compiled engine closes its branch currents' KCL with it.
    gmin: Optional[np.ndarray] = None


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
        Callback building the system (Jacobian + residual) at a trial
        solution.  Must already include all element stamps.  The result
        may be any object with a ``newton_step(v, sel, gmin, n_nodes)``
        that gmin-conditions and solves the selected samples — see
        :meth:`System.newton_step`.  Its updates cover the leading
        unknowns it steps (all of them for :class:`System`, the nodes
        for the compiled engine); the rest do not move.
    v0:
        Initial guess, shape ``batch + (n,)`` (modified copies are used,
        the input is untouched).
    n_nodes:
        Number of node unknowns (gmin applies only to these rows, not to
        source branch currents).
    return_info:
        When True, return ``(v, NewtonInfo)`` instead of raising on
        failure; samples whose mask entry is False did not converge
        (:func:`require_converged` raises as the plain call would).

    Convergence is tracked per sample: a sample that meets the tolerance
    is frozen (its unknowns stop moving) while stragglers keep
    iterating, so every sample follows exactly the trajectory it would
    follow in a standalone scalar solve.  A sample whose update turns
    non-finite is frozen as failed without disturbing the others.  The
    ``newton.solve`` span's ``iterations`` is the total over the plain
    pass and every gmin rung — one per ``assemble`` call.
    """
    opts = options or NewtonOptions()
    v = np.array(v0, dtype=float)
    # Scheduling-side tracing only: the span observes the solve (batch
    # size, iterations, convergence counts) and never alters it.
    with _trace_span("newton.solve", batch=int(v[..., 0].size)) as sp:
        converged, iters = _newton_inner(assemble, v, n_nodes, opts,
                                         opts.gmin)
        total = iters
        gmin = np.full(converged.shape, opts.gmin)
        ladder = ~converged
        if ladder.any():
            # gmin stepping for the samples the plain pass could not
            # solve: heavily damped systems first, reusing each solution
            # as the next initial guess.  Samples that already converged
            # keep their plain Newton result and sit the ladder out —
            # exactly what their standalone scalar solves would do — and
            # every rung runs so the verdict comes from the final
            # (lightest-damped) rung, never a damped rung's accuracy.
            v0 = np.broadcast_to(np.asarray(v0, dtype=float), v.shape)
            n = v.shape[-1]
            v.reshape(-1, n)[ladder.reshape(-1)] = (
                v0.reshape(-1, n)[ladder.reshape(-1)]
            )
            ladder_converged = converged
            for rung in opts.gmin_steps:
                ladder_converged, iters = _newton_inner(
                    assemble, v, n_nodes, opts, rung, restrict=ladder
                )
                total += iters
                gmin = np.where(ladder, rung, gmin)
            converged = converged | ladder_converged
        sp.set(iterations=int(total),
               converged=int(np.count_nonzero(converged)),
               gmin_ladder=bool(ladder.any()))
    info = NewtonInfo(converged, iters, gmin)
    if return_info:
        return v, info
    require_converged(info, opts)
    return v


def require_converged(info: NewtonInfo,
                      options: Optional[NewtonOptions] = None) -> None:
    """Raise :class:`ConvergenceError` unless every sample of *info*
    converged — the verdict :func:`newton_solve` gives without
    ``return_info``."""
    if np.all(info.converged):
        return
    opts = options or NewtonOptions()
    floor = opts.gmin_steps[-1] if opts.gmin_steps else opts.gmin
    raise ConvergenceError(
        f"Newton failed to converge (gmin stepping down to gmin={floor:g})"
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
    mask with the batch shape (a 0-d array for unbatched solves) and
    *iterations* counts this loop's ``assemble`` calls.  Converged
    samples are frozen; only still-active samples enter the system's
    ``newton_step``, which gathers and gmin-conditions just those rows
    and solves them in one stacked ``np.linalg.solve`` (the dense
    ``(k, n, n)`` systems on the generic path, the free-node block on
    the compiled path), so a handful of stragglers no longer pays for
    the whole batch.  The step returns the updates of the unknowns it
    steps and the conditioned residual rows it owns; a sample converges
    when every update is below ``vtol`` and every such residual below
    ``itol`` — on the compiled path, the node updates and the free-node
    rows, so branch currents and pinned rows do not hold a sample back.
    Both tests, and the finiteness test, go through
    :func:`_every_column`, which gives the row-wise test's mask exactly
    (column by column on a large batch, where that is the fast way).

    Assembly still evaluates the full batch — frozen samples' unknowns
    are unchanged, so their stamps are recomputed identically.
    Evaluating only the active samples was measured and saves nothing:
    in a fig9 READ-SNM batch 354 of 512 iterations have every sample
    active (NAND2 FO3: 1052 of 1423), and on the others gathering the
    stacked device cards costs what skipping the converged rows saves.

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
    iteration = 0
    while active.any() and iteration < opts.max_iterations:
        iteration += 1
        system = assemble(v)
        sel = np.flatnonzero(active)
        dv, solvable, res = system.newton_step(vf, sel, gmin, n_nodes)

        keep = _every_column(np.isfinite, dv)
        if solvable is not None:
            keep &= solvable
        if not keep.all():
            dropped = sel[~keep]
            failed[dropped] = True
            active[dropped] = False
            sel, dv, res = sel[keep], dv[keep], res[keep]

        np.clip(dv, -opts.vlimit, opts.vlimit, out=dv)
        vf[sel, :dv.shape[-1]] += dv

        done = _every_column(lambda col: np.abs(col) < opts.vtol, dv)
        done &= _every_column(lambda col: np.abs(col) < opts.itol, res)
        active[sel[done]] = False

    converged = started & ~(active | failed)
    return converged.reshape(batch), iteration


#: Rows per column from which :func:`_every_column` loops over columns:
#: where one ufunc call per column (~2 µs) undercuts a row reduction
#: over a few columns (~20-60 ns per row).
_COLUMNWISE_ROWS_PER_COLUMN = 128


def _every_column(test, a: np.ndarray) -> np.ndarray:
    """Per row of the 2-D *a*: does the elementwise *test* hold in every
    column?

    A row reduction pays per row, so once rows far outnumber columns
    (the fig9 batch: 2500 × 6) the test runs column by column instead;
    a small batch or a wide system keeps the one reduction.  Both forms
    give the same mask.
    """
    rows, cols = a.shape
    if rows < _COLUMNWISE_ROWS_PER_COLUMN * cols:
        return test(a).all(axis=-1)
    ok = np.ones(rows, dtype=bool)
    for col in a.T:
        ok &= test(col)
    return ok
