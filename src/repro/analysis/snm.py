"""Static Noise Margin extraction from SRAM butterfly curves (Fig. 9).

The SNM is the side of the largest axis-parallel square that fits inside
each lobe of the butterfly diagram (Seevinck's definition); the cell SNM
is the smaller of the two lobes (the weaker side flips first).

Let ``f`` be the first transfer curve (``y = f(x)``, node-2 response with
node 1 forced) and ``g`` the second (``x = g(y)``).  Both are monotone
decreasing.  The upper-left lobe is the region

    { (x, y) : y <= f(x)  and  x >= g(y) }

and a square of side ``a`` fits in it iff

    max_y [ f(g(y) + a) - a - y ] >= 0,

obtained by pushing the square's left edge onto curve ``g`` and checking
its upper-right corner against curve ``f`` (the two binding constraints
for decreasing curves).  The feasibility margin is monotone decreasing in
``a``, so the largest square is found by bisection; the lower-right lobe
is the same problem with ``f`` and ``g`` exchanged.  Everything is
vectorized over the Monte-Carlo batch: curves are sampled on a shared
uniform sweep, so interpolation reduces to index arithmetic.  Each curve
is made C-contiguous and its segment slopes are taken once, so every
bisection probe interpolates with one flat ``np.take`` into the curve
and one into the slopes (the same ``hi - lo`` subtraction, done once).
"""

from __future__ import annotations

import numpy as np


def _interp_uniform(values: np.ndarray, slopes: np.ndarray,
                    columns: np.ndarray, queries: np.ndarray,
                    x0: float, dx: float):
    """Linear interpolation of curves sampled on a uniform grid.

    ``values`` is the C-contiguous ``(S,) + batch`` curve samples and
    ``slopes`` their C-contiguous segment differences ``np.diff(values,
    axis=0)``; ``columns`` numbers the batch entries, shape ``batch``
    (``np.arange(size).reshape(batch)``).  ``queries`` has shape
    ``(Q,) + batch`` (query points, already broadcast); clamps at the
    grid ends.  Each query reads its segment's start and slope with one
    flat ``np.take`` apiece.  Returns shape ``(Q,) + batch``.
    """
    n = values.shape[0]
    pos = (queries - x0) / dx
    idx = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = np.clip(pos - idx, 0.0, 1.0)
    flat = idx * columns.size + columns
    return np.take(values, flat) + frac * np.take(slopes, flat)


def _lobe_feasible(
    f: np.ndarray, f_slopes: np.ndarray, g: np.ndarray, columns: np.ndarray,
    x0: float, dx: float, side: np.ndarray,
) -> np.ndarray:
    """Does a square of (per-sample) *side* fit in the {y<=f, x>=g} lobe?

    *f_slopes* and *columns* are as :func:`_interp_uniform` takes them.
    """
    # Left edge on curve g: candidate squares anchored at every sweep
    # sample y; upper-right corner must stay under curve f.
    x_query = g + side          # (S,) + batch
    f_at = _interp_uniform(f, f_slopes, columns, x_query, x0, dx)
    n = f.shape[0]
    y_grid = (x0 + dx * np.arange(n)).reshape((n,) + (1,) * (f.ndim - 1))
    margin = f_at - side - y_grid
    return margin.max(axis=0) >= 0.0


def largest_square_snm(
    v_forced: np.ndarray,
    curve_a: np.ndarray,
    curve_b: np.ndarray,
    tolerance: float = 1e-5,
) -> np.ndarray:
    """SNM from a butterfly: two VTCs over the same forced-voltage sweep.

    Parameters
    ----------
    v_forced:
        (S,) forced-node sweep, uniformly spaced and increasing.
    curve_a:
        ``(S,) + batch`` — response of node 2 with node 1 forced
        (``y = f(x)``).
    curve_b:
        ``(S,) + batch`` — response of node 1 with node 2 forced
        (``x = g(y)``).

    Returns the per-sample SNM (minimum over the two lobes), with the
    batch shape of the inputs; a plain float for unbatched curves.
    """
    v_forced = np.asarray(v_forced, dtype=float)
    curve_a = np.asarray(curve_a, dtype=float)
    curve_b = np.asarray(curve_b, dtype=float)
    if curve_a.shape != curve_b.shape or curve_a.shape[0] != v_forced.shape[0]:
        raise ValueError("curve shapes disagree with the sweep axis")
    if v_forced.size < 3:
        raise ValueError("sweep must have at least 3 points")
    steps = np.diff(v_forced)
    if np.any(steps <= 0.0) or not np.allclose(steps, steps[0], rtol=1e-6):
        raise ValueError("sweep must be uniformly increasing")

    x0 = float(v_forced[0])
    dx = float(steps[0])
    span = float(v_forced[-1] - v_forced[0])
    scalar = curve_a.ndim == 1
    if scalar:
        curve_a = curve_a[:, None]
        curve_b = curve_b[:, None]
    batch = curve_a.shape[1:]
    curves = [np.ascontiguousarray(c) for c in (curve_a, curve_b)]
    slopes = [np.diff(c, axis=0) for c in curves]
    columns = np.arange(curves[0][0].size).reshape(batch)

    snm = np.empty((2,) + batch)
    for lobe, (f, g) in enumerate(((0, 1), (1, 0))):
        curve = (curves[f], slopes[f], curves[g], columns, x0, dx)
        lo = np.zeros(batch)
        hi = np.full(batch, span)
        # Samples with no lobe at all (curves crossed): SNM = 0.
        feasible0 = _lobe_feasible(*curve, lo)
        n_iter = int(np.ceil(np.log2(span / tolerance)))
        for _ in range(n_iter):
            mid = 0.5 * (lo + hi)
            ok = _lobe_feasible(*curve, mid)
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid)
        snm[lobe] = np.where(feasible0, 0.5 * (lo + hi), 0.0)

    result = snm.min(axis=0)
    return float(result[0]) if scalar else result


def butterfly_snm(
    v_forced: np.ndarray, curve_a: np.ndarray, curve_b: np.ndarray
) -> np.ndarray:
    """Alias with the paper's vocabulary: SNM of a butterfly diagram."""
    return largest_square_snm(v_forced, curve_a, curve_b)
