"""SSTA evaluation engines: Monte-Carlo and Clark moment matching.

Monte-Carlo engine: every arc draws an ``(n,)`` sample vector; arrival
times propagate through the DAG with vectorized sum/max — one pass gives
the full sink-arrival distribution, non-Gaussianity included.

Analytic engine: arrival times are kept Gaussian ``(mean, variance)``;
sums add moments, and the max of arrivals uses Clark's classical
approximation (independent inputs).  This is the textbook SSTA kernel
whose accuracy degrades exactly when the paper says it does — at low
Vdd, where the true arc distributions grow tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy import stats as sps

from repro.ssta.graph import TimingGraph


@dataclass(frozen=True)
class _ArrivalTask:
    """Picklable shard task: one chunk of graph Monte-Carlo arrivals."""

    graph: TimingGraph
    source: str
    sink: str

    def __call__(self, shard) -> np.ndarray:
        return monte_carlo_arrival(
            self.graph, self.source, self.sink, shard.n_samples, shard.rng()
        )


def monte_carlo_arrival(
    graph: TimingGraph,
    source: str,
    sink: str,
    n_samples: int,
    rng: Optional[np.random.Generator] = None,
    *,
    execution=None,
    base_seed: Optional[int] = None,
    executor=None,
    return_info: bool = False,
):
    """Sink latest-arrival samples, shape ``(n_samples,)``.

    Arc draws are independent across arcs (within-die mismatch); every
    sample index is one "die".

    With *execution* options (an :class:`repro.api.Execution` or any
    object with its attributes) the run goes through the parallel
    runtime: samples are drawn shard by shard from streams derived from
    *base_seed* per the shard/seed contract, optionally fanned out over
    *executor* (built from ``execution.workers`` when omitted) and
    stopped adaptively.  ``execution=None`` keeps the historical
    single-stream draw from *rng*.  ``return_info=True`` additionally
    returns the :class:`repro.runtime.RuntimeInfo` (``None`` for the
    unsharded path).
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    graph.validate_endpoints(source, sink)

    if execution is not None:
        from repro.runtime import (
            plan_for_execution,
            resolve_executor,
            run_array_task,
            run_options,
        )

        if base_seed is None:
            raise ValueError("sharded graph Monte-Carlo needs a base_seed")
        plan = plan_for_execution(execution, n_samples, base_seed)
        own_executor = executor is None
        executor = (
            resolve_executor(getattr(execution, "workers", 1))
            if own_executor else executor
        )
        try:
            values, _, info = run_array_task(
                _ArrivalTask(graph=graph, source=source, sink=sink),
                plan,
                executor,
                **run_options(execution, "sigma"),
            )
        finally:
            if own_executor:
                executor.close()
        return (values, info) if return_info else values

    if rng is None:
        raise ValueError("the unsharded path needs an rng")

    arrivals: Dict[str, np.ndarray] = {source: np.zeros(n_samples)}
    for node in graph.topological_order():
        candidates = []
        for pred in graph.predecessors(node):
            if pred in arrivals:
                delay = graph.arc_delay(pred, node)
                candidates.append(arrivals[pred] + delay.draw(n_samples, rng))
        if candidates:
            arrivals[node] = np.maximum.reduce(candidates)
    if sink not in arrivals:
        raise ValueError(f"sink {sink!r} unreachable from {source!r}")
    return (arrivals[sink], None) if return_info else arrivals[sink]


@dataclass(frozen=True)
class GaussianArrival:
    """Gaussian arrival-time estimate at the sink."""

    mean: float
    variance: float

    @property
    def sigma(self) -> float:
        return float(np.sqrt(self.variance))

    def quantile(self, q: float) -> float:
        """Gaussian quantile of the arrival estimate."""
        return float(sps.norm.ppf(q, loc=self.mean, scale=max(self.sigma, 1e-30)))


def _clark_max(
    m1: float, v1: float, m2: float, v2: float
) -> Tuple[float, float]:
    """Clark's mean/variance of max(X1, X2) for independent Gaussians."""
    theta2 = v1 + v2
    if theta2 <= 0.0:
        # Deterministic inputs.
        if m1 >= m2:
            return m1, v1
        return m2, v2
    theta = np.sqrt(theta2)
    alpha = (m1 - m2) / theta
    phi = sps.norm.pdf(alpha)
    cdf = sps.norm.cdf(alpha)
    mean = m1 * cdf + m2 * (1.0 - cdf) + theta * phi
    second = (
        (v1 + m1**2) * cdf
        + (v2 + m2**2) * (1.0 - cdf)
        + (m1 + m2) * theta * phi
    )
    variance = max(second - mean**2, 0.0)
    return float(mean), float(variance)


def clark_arrival(graph: TimingGraph, source: str, sink: str) -> GaussianArrival:
    """Analytic Gaussian SSTA with Clark's max (independent arcs)."""
    graph.validate_endpoints(source, sink)

    moments: Dict[str, Tuple[float, float]] = {source: (0.0, 0.0)}
    for node in graph.topological_order():
        incoming = []
        for pred in graph.predecessors(node):
            if pred in moments:
                delay = graph.arc_delay(pred, node)
                m_pred, v_pred = moments[pred]
                incoming.append((m_pred + delay.mean, v_pred + delay.variance))
        if not incoming:
            continue
        m, v = incoming[0]
        for m2, v2 in incoming[1:]:
            m, v = _clark_max(m, v, m2, v2)
        moments[node] = (m, v)
    if sink not in moments:
        raise ValueError(f"sink {sink!r} unreachable from {source!r}")
    mean, variance = moments[sink]
    return GaussianArrival(mean=mean, variance=variance)
