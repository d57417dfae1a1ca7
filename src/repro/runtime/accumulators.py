"""Streaming accumulators: shard results combine without the samples.

Every accumulator supports the same three-verb protocol —

* ``update(values)``: fold in a chunk of raw samples;
* ``merge(other)``: exact combination of two accumulator states (Chan's
  parallel formulas for the moments), so shard-local accumulators reduce
  to the global one without materializing all samples;
* ``state()`` / ``from_state()``: plain-dict snapshots for
  checkpoint/resume.

Merging is performed in shard-index order by the runner, which makes the
floating-point result deterministic at every worker count.  ``merge`` is
mathematically associative; in floats it is associative to rounding,
which the hypothesis property tests in ``tests/test_runtime.py`` pin.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "StreamStats",
    "FailureAccumulator",
    "WeightedFailureAccumulator",
    "QuantileSketch",
    "TargetAccumulator",
]


class StreamStats:
    """Welford/Chan streaming count, mean, variance, min and max."""

    __slots__ = ("n", "mean", "m2", "min", "max")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.min = np.inf
        self.max = -np.inf

    # ------------------------------------------------------------------
    def update(self, values: np.ndarray) -> "StreamStats":
        """Fold a chunk of samples in (vectorized, one pass per chunk)."""
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        chunk = StreamStats()
        chunk.n = int(values.size)
        chunk.mean = float(np.mean(values))
        chunk.m2 = float(np.var(values) * values.size)
        chunk.min = float(np.min(values))
        chunk.max = float(np.max(values))
        return self.merge(chunk)

    def merge(self, other: "StreamStats") -> "StreamStats":
        """Exact pairwise combination (Chan et al. parallel moments)."""
        if other.n == 0:
            return self
        if self.n == 0:
            self.n, self.mean, self.m2 = other.n, other.mean, other.m2
            self.min, self.max = other.min, other.max
            return self
        n = self.n + other.n
        delta = other.mean - self.mean
        self.mean = self.mean + delta * (other.n / n)
        self.m2 = self.m2 + other.m2 + delta * delta * (self.n * other.n / n)
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    # ------------------------------------------------------------------
    def variance(self, ddof: int = 1) -> float:
        if self.n <= ddof:
            return np.nan
        return self.m2 / (self.n - ddof)

    def std(self, ddof: int = 1) -> float:
        return float(np.sqrt(self.variance(ddof)))

    def sem(self) -> float:
        """Standard error of the mean."""
        if self.n < 2:
            return np.inf
        return self.std() / np.sqrt(self.n)

    def sigma_relative_error(self) -> float:
        """Relative standard error of the *sigma* estimate.

        Large-sample Gaussian approximation ``1 / sqrt(2 (n - 1))`` —
        the quantity the sigma-targeted :class:`~repro.runtime.stopping.
        StopRule` drives to its tolerance.
        """
        if self.n < 2:
            return np.inf
        return 1.0 / np.sqrt(2.0 * (self.n - 1))

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "m2": self.m2,
                "min": self.min, "max": self.max}

    @classmethod
    def from_state(cls, state: Dict[str, float]) -> "StreamStats":
        out = cls()
        out.n = int(state["n"])
        out.mean = float(state["mean"])
        out.m2 = float(state["m2"])
        out.min = float(state["min"])
        out.max = float(state["max"])
        return out


class QuantileSketch:
    """Mergeable, deterministic multi-level quantile sketch (KLL-style).

    Samples enter a level-0 buffer; when a level holds more than *k*
    items it is sorted and **deterministically** halved (keep every
    second item, alternating the kept offset per compaction), promoting
    the survivors — each now representing twice the weight — one level
    up.  Determinism (no random coin) keeps sharded runs reproducible;
    the price is a small systematic rank bias well inside the usual
    ``O(n/k)`` rank-error envelope that the tests assert.

    ``merge`` concatenates per-level buffers and re-compacts, so shard
    sketches combine into a whole-run sketch at ``O(k log n)`` memory.
    """

    def __init__(self, k: int = 256):
        if k < 8:
            raise ValueError("sketch size k must be >= 8")
        self.k = int(k)
        self.levels: List[List[float]] = [[]]
        self.count = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    def update(self, values: np.ndarray) -> "QuantileSketch":
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return self
        self.levels[0].extend(values.tolist())
        self.count += int(values.size)
        self._compress()
        return self

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append([])
        for level, items in enumerate(other.levels):
            self.levels[level].extend(items)
        self.count += other.count
        self._compactions += other._compactions
        self._compress()
        return self

    def _compress(self) -> None:
        level = 0
        while level < len(self.levels):
            buf = self.levels[level]
            if len(buf) > self.k:
                buf.sort()
                offset = self._compactions % 2
                self._compactions += 1
                survivors = buf[offset::2]
                self.levels[level] = []
                if level + 1 == len(self.levels):
                    self.levels.append([])
                self.levels[level + 1].extend(survivors)
            level += 1

    # ------------------------------------------------------------------
    def query(self, q: float) -> float:
        """Approximate *q*-quantile of everything folded in so far."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return np.nan
        items: List[tuple] = []
        for level, buf in enumerate(self.levels):
            weight = 1 << level
            items.extend((value, weight) for value in buf)
        items.sort()
        target = q * self.count
        seen = 0.0
        for value, weight in items:
            seen += weight
            if seen >= target:
                return value
        return items[-1][0]

    # ------------------------------------------------------------------
    def state(self) -> Dict:
        return {
            "k": self.k,
            "count": self.count,
            "compactions": self._compactions,
            "levels": [list(buf) for buf in self.levels],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "QuantileSketch":
        out = cls(k=int(state["k"]))
        out.count = int(state["count"])
        out._compactions = int(state["compactions"])
        out.levels = [list(buf) for buf in state["levels"]]
        return out


class FailureAccumulator:
    """Streaming sufficient statistics of an importance-sampled estimate.

    Folds in per-sample weighted failure contributions
    (``weight * indicator``) plus the raw weights, and reproduces the
    batch formulas of :func:`repro.stats.importance.
    estimate_failure_probability`: probability = mean(contrib),
    ``std_error = std(contrib, ddof=1)/sqrt(n)``, Kish effective sample
    size from the weight sums, and the observed failure count.  Plain
    (unweighted) Monte-Carlo failure counting is the ``weights=None``
    case with unit weights.
    """

    __slots__ = ("contrib", "sum_w", "sum_w2", "n_fail")

    def __init__(self):
        self.contrib = StreamStats()
        self.sum_w = 0.0
        self.sum_w2 = 0.0
        self.n_fail = 0

    # ------------------------------------------------------------------
    def update(
        self,
        fails: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> "FailureAccumulator":
        fails = np.asarray(fails, dtype=bool).ravel()
        if weights is None:
            weights = np.ones(fails.shape)
        weights = np.asarray(weights, dtype=float).ravel()
        self.contrib.update(weights * fails)
        self.sum_w += float(np.sum(weights))
        self.sum_w2 += float(np.sum(weights**2))
        self.n_fail += int(np.count_nonzero(fails))
        return self

    def merge(self, other: "FailureAccumulator") -> "FailureAccumulator":
        self.contrib.merge(other.contrib)
        self.sum_w += other.sum_w
        self.sum_w2 += other.sum_w2
        self.n_fail += other.n_fail
        return self

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return self.contrib.n

    @property
    def probability(self) -> float:
        return self.contrib.mean if self.contrib.n else np.nan

    @property
    def std_error(self) -> float:
        if self.contrib.n < 2:
            return np.inf
        return self.contrib.std() / np.sqrt(self.contrib.n)

    @property
    def effective_samples(self) -> float:
        return self.sum_w**2 / self.sum_w2 if self.sum_w2 > 0.0 else 0.0

    def estimate(self):
        """The streamed state as a :class:`~repro.stats.importance.
        FailureEstimate` — the payload of sharded importance sampling."""
        from repro.stats.importance import FailureEstimate

        return FailureEstimate(
            probability=float(self.probability),
            std_error=float(self.std_error),
            n_samples=int(self.n_samples),
            effective_samples=float(self.effective_samples),
            n_failures=int(self.n_fail),
        )

    def relative_error(self) -> float:
        """Relative error of the streamed estimate (``inf`` if undefined).

        Delegates to :meth:`estimate` so the degenerate-case policy
        (zero failures, NaN std error) has exactly one home, shared by
        the between-wave stop rule and the reported estimate.
        """
        return self.estimate().relative_error

    # ------------------------------------------------------------------
    def state(self) -> Dict:
        return {
            "contrib": self.contrib.state(),
            "sum_w": self.sum_w,
            "sum_w2": self.sum_w2,
            "n_fail": self.n_fail,
        }

    @classmethod
    def from_state(cls, state: Dict) -> "FailureAccumulator":
        out = cls()
        out.contrib = StreamStats.from_state(state["contrib"])
        out.sum_w = float(state["sum_w"])
        out.sum_w2 = float(state["sum_w2"])
        out.n_fail = int(state["n_fail"])
        return out


class WeightedFailureAccumulator(FailureAccumulator):
    """Weighted failure statistics plus cross-entropy sufficient moments.

    Extends :class:`FailureAccumulator` with the per-parameter weighted
    moments of the *failing* samples' deviations (in sigma units):
    ``sum(w)``, ``sum(w * x_p)`` and ``sum(w * x_p^2)`` over failures.
    Those are exactly the sufficient statistics of a single-Gaussian
    cross-entropy shift update — when the adaptive level has reached the
    true threshold, the new mean shift is ``fail_wx / fail_w`` — so the
    yield engine's adaptation rounds fold shard payloads through this
    accumulator instead of shipping sample arrays for the terminal case.

    The failure-probability estimate itself (``probability``,
    ``std_error``, ``effective_samples``, ``relative_error``) is the
    inherited one, bit-identical to :class:`FailureAccumulator` for the
    same update sequence, which is what keeps the ``Yield`` zero-round
    special case exactly equal to sharded ``ImportanceSampling``.
    """

    __slots__ = ("fail_w", "fail_wx", "fail_wx2")

    def __init__(self):
        super().__init__()
        self.fail_w = 0.0
        self.fail_wx: Dict[str, float] = {}
        self.fail_wx2: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def update(
        self,
        fails: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deviations: Optional[Dict[str, np.ndarray]] = None,
    ) -> "WeightedFailureAccumulator":
        fails = np.asarray(fails, dtype=bool).ravel()
        if weights is None:
            weights = np.ones(fails.shape)
        weights = np.asarray(weights, dtype=float).ravel()
        super().update(fails, weights)
        w_fail = weights[fails]
        self.fail_w += float(np.sum(w_fail))
        if deviations is not None:
            for name in deviations:
                x_fail = np.asarray(deviations[name], dtype=float).ravel()[fails]
                self.fail_wx[name] = self.fail_wx.get(name, 0.0) + float(
                    np.sum(w_fail * x_fail)
                )
                self.fail_wx2[name] = self.fail_wx2.get(name, 0.0) + float(
                    np.sum(w_fail * x_fail**2)
                )
        return self

    def merge(
        self, other: "WeightedFailureAccumulator"
    ) -> "WeightedFailureAccumulator":
        super().merge(other)
        self.fail_w += other.fail_w
        for name, wx in other.fail_wx.items():
            self.fail_wx[name] = self.fail_wx.get(name, 0.0) + wx
        for name, wx2 in other.fail_wx2.items():
            self.fail_wx2[name] = self.fail_wx2.get(name, 0.0) + wx2
        return self

    # ------------------------------------------------------------------
    def shift_estimate(self) -> Dict[str, float]:
        """Weighted mean deviation (sigma units) of the failing samples.

        The single-Gaussian cross-entropy update at the true threshold;
        empty when no weighted failure mass has been folded in yet.
        """
        if self.fail_w <= 0.0:
            return {}
        return {name: wx / self.fail_w for name, wx in self.fail_wx.items()}

    # ------------------------------------------------------------------
    def state(self) -> Dict:
        out = super().state()
        out["fail_w"] = self.fail_w
        out["fail_wx"] = dict(self.fail_wx)
        out["fail_wx2"] = dict(self.fail_wx2)
        return out

    @classmethod
    def from_state(cls, state: Dict) -> "WeightedFailureAccumulator":
        out = cls()
        out.contrib = StreamStats.from_state(state["contrib"])
        out.sum_w = float(state["sum_w"])
        out.sum_w2 = float(state["sum_w2"])
        out.n_fail = int(state["n_fail"])
        out.fail_w = float(state["fail_w"])
        out.fail_wx = {k: float(v) for k, v in state["fail_wx"].items()}
        out.fail_wx2 = {k: float(v) for k, v in state["fail_wx2"].items()}
        return out


class TargetAccumulator:
    """Per-target streaming stats + quantile sketch for Monte-Carlo runs.

    One :class:`StreamStats` and one :class:`QuantileSketch` per target
    name (``idsat``, ``log10_ioff``...), updated shard by shard; the
    sigma-targeted stop rule reads these instead of the concatenated
    sample arrays.
    """

    def __init__(self, sketch_k: int = 256):
        self.sketch_k = int(sketch_k)
        self.stats: Dict[str, StreamStats] = {}
        self.sketches: Dict[str, QuantileSketch] = {}

    def update(self, samples: Dict[str, np.ndarray]) -> "TargetAccumulator":
        for name, values in samples.items():
            if name not in self.stats:
                self.stats[name] = StreamStats()
                self.sketches[name] = QuantileSketch(self.sketch_k)
            self.stats[name].update(values)
            self.sketches[name].update(values)
        return self

    def merge(self, other: "TargetAccumulator") -> "TargetAccumulator":
        for name, stats in other.stats.items():
            if name not in self.stats:
                self.stats[name] = StreamStats()
                self.sketches[name] = QuantileSketch(self.sketch_k)
            self.stats[name].merge(stats)
            self.sketches[name].merge(other.sketches[name])
        return self

    @property
    def n_samples(self) -> int:
        if not self.stats:
            return 0
        return next(iter(self.stats.values())).n

    def sigma_relative_error(self) -> float:
        """Relative sigma error of the accumulated run.

        Every target shares the sample count, and the sigma error is a
        pure function of it, so one number covers all targets.
        """
        if not self.stats:
            return np.inf
        return next(iter(self.stats.values())).sigma_relative_error()

    # ------------------------------------------------------------------
    def state(self) -> Dict:
        return {
            "sketch_k": self.sketch_k,
            "stats": {name: s.state() for name, s in self.stats.items()},
            "sketches": {name: s.state() for name, s in self.sketches.items()},
        }

    @classmethod
    def from_state(cls, state: Dict) -> "TargetAccumulator":
        out = cls(sketch_k=int(state["sketch_k"]))
        out.stats = {
            name: StreamStats.from_state(s) for name, s in state["stats"].items()
        }
        out.sketches = {
            name: QuantileSketch.from_state(s)
            for name, s in state["sketches"].items()
        }
        return out
