"""Uniform result envelope for every analysis and experiment.

A :class:`Result` carries the analysis payload (whatever dataclass or
array the underlying engine produced) together with the metadata every
consumer keeps re-deriving by hand: the seed that reproduces the run,
the Monte-Carlo sample count, the backend that executed it, the wall
time, and a verbatim echo of the spec.  ``to_dict``/``to_json`` render
the whole envelope — numpy arrays, nested dataclasses, complex phasors
and all — into plain JSON types for logging, CI artifacts, and the
``python -m repro --json`` CLI mode.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api.specs import AnalysisSpec

__all__ = ["Result", "SweepResult", "jsonify"]


def jsonify(obj: Any) -> Any:
    """Recursively convert *obj* into JSON-serializable plain types.

    Handles nested dataclasses, numpy arrays/scalars (complex arrays
    become ``{"real": ..., "imag": ...}``), mappings, sequences, and
    falls back to ``repr`` for anything exotic (callables, models).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"real": obj.real, "imag": obj.imag}
    if isinstance(obj, np.generic):
        return jsonify(obj.item())
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"real": jsonify(obj.real), "imag": jsonify(obj.imag)}
        return jsonify(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = jsonify(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonify(v) for v in obj]
    return repr(obj)


@dataclass(frozen=True)
class Result:
    """Envelope returned by every ``Session`` analysis."""

    #: The analysis output (engine dataclass, array, or experiment result).
    payload: Any
    #: Verbatim echo of the spec that produced the payload.
    spec: AnalysisSpec
    #: Backend that executed the run: ``compiled``, ``generic`` (MNA
    #: paths) or ``device`` for device-level statistical analyses.  For
    #: registry-experiment envelopes — which may run many circuits —
    #: this is the session's backend *policy* instead (``auto``
    #: resolves per circuit; ``compiled``/``generic`` were forced).
    backend: str
    #: Root seed of the run's random streams (None for deterministic runs).
    seed: Optional[int] = None
    #: Monte-Carlo sample count / batch size (None for nominal runs).
    n_samples: Optional[int] = None
    #: Wall-clock duration of the run [s].
    wall_time_s: float = 0.0
    #: Registry name when the run came through an ``@experiment`` entry.
    experiment: Optional[str] = None
    #: Shard/worker execution metadata of the wave runner (a
    #: :class:`repro.runtime.RuntimeInfo`): executor kind, worker count,
    #: shard partition, shards actually run, early stopping, checkpoint
    #: resume, and the telemetry digest of traced sessions.  Every
    #: statistical spec and characterization carries it, serial runs
    #: included; ``None`` for circuit specs and registry experiments.
    runtime: Optional[Any] = None
    #: Free-form extras (plan-cache statistics, engine diagnostics...).
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self, include_payload: bool = True) -> Dict[str, Any]:
        """The envelope as plain JSON types."""
        out: Dict[str, Any] = {
            "experiment": self.experiment,
            "spec": jsonify(self.spec.describe()),
            "backend": self.backend,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "wall_time_s": self.wall_time_s,
            "runtime": jsonify(self.runtime),
            "meta": jsonify(self.meta),
        }
        if include_payload:
            out["payload"] = jsonify(self.payload)
        return out

    def to_json(self, indent: Optional[int] = 2,
                include_payload: bool = True) -> str:
        """The envelope serialized to JSON text."""
        return json.dumps(
            self.to_dict(include_payload=include_payload),
            indent=indent,
            sort_keys=True,
        )


@dataclass(frozen=True)
class SweepResult:
    """Envelope of one :class:`~repro.api.specs.Sweep` run.

    Carries the per-point :class:`Result` envelopes in flat row-major
    grid order together with the sweep's axes, seed basis and execution
    metadata.  Unlike :meth:`Result.to_json` (a lossy log rendering),
    :meth:`to_json`/:meth:`from_json` round-trip through the tagged
    :mod:`repro.api.serialize` codec: numpy payloads come back as
    bit-equal arrays and the spec as a live, validated ``Sweep``.
    """

    #: The sweep spec that produced the points (axes live on it).
    spec: Any
    #: Per-point result envelopes, flat row-major; shorter than the grid
    #: when the run was point-capped or cancelled (see ``runtime``).
    points: Tuple[Result, ...]
    #: Base seed of the sweep's point streams (session root + the
    #: wrapped spec's ``seed_offset``).
    seed: Optional[int] = None
    #: Wall-clock duration of the whole sweep [s].
    wall_time_s: float = 0.0
    #: Sweep-level runtime metadata (a :class:`repro.runtime.RuntimeInfo`
    #: counting *points*; a serial sweep runs one point per shard on the
    #: serial executor), with the telemetry digest of traced sessions.
    runtime: Optional[Any] = None
    #: Free-form extras.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    # ------------------------------------------------------------------
    # Grid geometry (delegates to the spec).
    # ------------------------------------------------------------------
    @property
    def axes(self):
        """``((field paths, values), ...)`` — the swept grid axes."""
        return self.spec.axes

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.spec.shape

    @property
    def n_points(self) -> int:
        """Planned grid size (``len(points)`` when ``complete``)."""
        return self.spec.n_points

    @property
    def complete(self) -> bool:
        """Whether every planned grid point was run."""
        return len(self.points) == self.n_points

    def coords(self, index: int) -> Dict[str, Any]:
        """``{field path: value}`` of flat point *index*."""
        return self.spec.point_values(index)

    def point(self, **coords) -> Result:
        """The point whose axis assignments equal *coords* (all axes)."""
        for index in range(len(self.points)):
            if self.coords(index) == coords:
                return self.points[index]
        raise KeyError(f"no completed sweep point at {coords!r}")

    def payloads(self) -> Tuple[Any, ...]:
        """Per-point payloads, flat row-major."""
        return tuple(point.payload for point in self.points)

    def grid(self, extract) -> np.ndarray:
        """``extract(Result)`` evaluated over the grid, shaped ``shape``.

        Missing points (capped/cancelled runs) are NaN.
        """
        out = np.full(self.shape, np.nan)
        flat = out.reshape(-1)
        for index, point in enumerate(self.points):
            flat[index] = float(extract(point))
        return out

    # ------------------------------------------------------------------
    # Serialization.
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize the whole envelope reversibly (tagged JSON)."""
        from repro.api.serialize import dumps

        return dumps(self, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "SweepResult":
        """Rebuild a :class:`SweepResult` written by :meth:`to_json`.

        Decoding imports the spec/payload dataclass types by name —
        load only documents you wrote (same trust model as the runtime's
        pickle checkpoints).
        """
        from repro.api.serialize import loads

        out = loads(text)
        if not isinstance(out, cls):
            raise ValueError(
                f"document does not hold a {cls.__name__} "
                f"(got {type(out).__name__})"
            )
        return out
