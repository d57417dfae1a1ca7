"""Declarative analysis specifications.

An :class:`AnalysisSpec` is a frozen, validated description of *what* to
run; the :class:`~repro.api.session.Session` decides *how* (backend,
seeding, plan caching) and wraps the output in a uniform
:class:`~repro.api.result.Result` envelope.  Specs are plain data: they
can be constructed up front, stored, compared, and echoed verbatim into
result metadata.

Circuit-level specs (:class:`DCOp`, :class:`Transient`, :class:`AC`,
:class:`DCSweep`) are executed against a :class:`~repro.circuit.Circuit`
passed to ``Session.run``; device-level statistical specs
(:class:`MonteCarlo`, :class:`ImportanceSampling`) run against the
session's characterized technology directly.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Optional, Tuple, Union

__all__ = [
    "AnalysisSpec",
    "DCOp",
    "Transient",
    "AC",
    "DCSweep",
    "MonteCarlo",
    "ImportanceSampling",
    "Yield",
    "FactoryMap",
    "Characterize",
    "CharacterizeLibrary",
    "Sweep",
    "ExperimentSpec",
    "Execution",
    "BACKENDS",
    "SEED_MODES",
]

#: Valid backend selections.  ``auto`` compiles when the netlist supports
#: it; ``compiled`` requires the vectorized plan (raises otherwise);
#: ``generic`` forces the per-element MNA assembly.
BACKENDS = ("auto", "compiled", "generic")


def _freeze_pairs(mapping) -> Optional[Tuple[Tuple[str, Any], ...]]:
    """Normalize an optional mapping to a hashable, ordered pair tuple."""
    if mapping is None:
        return None
    if isinstance(mapping, tuple):
        mapping = dict(mapping)
    return tuple((str(k), mapping[k]) for k in mapping)


def _check_backend(backend: Optional[str]) -> None:
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {BACKENDS} or None, got {backend!r}"
        )


@dataclass(frozen=True)
class Execution:
    """How a statistical spec runs: sharding, workers, adaptive stopping.

    Attaching an ``Execution`` to a :class:`MonteCarlo`,
    :class:`ImportanceSampling` or :class:`FactoryMap` spec shards its
    run on :mod:`repro.runtime`.  The output then depends only on the
    session seed, the spec's ``seed_offset`` and the shard partition —
    **never** on ``workers`` (ROADMAP "Conventions (PR 3)": the
    shard/seed contract).  ``execution=None`` runs the same runner on
    the unsharded plan: one shard on the serial executor drawing the
    historical single stream the golden figures are pinned to.

    Parameters
    ----------
    shard_size:
        Samples per shard; ``None`` lets the runtime pick a
        batch-economics size (:func:`~repro.runtime.sharding.
        auto_shard_size`: at least ~200 samples per shard, at most a
        constant fan-out of shards — fixed constants, never derived
        from ``workers``, so the stream is the same at every
        parallelism level).  The chosen size is recorded in
        ``Result.runtime.shard_size``.
    workers:
        Degree of parallelism; 1 runs serially, >= 2 uses the session's
        process-pool executor, and the string ``"cluster"`` dispatches
        on the session's cluster executor (a session constructed with
        ``executor="tcp://host:port"``; see :mod:`repro.cluster`).
        Scheduling only — results are identical at every value.
    coalesce:
        Batch same-plan shards of a dispatch chunk into ONE Newton
        solve over the concatenated sample block (circuit-level
        factory-map runs only; other tasks ignore it).  Scheduling
        only: per-shard streams are drawn independently and the solve
        is elementwise along the sample axis, so results are
        bit-identical either way — disable when a work callable is not
        elementwise across samples.
    target_rel_err:
        Adaptive stopping: stop between shard waves once the relative
        error (of the sigma estimate for Monte-Carlo — ``1/sqrt(2(n-1))``,
        identical for every measured target — or of the failure
        probability for importance sampling) reaches this target.
    min_samples / max_samples:
        Floor before the rule may fire / hard cap evaluated at wave
        boundaries (the spec's ``n_samples`` is always an implicit cap).
    wave_size:
        Shards per adaptive wave (``None`` = runtime default of 4); a
        plan property, so stopping points are worker-count invariant.
        A wave is also the dispatch unit when stopping/checkpointing is
        engaged — use a wave size of at least ``workers`` to keep wide
        pools fully busy (still a constant you choose, so determinism
        holds).
    checkpoint:
        Path *prefix* for accumulator-state checkpointing.  Every
        statistical run derives its own ``<prefix>.<fingerprint>.ckpt``
        file (fingerprinted over plan + workload), so multi-stage
        experiments may share one prefix; an existing matching
        checkpoint resumes its run mid-plan, and a completed one
        short-circuits re-execution.
    """

    shard_size: Optional[int] = None
    workers: Union[int, str] = 1
    coalesce: bool = True
    target_rel_err: Optional[float] = None
    min_samples: int = 0
    max_samples: Optional[int] = None
    wave_size: Optional[int] = None
    checkpoint: Optional[str] = None

    def __post_init__(self):
        if self.shard_size is not None and self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
        if isinstance(self.workers, str):
            if self.workers != "cluster":
                raise ValueError(
                    f"workers must be an int >= 1 or 'cluster', "
                    f"got {self.workers!r}"
                )
        elif self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.target_rel_err is not None and self.target_rel_err <= 0.0:
            raise ValueError("target_rel_err must be positive")
        if self.min_samples < 0:
            raise ValueError("min_samples must be >= 0")
        if self.max_samples is not None and self.max_samples <= 0:
            raise ValueError("max_samples must be positive")
        if self.wave_size is not None and self.wave_size <= 0:
            raise ValueError("wave_size must be positive")


def _check_execution(execution) -> None:
    if execution is not None and not isinstance(execution, Execution):
        raise TypeError(
            f"execution must be an Execution or None, got {type(execution).__name__}"
        )


@dataclass(frozen=True)
class AnalysisSpec:
    """Base class of every declarative analysis description."""

    @property
    def kind(self) -> str:
        """Spec type name used in result envelopes (e.g. ``"Transient"``)."""
        return type(self).__name__

    def describe(self) -> Dict[str, Any]:
        """The spec as a plain ``{field: value}`` dict (for metadata echo)."""
        out: Dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if callable(value):
                value = getattr(value, "__qualname__", repr(value))
            out[f.name] = value
        return out


@dataclass(frozen=True)
class _CircuitSpec(AnalysisSpec):
    """Shared fields of the circuit-level analyses (keyword-only, so the
    concrete specs' own fields stay positional)."""

    #: ``{node: voltage}`` Newton starting hints (stored as pairs).
    node_hints: Optional[Tuple[Tuple[str, float], ...]] = field(
        default=None, kw_only=True
    )
    #: Per-spec backend override; ``None`` defers to the session.
    backend: Optional[str] = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "node_hints", _freeze_pairs(self.node_hints))
        _check_backend(self.backend)

    def hints_dict(self) -> Optional[Dict[str, float]]:
        """Node hints back as the dict the solvers consume."""
        return None if self.node_hints is None else dict(self.node_hints)


@dataclass(frozen=True)
class DCOp(_CircuitSpec):
    """DC operating point at time *t* (sources evaluated there)."""

    t: float = 0.0


@dataclass(frozen=True)
class Transient(_CircuitSpec):
    """Fixed-step transient from *t_start* to *t_stop*."""

    t_stop: float
    dt: float
    t_start: float = 0.0
    method: str = "trap"
    record_every: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not all(math.isfinite(x)
                   for x in (self.t_start, self.t_stop, self.dt)):
            raise ValueError("t_start, t_stop and dt must be finite")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_stop <= self.t_start:
            raise ValueError("t_stop must exceed t_start")
        if self.method not in ("trap", "be"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class AC(_CircuitSpec):
    """Small-signal frequency sweep of the linearized circuit."""

    frequencies: Tuple[float, ...]
    ac_sources: Tuple[str, ...]
    amplitudes: Optional[Tuple[Tuple[str, float], ...]] = None

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(
            self, "frequencies", tuple(float(f) for f in self.frequencies)
        )
        sources = self.ac_sources
        if isinstance(sources, str):
            sources = (sources,)
        object.__setattr__(self, "ac_sources", tuple(sources))
        object.__setattr__(self, "amplitudes", _freeze_pairs(self.amplitudes))
        if not self.frequencies:
            raise ValueError("frequencies must be non-empty")
        if any(f < 0.0 for f in self.frequencies):
            raise ValueError("frequencies must be non-negative")
        if not self.ac_sources:
            raise ValueError("need at least one AC source")

    def amplitudes_dict(self) -> Optional[Dict[str, float]]:
        return None if self.amplitudes is None else dict(self.amplitudes)


@dataclass(frozen=True)
class DCSweep(_CircuitSpec):
    """Secant-predicted sweep of one DC voltage source's level.

    Each point starts from the secant extrapolation of the two before it
    (:func:`repro.circuit.dcsweep.dc_sweep`), so its node voltages sit
    within the Newton tolerance of a zero-order (previous-solution)
    start's.  The payload (:class:`repro.circuit.dcsweep.SweepResult`)
    holds node voltages only; a :class:`DCOp` at a level of interest
    gives the source branch currents.
    """

    source: str
    values: Tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.source:
            raise ValueError("source name must be non-empty")
        if not self.values:
            raise ValueError("values must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("sweep levels must be finite")


@dataclass(frozen=True)
class MonteCarlo(AnalysisSpec):
    """Device-level target Monte-Carlo (sigma(Idsat), sigma(log10 Ioff)...).

    Draws *n_samples* devices of *polarity* from the session technology's
    ``vs`` (statistical VS) or ``bsim`` (golden mismatch) model and
    measures the electrical targets at geometry ``w_nm x l_nm``.
    """

    n_samples: int = 1000
    polarity: str = "nmos"
    model: str = "vs"
    w_nm: float = 600.0
    l_nm: float = 40.0
    #: Stream offset in the session's seed tree.
    seed_offset: int = 0
    #: Sharding/parallelism/stopping options; ``None`` = session default
    #: (the unsharded one-shard plan on a serial session).
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        if self.model not in ("vs", "bsim"):
            raise ValueError(f"model must be 'vs' or 'bsim', got {self.model!r}")
        if self.w_nm <= 0.0 or self.l_nm <= 0.0:
            raise ValueError("geometry must be positive")
        _check_execution(self.execution)


@dataclass(frozen=True)
class ImportanceSampling(AnalysisSpec):
    """Mean-shift importance sampling on the statistical VS parameters.

    ``metric`` maps a batched ``VSParams`` card to a metric array; the
    estimate is ``P(metric < threshold)`` (or ``>`` with
    ``fail_below=False``).  ``shifts`` are per-parameter shifts in sigma
    units, e.g. ``{"vt0": +4.0}``.
    """

    metric: Callable
    threshold: float
    shifts: Tuple[Tuple[str, float], ...]
    n_samples: int = 10000
    polarity: str = "nmos"
    w_nm: Optional[float] = None
    l_nm: Optional[float] = None
    fail_below: bool = True
    seed_offset: int = 0
    #: Sharding/parallelism/stopping options; ``None`` = session default.
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "shifts", _freeze_pairs(self.shifts) or ())
        if self.metric is None or not callable(self.metric):
            raise ValueError("metric must be a callable")
        if not self.shifts:
            raise ValueError("shifts must name at least one parameter")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        _check_execution(self.execution)

    def shifts_dict(self) -> Dict[str, float]:
        return dict(self.shifts)


@dataclass(frozen=True)
class Yield(AnalysisSpec):
    """Rare-event yield: adaptive cross-entropy importance sampling.

    Where :class:`ImportanceSampling` needs the failure-region shift
    guessed up front, ``Yield`` *learns* it: ``n_rounds`` cross-entropy
    rounds of ``n_per_round`` samples adapt a Gaussian mixture proposal
    (``n_components`` mean-shifted components over the parameters named
    by ``shifts``, which seed the round-zero proposal in sigma units),
    then a frozen-mixture estimation phase of up to ``n_samples``
    samples produces the :class:`~repro.stats.yield_engine.YieldEstimate`
    payload.  Adaptive stopping (``execution.target_rel_err``) drives
    the failure probability's relative error between estimation waves.

    **Seed contract** — draws happen in fixed blocks of ``block_size``
    samples: adaptation round *r*'s block *b* uses
    ``SeedSequence(base_seed, spawn_key=(r, b))`` and estimation block
    *b* uses ``spawn_key=(b,)`` (nested one level deeper under a sweep
    point).  The block partition is spec geometry, so the envelope is
    bit-identical at every worker count **and across shard sizes**
    (``execution.shard_size`` does not apply to ``Yield``); with
    ``n_rounds=0`` and ``n_components=1`` it reproduces a sharded
    :class:`ImportanceSampling` run at ``shard_size=block_size``
    exactly.
    """

    metric: Callable
    threshold: float
    shifts: Tuple[Tuple[str, float], ...]
    n_samples: int = 4096
    n_rounds: int = 4
    n_per_round: int = 1024
    n_components: int = 1
    elite_fraction: float = 0.1
    smoothing: float = 0.7
    block_size: int = 256
    polarity: str = "nmos"
    w_nm: Optional[float] = None
    l_nm: Optional[float] = None
    fail_below: bool = True
    seed_offset: int = 0
    #: Workers/stopping/checkpointing; ``None`` = session default (the
    #: engine always runs block-sharded — there is no legacy path).
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "shifts", _freeze_pairs(self.shifts) or ())
        if self.metric is None or not callable(self.metric):
            raise ValueError("metric must be a callable")
        if not self.shifts:
            raise ValueError(
                "shifts must name at least one adapted parameter (its "
                "values seed the round-zero proposal; 0.0 is allowed)"
            )
        from repro.stats.pelgrom import PARAMETER_ORDER

        unknown = {name for name, _ in self.shifts} - set(PARAMETER_ORDER)
        if unknown:
            raise ValueError(
                f"unknown statistical parameters {sorted(unknown)}"
            )
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if self.n_rounds and self.n_per_round <= 0:
            raise ValueError("n_per_round must be positive")
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if not 0.0 < self.elite_fraction < 1.0:
            raise ValueError("elite_fraction must be in (0, 1)")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        _check_execution(self.execution)

    def shifts_dict(self) -> Dict[str, float]:
        return dict(self.shifts)


@dataclass(frozen=True)
class FactoryMap(AnalysisSpec):
    """Circuit-level Monte-Carlo: ``work(factory) -> (n, ...) array``.

    The declarative form of :meth:`repro.api.session.Session.map_mc` —
    *work* receives a Monte-Carlo device factory drawing from the spec's
    stream and returns one metric array with the sample axis first.
    *work* must be picklable (a module-level function or frozen
    dataclass) for sharded or swept execution; unpicklable closures
    degrade to an identical serial run like every runtime task.

    The experiment modules express their hand-rolled cell Monte-Carlo
    loops as ``Sweep(FactoryMap(...), over=...)`` — the work callable
    carries the circuit recipe, the sweep varies its fields.
    """

    work: Callable
    n_samples: int = 1000
    model: str = "vs"
    seed_offset: int = 0
    #: Sharding/parallelism/stopping options; ``None`` = session default.
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        if self.work is None or not callable(self.work):
            raise ValueError("work must be a callable")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")
        if self.model not in ("vs", "bsim"):
            raise ValueError(f"model must be 'vs' or 'bsim', got {self.model!r}")
        _check_execution(self.execution)


def _freeze_grid_axis(values, label: str):
    """Normalize an optional characterization grid axis to a float tuple."""
    if values is None:
        return None
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"{label} must be non-empty")
    if any(v <= 0.0 for v in values):
        raise ValueError(f"{label} must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{label} must be strictly increasing")
    return values


@dataclass(frozen=True)
class _CharacterizeBase(AnalysisSpec):
    """Shared grid fields of the characterization specs (keyword-only).

    ``slews``/``loads`` default to the charlib grid
    (:data:`repro.charlib.characterize.DEFAULT_SLEWS` / ``DEFAULT_LOADS``)
    when ``None``.  ``n_mc == 0`` characterizes nominally; a positive
    count runs per-grid-point Monte-Carlo whose mean/sigma tables follow
    the grid-point seed contract (ROADMAP "Conventions (PR 4)").
    """

    vdd: float = field(default=0.9, kw_only=True)
    slews: Optional[Tuple[float, ...]] = field(default=None, kw_only=True)
    loads: Optional[Tuple[float, ...]] = field(default=None, kw_only=True)
    n_mc: int = field(default=0, kw_only=True)
    model: str = field(default="vs", kw_only=True)
    seed_offset: int = field(default=0, kw_only=True)
    backend: Optional[str] = field(default=None, kw_only=True)
    #: Sharding/parallelism options: ``shard_size`` = grid points per
    #: shard (default 1), ``checkpoint`` resumes at point-wave
    #: boundaries.  A fixed grid has no stopping rule.
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "slews", _freeze_grid_axis(self.slews, "slews"))
        object.__setattr__(self, "loads", _freeze_grid_axis(self.loads, "loads"))
        if self.vdd <= 0.0:
            raise ValueError("vdd must be positive")
        if self.n_mc < 0:
            raise ValueError("n_mc must be >= 0")
        if self.model not in ("vs", "bsim"):
            raise ValueError(f"model must be 'vs' or 'bsim', got {self.model!r}")
        _check_backend(self.backend)
        _check_execution(self.execution)
        if self.execution is not None and (
                self.execution.target_rel_err is not None
                or self.execution.max_samples is not None):
            raise ValueError("stopping options (target_rel_err, max_samples)"
                             " do not apply to a characterization grid")

    @staticmethod
    def _check_cell(cell) -> None:
        # Resolve eagerly so a typo fails at spec construction, not
        # mid-run on a pool worker (lazy import keeps specs light).
        from repro.charlib.arcs import get_adapter

        get_adapter(cell)


@dataclass(frozen=True)
class Characterize(_CharacterizeBase):
    """NLDM characterization of one cell over a (slew, load) grid.

    *cell* is a registered adapter name (``"inv"``, ``"nand2"``,
    ``"dff"``) or an :class:`repro.charlib.arcs.ArcAdapter` instance.
    The payload is a :class:`repro.charlib.CellTiming`; with
    ``n_mc > 0`` its per-arc sigma tables are filled from streamed
    Monte-Carlo statistics.
    """

    cell: Any = "inv"

    def __post_init__(self):
        super().__post_init__()
        self._check_cell(self.cell)


@dataclass(frozen=True)
class CharacterizeLibrary(_CharacterizeBase):
    """Multi-cell library characterization (one grid, many cells).

    The full (cell x slew x load) grid fans out as shard tasks through
    the parallel runtime when execution options are engaged; the payload
    is a :class:`repro.charlib.LibraryTiming` whose ``liberty()``
    renders the Liberty file.
    """

    cells: Tuple[Any, ...] = ("inv", "nand2", "dff")
    name: str = "repro_vs_40nm"

    def __post_init__(self):
        super().__post_init__()
        cells = self.cells
        if isinstance(cells, str):
            cells = (cells,)
        object.__setattr__(self, "cells", tuple(cells))
        if not self.cells:
            raise ValueError("need at least one cell")
        for cell in self.cells:
            self._check_cell(cell)
        if not self.name:
            raise ValueError("library name must be non-empty")


#: Sweep point-seed contracts.  ``spawn`` is the nested SeedSequence
#: contract (point *j* -> ``spawn_key=(j,)``, inner shard *i* ->
#: ``(j, i)``); ``legacy`` reproduces the historical per-point offset
#: arithmetic (point *j* runs at ``seed_offset + j``) the golden
#: figures are pinned to.
SEED_MODES = ("spawn", "legacy")

#: Spec types a :class:`Sweep` may wrap: everything that runs against
#: the session technology without a caller-supplied circuit.
_SWEEPABLE = (
    MonteCarlo,
    ImportanceSampling,
    Yield,
    FactoryMap,
    Characterize,
    CharacterizeLibrary,
)


def sweep_point_offset(base_offset: int, index: int) -> int:
    """The legacy sweep seed arithmetic: point *index* under *base_offset*.

    One owner for the ``base + k`` per-point stream numbering that the
    experiment modules used to hand-roll (``seed_offset = 40 + k``...).
    ``Sweep(seed_mode="legacy")`` applies it internally; experiments
    that still need a sibling per-point stream *outside* a sweep (e.g.
    the SSTA graph stage) must derive it through this function rather
    than re-inventing the arithmetic.
    """
    return int(base_offset) + int(index)


def _replace_field_path(spec, path: str, value):
    """``dataclasses.replace`` through a dotted frozen-dataclass path.

    ``"work.vdd"`` rebuilds ``spec.work`` with ``vdd=value`` and then
    ``spec`` with the new ``work`` — every level re-runs its
    ``__post_init__`` validation, so a bad axis value fails exactly like
    a bad constructor argument.
    """
    head, _, rest = path.partition(".")
    if rest:
        value = _replace_field_path(getattr(spec, head), rest, value)
    try:
        return dataclasses.replace(spec, **{head: value})
    except TypeError as exc:
        raise ValueError(
            f"cannot sweep {path!r} on {type(spec).__name__}: {exc}"
        ) from None


def _check_axis_path_conflicts(paths, context: str) -> None:
    """Reject duplicate *or overlapping* sweep field paths.

    ``"work"`` and ``"work.vdd"`` cannot coexist: the broader
    substitution would silently clobber the narrower one, dropping an
    entire axis from the grid.
    """
    split = sorted(tuple(p.split(".")) for p in paths)
    for a, b in zip(split, split[1:]):
        if b[: len(a)] == a:
            raise ValueError(
                f"{context} name conflicting field paths "
                f"{'.'.join(a)!r} and {'.'.join(b)!r}"
            )


def _freeze_sweep_axes(over) -> Tuple[Tuple[Tuple[str, ...], Tuple[Any, ...]], ...]:
    """Normalize a sweep's ``over`` mapping to ``((paths, values), ...)``.

    Keys are dotted field paths (``"vdd"``, ``"work.spec"``) or tuples
    of paths for a *zipped* axis whose values set several fields at once
    (``("w_nm", "l_nm")`` with values ``((1500, 40), ...)``).  Axis
    order is preserved: the first axis varies slowest (row-major grid).
    """
    if isinstance(over, dict):
        items = list(over.items())
    else:
        items = [tuple(item) for item in over]
    if not items:
        raise ValueError("over must name at least one sweep axis")
    axes = []
    for key, values in items:
        paths = (key,) if isinstance(key, str) else tuple(key)
        if not paths or not all(isinstance(p, str) and p for p in paths):
            raise ValueError(f"axis key must be a field path or tuple, got {key!r}")
        values = tuple(values)
        if not values:
            raise ValueError(f"axis {paths} must have at least one value")
        if len(paths) > 1:
            for v in values:
                if len(tuple(v)) != len(paths):
                    raise ValueError(
                        f"zipped axis {paths} expects {len(paths)}-tuples, "
                        f"got {v!r}"
                    )
            values = tuple(tuple(v) for v in values)
        axes.append((paths, values))
    seen = [p for paths, _ in axes for p in paths]
    if len(seen) != len(set(seen)):
        raise ValueError(f"sweep axes name a field path twice: {seen}")
    _check_axis_path_conflicts(seen, "sweep axes")
    return tuple(axes)


@dataclass(frozen=True)
class Sweep(AnalysisSpec):
    """Cartesian grid of one spec's field values: the sweep combinator.

    ``Sweep(spec, over={"vdd": (0.9, 0.7, 0.55)})`` describes running
    *spec* once per grid point, with the named fields replaced by the
    point's axis values (dotted paths reach into nested frozen
    dataclasses, tuple keys zip several fields along one axis).  Points
    are enumerated row-major — the first axis varies slowest.

    Seeding follows the **nested sweep/seed contract**: in ``spawn``
    mode point *j* draws from ``SeedSequence(base_seed, spawn_key=(j,))``
    (base seed = session root + the wrapped spec's ``seed_offset``) and
    its inner shards from ``spawn_key=(j, i)``; in ``legacy`` mode point
    *j* simply runs at ``seed_offset + j``, reproducing the historical
    hand-rolled experiment loops bit-for-bit.  Either way the sweep
    output is a pure function of the session seed and the spec — never
    of worker count, sweep shard size, or completion order.

    A single-point sweep is the identity: it runs the wrapped spec on
    the spec's own execution options — bit-identical to
    ``session.run(spec)`` on a session without a default executor — and
    wraps the one result.  (Sweep points never inherit session-default
    parallelism, so on ``Session(executor=N)`` the unwrapped run is
    sharded while the sweep point is not; the sweep's numbers are the
    invariant ones.)  Sweeping a sweep flattens: the outer axes become
    the slower-varying leading axes of one combined grid.

    ``execution`` controls the *sweep-level* fan-out only (points become
    shard tasks on the parallel runtime; ``shard_size`` = points per
    shard, default 1; ``max_samples`` = point cap; ``checkpoint``
    resumes at point-wave boundaries).  The wrapped spec's own
    ``execution`` is preserved per point — the session default is never
    injected into points, so engaging ``--workers`` on a sweep
    parallelizes it without re-sharding the inner runs.
    """

    spec: AnalysisSpec
    over: Any
    seed_mode: str = "spawn"
    #: Sweep-level fan-out options; ``None`` = session default.
    execution: Optional[Execution] = field(default=None, kw_only=True)

    def __post_init__(self):
        axes = _freeze_sweep_axes(self.over)
        spec = self.spec
        if isinstance(spec, Sweep):
            # Flatten: outer axes vary slowest.  The inner sweep's modes
            # must agree (one grid, one seed contract) and its execution
            # is sweep-level scheduling, which the outer sweep owns.
            if spec.seed_mode != self.seed_mode:
                raise ValueError(
                    "cannot flatten nested sweeps with different seed modes "
                    f"({self.seed_mode!r} vs {spec.seed_mode!r})"
                )
            if spec.execution is not None:
                raise ValueError(
                    "the inner sweep of a nested sweep must not carry "
                    "execution options (the outer sweep owns scheduling)"
                )
            axes = axes + spec.axes
            spec = spec.spec
            # Re-check across the MERGED grid: an outer axis naming (or
            # overlapping) a path the inner sweep already owns would
            # silently lose to the inner (faster-varying) substitution.
            merged = [p for paths, _ in axes for p in paths]
            if len(merged) != len(set(merged)):
                raise ValueError(
                    f"nested sweeps name a field path twice: {merged}"
                )
            _check_axis_path_conflicts(merged, "nested sweeps")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "over", axes)
        if not isinstance(spec, _SWEEPABLE):
            names = ", ".join(t.__name__ for t in _SWEEPABLE)
            raise TypeError(
                f"cannot sweep a {type(spec).__name__} spec (sweepable: "
                f"{names} — circuit-bound analyses have no picklable "
                "per-point recipe)"
            )
        if self.seed_mode not in SEED_MODES:
            raise ValueError(
                f"seed_mode must be one of {SEED_MODES}, got {self.seed_mode!r}"
            )
        _check_execution(self.execution)
        if self.execution is not None and self.execution.target_rel_err is not None:
            raise ValueError(
                "adaptive error targets do not apply to sweeps (each point "
                "is one fixed run); use max_samples to cap the point count"
            )
        # Resolve point 0 eagerly so a bad axis path or value fails at
        # spec construction, not mid-run on a pool worker.
        self.point_spec(0)

    # ------------------------------------------------------------------
    # Grid geometry.
    # ------------------------------------------------------------------
    @property
    def axes(self) -> Tuple[Tuple[Tuple[str, ...], Tuple[Any, ...]], ...]:
        """The normalized ``((field paths, values), ...)`` axis tuple."""
        return self.over

    @property
    def shape(self) -> Tuple[int, ...]:
        """Grid extent per axis, in axis order."""
        return tuple(len(values) for _, values in self.over)

    @property
    def n_points(self) -> int:
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    def point_coords(self, index: int) -> Tuple[int, ...]:
        """Row-major (first axis slowest) coordinates of flat *index*."""
        if not 0 <= index < self.n_points:
            raise IndexError(f"point {index} outside grid of {self.n_points}")
        coords = []
        for extent in reversed(self.shape):
            index, c = divmod(index, extent)
            coords.append(c)
        return tuple(reversed(coords))

    def point_values(self, index: int) -> Dict[str, Any]:
        """``{field path: value}`` assignments of flat point *index*."""
        out: Dict[str, Any] = {}
        for (paths, values), c in zip(self.over, self.point_coords(index)):
            value = values[c]
            if len(paths) == 1:
                out[paths[0]] = value
            else:
                out.update(zip(paths, value))
        return out

    def point_spec(self, index: int) -> AnalysisSpec:
        """The fully resolved spec of flat point *index*.

        Axis fields are substituted; in ``legacy`` mode the point's
        ``seed_offset`` is advanced by the sweep seed arithmetic, so the
        returned spec is self-describing and independently re-runnable.
        """
        spec = self.spec
        for path, value in self.point_values(index).items():
            spec = _replace_field_path(spec, path, value)
        if self.seed_mode == "legacy":
            spec = dataclasses.replace(
                spec,
                seed_offset=sweep_point_offset(self.spec.seed_offset, index),
            )
        return spec


@dataclass(frozen=True)
class ExperimentSpec(AnalysisSpec):
    """Echo of a registry experiment invocation (name + kwargs)."""

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "kwargs", _freeze_pairs(self.kwargs) or ())
        if not self.name:
            raise ValueError("experiment name must be non-empty")

    def kwargs_dict(self) -> Dict[str, Any]:
        return dict(self.kwargs)
