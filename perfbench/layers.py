"""Layer spans recorded from outside the program, and the self-time table.

:class:`Hooks` wraps the public entry points of the program's layers at
the names their callers look up (``repro.cells.sram.largest_square_snm``,
``repro.circuit.dcop.newton_solve``, ...) so that every call records a
span into a :class:`repro.obs.Tracer`.  Nothing under ``src/`` is edited:
the wrappers are installed on entry and the originals restored on exit,
and they only observe arguments and results, never alter them.

:func:`layer_table` turns the recorded spans (the wrappers' and the
program's own ``newton.solve``/``plan.compile``/``run.wave``/...) into
per-layer self times.  Self time is wall time attributed to the innermost
open span; when spans are open on several threads at once (the service's
HTTP handler and job threads), each instant is split evenly among the
busy threads.  So the self times never add up to more than the traced
wall time, and ``unattributed_s`` (the remainder) is never negative.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Program span name -> layer.  Wrapper spans are named after their layer.
PROGRAM_SPANS = {
    "newton.solve": "circuit.newton",
    "plan.compile": "api.plan",
    "run.wave": "runtime.wave",
    "run.merge": "runtime.merge",
    "shard.execute": "runtime.wave",
    "executor.submit": "runtime.wave",
    "executor.pickle": "runtime.wave",
    "checkpoint.write": "runtime.checkpoint",
    "checkpoint.load": "runtime.checkpoint",
    "yield.round": "stats.yield",
    "yield.estimate": "stats.yield",
}

#: Every layer row of the table, in print order.  Spans of any other name
#: land in ``other``.
LAYERS = (
    "devices.iv", "devices.charge",
    "circuit.assemble", "circuit.linsolve", "circuit.newton",
    "circuit.sweep", "circuit.transient",
    "analysis.snm", "analysis.delay",
    "cells.draw", "api.plan",
    "api.fingerprint", "api.codec",
    "service.http", "service.store.write", "service.store.read",
    "runtime.wave", "runtime.merge", "runtime.checkpoint",
    "stats.yield", "other",
)


def _rows(array) -> int:
    """Batch rows of a stacked ``(..., n)`` / ``(..., n, n)`` operand."""
    shape = getattr(array, "shape", ())
    rows = 1
    for dim in shape[:-1]:
        rows *= int(dim)
    return rows


def _linsolve_rows(args, kwargs) -> dict:
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    rows = 1
    for dim in shape[:-2]:
        rows *= int(dim)
    return {"rows": rows}


def _sweep_points(args, kwargs) -> dict:
    values = args[2] if len(args) > 2 else kwargs.get("values", ())
    return {"points": len(values)}


def _transient_steps(result) -> dict:
    return {"steps": int(len(result.times)) - 1}


def _checkpoint_bytes(args, kwargs) -> dict:
    path = args[0] if args else kwargs.get("path")
    try:
        return {"bytes": os.path.getsize(path)}
    except OSError:
        return {"bytes": 0}


# (layer, "module:attribute" or "module:Class.attribute", options).  The
# target is the name the caller looks up, so a re-export is wrapped where
# it is used rather than where it is defined.
_TARGETS: Tuple[Tuple[str, str, dict], ...] = (
    ("devices.iv", "repro.devices.base:DeviceModel.ids_and_derivatives", {}),
    ("devices.charge",
     "repro.devices.base:DeviceModel.charges_and_capacitance", {}),
    ("circuit.assemble", "repro.circuit.compiled:CompiledCircuit.assemble_dc",
     {"closure": True}),
    ("circuit.assemble",
     "repro.circuit.compiled:CompiledCircuit.assemble_transient",
     {"closure": True}),
    ("circuit.linsolve", "numpy.linalg:solve", {"attrs": _linsolve_rows}),
    ("circuit.newton", "repro.circuit.dcop:newton_solve", {}),
    ("circuit.newton", "repro.circuit.transient:newton_solve", {}),
    ("circuit.sweep", "repro.cells.sram:dc_sweep", {"attrs": _sweep_points}),
    ("circuit.transient", "repro.cells.nand:transient",
     {"result_attrs": _transient_steps}),
    ("analysis.snm", "repro.cells.sram:largest_square_snm", {}),
    ("analysis.delay", "repro.cells.nand:propagation_delay", {}),
    ("cells.draw", "repro.cells.factory:MonteCarloDeviceFactory.__call__", {}),
    ("api.plan", "repro.api.plans:PlanCache.plan_for", {}),
    ("api.fingerprint", "repro.service.jobs:fingerprint", {}),
    ("api.codec", "repro.api.fingerprint:encode", {}),
    ("api.codec", "repro.service.jobs:encode", {}),
    ("api.codec", "repro.service.jobs:decode", {}),
    ("api.codec", "repro.service.server:encode", {}),
    ("api.codec", "repro.service.server:decode", {}),
    ("api.codec", "repro.service.store:dumps", {}),
    ("api.codec", "repro.service.store:loads", {}),
    ("service.http", "repro.service.server:AnalysisServer.finish_request", {}),
    ("service.http", "repro.service.jobs:JobRegistry.submit", {}),
    ("service.http", "repro.service.jobs:JobRegistry.status", {}),
    ("service.http", "repro.service.jobs:JobRegistry.result_text", {}),
    ("service.store.write", "repro.service.store:ResultStore.put", {}),
    ("service.store.write", "repro.service.store:ResultStore.journal", {}),
    ("service.store.read", "repro.service.store:ResultStore.has", {}),
    ("service.store.read", "repro.service.store:ResultStore.get_text", {}),
    ("runtime.checkpoint", "repro.runtime.runner:save_checkpoint",
     {"attrs_after": _checkpoint_bytes, "op": "write"}),
    ("runtime.checkpoint", "repro.runtime.runner:load_checkpoint",
     {"op": "load"}),
    ("stats.yield", "repro.stats.yield_engine:run_yield", {}),
    ("stats.yield", "repro.stats.yield_engine:ce_update", {}),
    ("stats.yield", "repro.stats.yield_engine:YieldRoundTask.__call__", {}),
)


def _resolve(target: str):
    """``(owner, attribute name)`` of *target*, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _wrapper(fn, tracer, layer: str, options: dict):
    attrs = options.get("attrs")
    attrs_after = options.get("attrs_after")
    result_attrs = options.get("result_attrs")
    static = {"op": options["op"]} if "op" in options else {}

    if options.get("closure"):
        # The method builds an assemble closure; the span goes around
        # every call of the closure (one Newton iteration's assembly).
        @functools.wraps(fn)
        def build(*args, **kwargs):
            assemble = fn(*args, **kwargs)

            @functools.wraps(assemble)
            def traced_assemble(v):
                with tracer.span(layer, rows=_rows(v)):
                    return assemble(v)

            return traced_assemble

        return build

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        extra = attrs(args, kwargs) if attrs is not None else {}
        with tracer.span(layer, **static, **extra) as sp:
            result = fn(*args, **kwargs)
            if attrs_after is not None:
                sp.set(**attrs_after(args, kwargs))
            if result_attrs is not None:
                sp.set(**result_attrs(result))
        return result

    return wrapper


class Hooks:
    """Context manager installing the layer wrappers around one tracer.

    Targets that no longer exist (a later refactor removed or renamed
    them) are skipped and listed in :attr:`missing`; their layer then
    reads zero calls instead of failing the benchmark, and the
    ``hooks.missing`` metric counts them.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        self.missing = []
        for layer, target, options in _TARGETS:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr = found
            # None marks a method a class inherits (finish_request comes
            # from socketserver): the wrapper shadows it and is deleted
            # on exit.
            original = (vars(owner).get(attr) if isinstance(owner, type)
                        else getattr(owner, attr))
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    _wrapper(getattr(owner, attr), self.tracer, layer, options))
        return self

    def __exit__(self, *exc) -> bool:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        return False


# ----------------------------------------------------------------------
# Self times.
# ----------------------------------------------------------------------
def _layer_of(name: str) -> str:
    if name in LAYERS:
        return name
    return PROGRAM_SPANS.get(name, "other")


def _clip(start: float, end: float, windows: Sequence[Tuple[float, float]]) -> float:
    return sum(max(0.0, min(end, w1) - max(start, w0)) for w0, w1 in windows)


def self_times(records: Iterable[dict],
               windows: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Wall seconds per layer inside *windows* (tracer-relative times).

    Between consecutive span boundaries, each thread with an open span
    contributes its innermost span; the interval is split evenly among
    those threads.  The result sums to the part of *windows* covered by
    at least one span.
    """
    spans = [r for r in records if r.get("ph") == "X"]
    events = []
    for r in spans:
        start = r["start_s"]
        end = start + r["dur_s"]
        # Ends sort before starts at equal times; among starts, the
        # outer (longer) span opens first so nesting stays intact.
        events.append((start, 1, -r["dur_s"], r))
        events.append((end, 0, 0.0, r))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    stacks: Dict[int, List[dict]] = defaultdict(list)
    totals: Dict[str, float] = defaultdict(float)
    previous = None
    for t, kind, _, record in events:
        if previous is not None and t > previous:
            busy = [stack[-1] for stack in stacks.values() if stack]
            if busy:
                share = _clip(previous, t, windows) / len(busy)
                if share > 0.0:
                    for top in busy:
                        totals[_layer_of(top["name"])] += share
        previous = t
        stack = stacks[record["tid"]]
        if kind == 1:
            stack.append(record)
        else:
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] is record:
                    del stack[i]
                    break
    return dict(totals)


def layer_table(records: Sequence[dict],
                windows: Sequence[Tuple[float, float]]) -> dict:
    """Self seconds and call/work counts per layer over *windows*.

    Returns ``{"total_s", "self_s": {layer: s}, "unattributed_s",
    "counts": {...}}``; ``sum(self_s) + unattributed_s == total_s``.
    """
    total = sum(w1 - w0 for w0, w1 in windows)
    selfs = {layer: 0.0 for layer in LAYERS}
    selfs.update(self_times(records, windows))
    inside = [
        r for r in records
        if r.get("ph") == "X"
        and _clip(r["start_s"], r["start_s"] + r["dur_s"], windows) > 0.0
    ]
    counts: Dict[str, float] = defaultdict(float)
    for r in inside:
        name, args = r["name"], r["args"]
        counts[f"{_layer_of(name)}.spans"] += 1
        if name == "circuit.assemble":
            counts["circuit.assemble.rows"] += args.get("rows", 0)
        elif name == "circuit.linsolve":
            counts["circuit.linsolve.rows"] += args.get("rows", 0)
        elif name == "circuit.newton":
            counts["circuit.newton.calls"] += 1
        elif name == "newton.solve":
            counts["circuit.newton.iterations"] += args.get("iterations", 0)
            counts["circuit.newton.gmin_ladder"] += bool(args.get("gmin_ladder"))
            counts["circuit.newton.nonconverged"] += (
                args.get("batch", 0) - args.get("converged", args.get("batch", 0))
            )
        elif name == "circuit.sweep":
            counts["circuit.sweep.points"] += args.get("points", 0)
        elif name == "circuit.transient":
            counts["circuit.transient.steps"] += args.get("steps", 0)
        elif name == "api.plan":
            counts["api.plan.calls"] += 1
        elif name == "run.wave":
            counts["runtime.waves"] += 1
        elif name == "runtime.checkpoint" and args.get("op") == "write":
            counts["runtime.checkpoint.writes"] += 1
            counts["runtime.checkpoint.bytes"] += args.get("bytes", 0)
        elif name == "runtime.checkpoint" and args.get("op") == "load":
            counts["runtime.checkpoint.loads"] += 1
        elif name == "yield.round":
            counts["stats.yield.rounds"] += 1
    for layer in ("devices.iv", "devices.charge", "circuit.assemble",
                  "circuit.linsolve"):
        counts[f"{layer}.calls"] = counts.get(f"{layer}.spans", 0)
    attributed = sum(selfs.values())
    return {
        "total_s": total,
        "self_s": selfs,
        "unattributed_s": total - attributed,
        "counts": dict(counts),
    }


def format_table(workload: str, table: dict) -> str:
    """The printed layer table: self seconds, share and span count."""
    total = table["total_s"]
    lines = [f"{workload}  layer table (traced wall {total:.4f} s)",
             f"  {'layer':<22} {'self_s':>10} {'share':>7} {'spans':>9}"]
    for layer in LAYERS:
        seconds = table["self_s"].get(layer, 0.0)
        spans = table["counts"].get(f"{layer}.spans", 0)
        if seconds == 0.0 and spans == 0:
            continue
        share = seconds / total if total else 0.0
        lines.append(f"  {layer:<22} {seconds:>10.4f} {share:>7.2%} {int(spans):>9}")
    un = table["unattributed_s"]
    lines.append(f"  {'unattributed':<22} {un:>10.4f} "
                 f"{(un / total if total else 0.0):>7.2%}")
    lines.append(f"  {'total':<22} {total:>10.4f} {1.0:>7.2%}")
    return "\n".join(lines)


def epoch_of(tracer) -> float:
    """``time.perf_counter`` reading of the tracer's time zero."""
    return -tracer.offset(0.0)


def to_tracer_windows(windows: Sequence[Tuple[float, float]],
                      epoch: float) -> List[Tuple[float, float]]:
    """Convert absolute ``perf_counter`` windows to tracer-relative ones."""
    return [(w0 - epoch, w1 - epoch) for w0, w1 in windows]


def overhead(untraced: Sequence[float], traced: Sequence[float]) -> Optional[float]:
    """Traced over untraced median wall, minus one."""
    if not untraced or not traced:
        return None
    from statistics import median

    return median(traced) / median(untraced) - 1.0
