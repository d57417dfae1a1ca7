"""Session-owned cache of compiled assembly plans.

PR 1 gave every :class:`~repro.circuit.netlist.Circuit` a private cached
``CompiledCircuit`` keyed by its parameter fingerprint.  The cache now
has a central owner: a :class:`PlanCache` attached by the
:class:`~repro.api.session.Session` to every circuit its factories
build.  Plans are still keyed by the PR-1 fingerprint
(``Circuit._param_fingerprint``: parameter-object identities + element
batch shapes), but live in one bounded LRU structure with hit/miss
accounting — the handle later scaling work (sharding, cross-run reuse,
multi-backend planning) needs.

Entries hold only a *weak* reference to their circuit and are dropped
the moment the circuit is garbage-collected, so the cache never
outlives the (potentially multi-megabyte, batched-parameter) plans of
dead netlists — matching the lifetime behaviour of the PR-1
per-circuit cache while keeping central accounting.

PR 9 adds a second, **structural** level underneath: when the id-keyed
level misses (a fresh per-shard circuit, say), the circuit's
:func:`~repro.circuit.compiled.structural_fingerprint` — topology +
element types + model class/polarity/temperature, never parameter
values — is looked up in a cache of value-free
:class:`~repro.circuit.compiled.PlanStructure` objects.  A structural
hit skips index bookkeeping entirely and only *binds* the circuit's
values, which is what kills the per-shard recompile storm: a sharded
run performs one structure compile per distinct circuit topology, not
one per shard.  Structures are value-free and hold no circuit
references, so the structural level needs no weakref ceremony — just a
bounded LRU.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from typing import Optional

from repro.obs import default_registry
from repro.obs.trace import span

__all__ = ["PlanCache"]

_REGISTRY = default_registry()
_HITS = _REGISTRY.counter(
    "repro_plan_cache_hits_total", "Compiled-plan cache hits")
_MISSES = _REGISTRY.counter(
    "repro_plan_cache_misses_total", "Compiled-plan cache misses")
_STRUCT_HITS = _REGISTRY.counter(
    "repro_plan_cache_structural_hits_total",
    "Structural plan-cache hits (value binding only, no compile)")
_STRUCT_COMPILES = _REGISTRY.counter(
    "repro_plan_cache_structural_compiles_total",
    "Structural plan compilations (index bookkeeping + scatter programs)")
_COMPILE_SECONDS = _REGISTRY.histogram(
    "repro_plan_compile_seconds", "Circuit plan compilation latency")


class _Entry:
    __slots__ = ("plan", "objects", "shapes", "circuit_ref")

    def __init__(self, plan, objects, shapes, circuit_ref):
        self.plan = plan
        # Strong refs keep the fingerprinted parameter objects alive so
        # identity comparison stays reliable for the entry's lifetime.
        self.objects = objects
        self.shapes = shapes
        self.circuit_ref = circuit_ref


class PlanCache:
    """Bounded LRU cache of :class:`CompiledCircuit` plans."""

    def __init__(self, maxsize: int = 64):
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        # Structural level: fingerprint tuple -> PlanStructure.  Small
        # (value-free index arrays and scatter programs), so the same
        # maxsize bound is generous.
        self._structures: "OrderedDict[tuple, object]" = OrderedDict()
        # Concurrent Session.submit() handles share one session cache
        # from their driver threads; the LRU bookkeeping (get ->
        # move_to_end -> insert -> evict) must not interleave.  The
        # weakref eviction callback can fire on any thread, hence RLock.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.structural_hits = 0
        self.structural_compiles = 0

    def __len__(self) -> int:
        return len(self._entries)

    def plan_for(self, circuit) -> Optional[object]:
        """The compiled plan for *circuit* (None when uncompilable).

        Cached per circuit and invalidated exactly like the PR-1
        per-circuit cache: any change to the parameter-object identity
        list or the per-element batch shapes triggers a recompile.
        """
        from repro.circuit.netlist import fingerprint_matches

        objects, shapes = circuit._param_fingerprint()
        key = id(circuit)
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.circuit_ref() is circuit
                and fingerprint_matches(entry.objects, entry.shapes,
                                        objects, shapes)
            ):
                self.hits += 1
                _HITS.inc()
                self._entries.move_to_end(key)
                return entry.plan
            self.misses += 1
            _MISSES.inc()

        from repro.circuit.compiled import (
            PlanStructure,
            UnsupportedCircuitError,
            compile_circuit,
            record_fallback,
            structural_fingerprint,
        )

        # Structural level: same topology -> reuse the index bookkeeping,
        # only bind this circuit's values.  Every miss counts exactly one
        # structural hit or compile, under the lock like every counter.
        skey = structural_fingerprint(circuit)
        structure = None
        if skey is not None:
            with self._lock:
                structure = self._structures.get(skey)
                if structure is not None:
                    self._structures.move_to_end(skey)
                    self.structural_hits += 1

        if structure is not None:
            _STRUCT_HITS.inc()
            plan = compile_circuit(circuit, structure)
        else:
            # Compile outside the lock (it can be the expensive part);
            # two threads racing the same circuit just compile twice,
            # last one wins — correctness is untouched, plans are pure.
            compile_start = time.perf_counter()
            with span("plan.compile") as sp:
                if skey is not None:
                    try:
                        structure = PlanStructure(circuit)
                    except UnsupportedCircuitError as error:
                        record_fallback(error)
                        structure = None
                    plan = (
                        compile_circuit(circuit, structure)
                        if structure is not None
                        else None
                    )
                else:
                    plan = compile_circuit(circuit)
                sp.set(compiled=plan is not None)
            _COMPILE_SECONDS.observe(time.perf_counter() - compile_start)
            _STRUCT_COMPILES.inc()
            with self._lock:
                self.structural_compiles += 1
                if skey is not None and structure is not None:
                    self._structures[skey] = structure
                    self._structures.move_to_end(skey)
                    while len(self._structures) > self.maxsize:
                        self._structures.popitem(last=False)
        with self._lock:
            # The weakref callback evicts the entry (plan + pinned
            # parameter arrays) as soon as the circuit itself is
            # garbage-collected.
            entries = self._entries
            circuit_ref = weakref.ref(
                circuit, lambda _, k=key: self._evict(k)
            )
            entries[key] = _Entry(plan, objects, shapes, circuit_ref)
            entries.move_to_end(key)
            while len(entries) > self.maxsize:
                entries.popitem(last=False)
        return plan

    def _evict(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def stats(self) -> dict:
        """Hit/miss counters and current size (for result metadata)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self),
                "structural_hits": self.structural_hits,
                "structural_compiles": self.structural_compiles,
                "structures": len(self._structures),
            }
