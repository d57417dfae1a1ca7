"""Centralized seeding: one `SeedSequence`-based tree for every analysis.

Before the API layer existed, each experiment module hand-rolled
``np.random.default_rng(EXPERIMENT_SEED + offset)`` with ad-hoc integer
offsets.  The :class:`SeedTree` keeps exactly those derived streams —
``default_rng(seed)`` is, per the numpy documentation, the generator
built from ``PCG64(SeedSequence(seed))``, so ``SeedTree(root).rng(k)``
is bit-identical to the legacy ``default_rng(root + k)`` — while giving
the offsets a single owner and an explicit `SeedSequence` basis.  The
golden figure regressions (`tests/test_golden_figures.py`) pin this
equivalence.

For genuinely new workloads that do not need legacy-stream
compatibility, :meth:`SeedTree.spawn` hands out statistically
independent child sequences the proper `SeedSequence` way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["EXPERIMENT_SEED", "SeedScope", "SeedTree", "derived_rng"]

#: Seed base for experiment Monte-Carlo runs (distinct from the
#: characterization seed so "measurement" and "validation" draws differ).
EXPERIMENT_SEED = 424242


def derived_rng(root: int, offset: int = 0) -> np.random.Generator:
    """Fresh generator for stream *offset* of the tree rooted at *root*.

    Equal to the legacy ``np.random.default_rng(root + offset)`` stream.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(root + offset)))


@dataclass(frozen=True)
class SeedScope:
    """One sweep point's stream scope under the nested sweep/seed contract.

    A spawn-mode :class:`~repro.api.specs.Sweep` runs point *j* of a
    spec whose base seed is *base_seed* (session root + spec
    ``seed_offset``) on the streams::

        unsharded     SeedSequence(base_seed, spawn_key=(j,))
        shard i       SeedSequence(base_seed, spawn_key=(j, i))

    The scope replaces the spec's own integer ``seed_offset`` resolution
    entirely — the offset is already folded into ``base_seed`` — so the
    stream is a pure function of ``(base_seed, spawn_key)`` and never of
    worker count, shard completion order, or sweep scheduling.  The
    runtime's shard plans draw both streams (``spawn_key`` is their
    spawn prefix).
    """

    base_seed: int
    spawn_key: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "base_seed", int(self.base_seed))
        object.__setattr__(
            self, "spawn_key", tuple(int(k) for k in self.spawn_key)
        )


class SeedTree:
    """Deterministic family of random streams derived from one root seed.

    Every call returns a *fresh* generator, so two calls with the same
    offset replay the same stream — the property the experiments rely on
    when they rebuild a factory to re-draw identical devices (e.g. the
    Fig. 6 delay-then-leakage measurement).
    """

    def __init__(self, root: int = EXPERIMENT_SEED):
        self.root = int(root)
        self._root_seq: Optional[np.random.SeedSequence] = None

    def seed(self, offset: int = 0) -> int:
        """The integer seed of stream *offset* (``root + offset``)."""
        return self.root + int(offset)

    def sequence(self, offset: int = 0) -> np.random.SeedSequence:
        """The `SeedSequence` of stream *offset*."""
        return np.random.SeedSequence(self.seed(offset))

    def rng(self, offset: int = 0) -> np.random.Generator:
        """Fresh generator for stream *offset* (legacy-compatible)."""
        return derived_rng(self.root, offset)

    def spawn(self, n: int = 1) -> List[np.random.SeedSequence]:
        """*n* independent child sequences (for offset-free new code).

        Delegates to one tracked root `SeedSequence`'s own spawn
        protocol, so numpy's ``n_children_spawned`` bookkeeping
        guarantees repeated calls never hand out the same child twice.
        """
        if self._root_seq is None:
            self._root_seq = np.random.SeedSequence(self.root)
        return self._root_seq.spawn(n)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"SeedTree(root={self.root})"
