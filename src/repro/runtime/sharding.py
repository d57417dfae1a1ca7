"""Deterministic shard planning: the seed contract of the parallel runtime.

A statistical run of ``n_samples`` is split into contiguous **shards** of
at most ``shard_size`` samples.  Each shard owns an independent random
stream derived *only* from the run's base seed and the shard index::

    SeedSequence(base_seed, spawn_key=(shard_index,))

so the sample stream of shard *i* never depends on which worker executes
it, in what order shards complete, or how many workers exist.  Merging
shard outputs in shard-index order therefore yields **bit-identical**
results at every worker count — the invariant
``tests/test_runtime.py`` pins for both Monte-Carlo and importance
sampling.

Runs nested under an outer grid — point *j* of a ``Sweep`` — prepend the
enclosing point index as a **spawn prefix**: shard *i* of sweep point
*j* draws from ``SeedSequence(base_seed, spawn_key=(j, i))``, the nested
sweep/seed contract of ROADMAP "Conventions (PR 5)".  The prefix is part
of the plan (and of checkpoint fingerprints), never of scheduling.

The one thing the stream *does* depend on is the shard size: changing
``shard_size`` re-partitions the draw and produces a different (equally
valid) sample set.  ``Execution(shard_size=None)`` sizes shards
automatically through :func:`auto_shard_size` — still a pure function
of the sample count (never of the worker count).

``execution=None`` is a plan shape, not a code path: the **unsharded**
plan (``plan_shards(n, None, ...)``) is one shard drawing the bare
prefix, ``SeedSequence(base_seed, spawn_key=spawn_prefix)`` — with an
empty prefix exactly ``np.random.default_rng(base_seed)``, the
single-stream draw the golden figures pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MIN_AUTO_SHARD_SIZE",
    "MAX_AUTO_SHARDS",
    "auto_shard_size",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "shard_sequence",
    "shard_rng",
]

#: Floor of the automatic shard size.  The batched Newton solver's
#: per-solve fixed costs (plan lookup, assembly dispatch, LU setup)
#: amortize across the sample axis; below a few hundred samples per
#: shard they dominate, so the automatic sizing never goes smaller.
MIN_AUTO_SHARD_SIZE = 200

#: Fan-out cap of the automatic sizing: at most this many shards per
#: run.  A *constant* — deliberately not the worker count, which the
#: shard partition must never consult — chosen comfortably above any
#: realistic pool width so wide pools still fill.
MAX_AUTO_SHARDS = 32


def auto_shard_size(n_samples: int) -> int:
    """Batch-economics shard size for runs without an explicit one.

    ``max(MIN_AUTO_SHARD_SIZE, ceil(n_samples / MAX_AUTO_SHARDS))`` —
    big enough that per-shard fixed costs amortize (~200 samples
    minimum), few enough shards that scheduling overhead stays small.
    Pure function of the sample count and two module constants, so the
    resulting stream honours the worker-invariance contract; the chosen
    size lands in ``Result.runtime.shard_size``.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    return max(MIN_AUTO_SHARD_SIZE, -(-int(n_samples) // MAX_AUTO_SHARDS))


@dataclass(frozen=True)
class Shard:
    """One contiguous slice of a sharded statistical run."""

    #: Position in the plan; also the last spawn key of the shard's stream.
    index: int
    #: First sample index covered (inclusive).
    start: int
    #: Last sample index covered (exclusive).
    stop: int
    #: Base seed of the run the shard belongs to.
    base_seed: int
    #: Enclosing grid-point indices (e.g. the sweep point), prepended to
    #: the spawn key: stream = ``SeedSequence(base_seed, (*prefix, index))``.
    spawn_prefix: Tuple[int, ...] = ()
    #: The single shard of an unsharded plan: its stream is the bare
    #: prefix, ``SeedSequence(base_seed, prefix)`` (no index key).
    unsharded: bool = False

    @property
    def n_samples(self) -> int:
        return self.stop - self.start

    def sequence(self) -> np.random.SeedSequence:
        """The shard's `SeedSequence` (base seed + prefix + index only;
        no index for the unsharded shard)."""
        if self.unsharded:
            return np.random.SeedSequence(self.base_seed,
                                          spawn_key=self.spawn_prefix)
        return shard_sequence(self.base_seed, self.index, self.spawn_prefix)

    def rng(self) -> np.random.Generator:
        """Fresh generator for the shard's stream."""
        return np.random.Generator(np.random.PCG64(self.sequence()))


def shard_sequence(
    base_seed: int, index: int, spawn_prefix: Sequence[int] = ()
) -> np.random.SeedSequence:
    """`SeedSequence` of shard *index* under *base_seed* (the contract).

    *spawn_prefix* nests the stream under enclosing grid points (sweep
    point *j* -> prefix ``(j,)`` -> shard key ``(j, index)``).
    """
    key = tuple(int(p) for p in spawn_prefix) + (int(index),)
    return np.random.SeedSequence(int(base_seed), spawn_key=key)


def shard_rng(
    base_seed: int, index: int, spawn_prefix: Sequence[int] = ()
) -> np.random.Generator:
    """Fresh generator for shard *index* under *base_seed*."""
    return np.random.Generator(
        np.random.PCG64(shard_sequence(base_seed, index, spawn_prefix))
    )


@dataclass(frozen=True)
class ShardPlan:
    """The full, deterministic decomposition of one statistical run."""

    n_samples: int
    shard_size: int
    base_seed: int
    shards: tuple
    #: Spawn prefix shared by every shard (nested sweep/seed contract).
    spawn_prefix: Tuple[int, ...] = ()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def unsharded(self) -> bool:
        """Whether this is the one-shard plan drawing the bare prefix."""
        return self.shards[0].unsharded

    def __iter__(self):
        return iter(self.shards)


def plan_shards(
    n_samples: int,
    shard_size: Optional[int],
    base_seed: int,
    spawn_prefix: Sequence[int] = (),
) -> ShardPlan:
    """Split *n_samples* into contiguous shards of at most *shard_size*.

    ``shard_size=None`` plans the unsharded run: one shard covering
    every sample, drawing ``SeedSequence(base_seed,
    spawn_key=spawn_prefix)`` — the legacy single-stream draw, which
    differs from the stream of ``plan_shards(n, n)``.  Every shard
    except possibly the last has exactly *shard_size* samples, so the
    partition — and through it the sample stream — is a pure function
    of ``(n_samples, shard_size, base_seed, spawn_prefix)``.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    unsharded = shard_size is None
    size = n_samples if unsharded else int(shard_size)
    if size <= 0:
        raise ValueError("shard_size must be positive")
    size = min(size, n_samples)
    prefix = tuple(int(p) for p in spawn_prefix)

    shards: List[Shard] = []
    start = 0
    while start < n_samples:
        stop = min(start + size, n_samples)
        shards.append(
            Shard(index=len(shards), start=start, stop=stop,
                  base_seed=int(base_seed), spawn_prefix=prefix,
                  unsharded=unsharded)
        )
        start = stop
    return ShardPlan(
        n_samples=n_samples,
        shard_size=size,
        base_seed=int(base_seed),
        shards=tuple(shards),
        spawn_prefix=prefix,
    )
