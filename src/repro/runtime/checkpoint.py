"""Checkpoint/resume of sharded-run state.

A checkpoint freezes a run between waves: the merged accumulator state,
every completed shard's payload (needed to assemble the final result),
and the plan fingerprint ``(n_samples, shard_size, base_seed, prefix,
unsharded)`` that makes the remaining shards reproducible.  Resuming
validates the fingerprint — a checkpoint written under a different seed
or partition must never be silently continued — then skips the
completed shards and runs only the rest; the shard/seed contract
guarantees the final merged output is bit-identical to an uninterrupted
run.

The on-disk format is a pickle (accumulator states are plain dicts but
shard payloads are engine dataclasses with numpy arrays).  Checkpoints
are internal working state: load them only from paths you wrote.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import default_registry
from repro.obs.trace import span

__all__ = ["RunCheckpoint", "save_checkpoint", "load_checkpoint"]

_REGISTRY = default_registry()
_WRITES = _REGISTRY.counter(
    "repro_checkpoint_writes_total", "Checkpoint files written")
_WRITE_BYTES = _REGISTRY.counter(
    "repro_checkpoint_write_bytes_total", "Bytes written to checkpoints")
_WRITE_SECONDS = _REGISTRY.histogram(
    "repro_checkpoint_write_seconds", "Checkpoint write latency")
_LOADS = _REGISTRY.counter(
    "repro_checkpoint_loads_total", "Checkpoint files restored")

#: Format marker (bump on incompatible layout changes).
_MAGIC = "repro-runtime-checkpoint-v1"


@dataclass
class RunCheckpoint:
    """Everything needed to continue a sharded run between waves."""

    n_samples: int
    shard_size: int
    base_seed: int
    #: Index of the next shard wave boundary (shards [0, shards_done) ran).
    shards_done: int
    #: Workload fingerprint (task kind + its discriminating parameters).
    #: Two runs sharing a plan but computing different things — e.g. the
    #: VS and BSIM passes of the same cell at the same seed offset —
    #: must never resume from each other's checkpoints.
    task: str = ""
    #: ``accumulator.state()`` snapshot (plain dicts of floats).
    accumulator_state: Optional[Dict] = None
    #: Completed shard payloads, in shard-index order.
    payloads: List = field(default_factory=list)
    #: Spawn prefix of the plan (nested sweep/seed contract); a run
    #: nested under a different sweep point must never adopt this state.
    spawn_prefix: Tuple[int, ...] = ()
    #: Whether the plan was the unsharded one-shard plan, whose stream
    #: differs from a one-shard sharded plan of the same size.
    unsharded: bool = False

    def matches(self, n_samples: int, shard_size: int, base_seed: int,
                task: str = "", spawn_prefix: Tuple[int, ...] = (),
                unsharded: bool = False) -> bool:
        """Whether this checkpoint belongs to the given plan *and* task."""
        return (
            self.n_samples == n_samples
            and self.shard_size == shard_size
            and self.base_seed == base_seed
            and self.task == task
            and tuple(self.spawn_prefix) == tuple(spawn_prefix)
            and self.unsharded == unsharded
        )


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Atomically persist *checkpoint* to *path* (write + rename)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    start = time.perf_counter()
    with span("checkpoint.write", shards_done=checkpoint.shards_done) as sp:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(
                    {"magic": _MAGIC, "checkpoint": checkpoint}, handle
                )
            n_bytes = os.path.getsize(tmp_path)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
        sp.set(bytes=n_bytes)
    _WRITES.inc()
    _WRITE_BYTES.inc(n_bytes)
    _WRITE_SECONDS.observe(time.perf_counter() - start)


def load_checkpoint(path: str) -> Optional[RunCheckpoint]:
    """Load a checkpoint, or None when *path* does not exist."""
    if not os.path.exists(path):
        return None
    with span("checkpoint.load"):
        with open(path, "rb") as handle:
            blob = pickle.load(handle)
    if not isinstance(blob, dict) or blob.get("magic") != _MAGIC:
        raise ValueError(f"{path} is not a runtime checkpoint")
    _LOADS.inc()
    return blob["checkpoint"]
