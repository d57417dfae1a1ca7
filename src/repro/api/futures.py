"""Non-blocking analysis submission: ``Session.submit`` futures.

A :class:`RunHandle` drives one analysis on a background thread and
doubles as the runtime's :class:`~repro.runtime.runner.RunObserver`, so
the caller can watch a long Monte-Carlo or sweep without blocking::

    handle = session.submit(Sweep(spec, over={"vdd": (0.9, 0.7, 0.55)}))
    while not handle.done():
        p = handle.progress()
        print(f"{p.completed}/{p.total} {p.unit}")
        time.sleep(1.0)
    result = handle.result()

``Session.run`` is literally ``submit(...).result()`` — the future path
is the only execution path, so blocking and non-blocking runs cannot
drift apart.  Determinism is untouched: the handle only *observes* wave
boundaries; cancellation truncates the run at a boundary exactly like
an adaptive stop, never reordering or re-seeding anything.

Threading model: the handle's thread runs the whole analysis (process
pools still fan shards out across workers); observer callbacks arrive
on that thread and publish snapshots under the handle's lock, which
``progress()``/``partial()`` read from any thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.runtime.runner import CANCELLED, RunObserver

__all__ = ["Progress", "RunCancelled", "RunHandle", "RunSnapshot"]


@dataclass(frozen=True)
class Progress:
    """Snapshot of a running analysis' completion state."""

    #: Work items finished so far (shards, sweep points, or whole runs).
    completed: int
    #: Total work items, once known (monolithic runs report it as 1).
    total: Optional[int]
    #: What the counts measure: ``"shards"``, ``"points"`` or ``"runs"``.
    unit: str = "runs"
    #: Whether the run has finished (successfully or not).
    done: bool = False

    @property
    def fraction(self) -> Optional[float]:
        """Completed fraction in [0, 1], or None before the total is known."""
        if self.total is None or self.total == 0:
            return None
        return self.completed / self.total


@dataclass(frozen=True)
class RunSnapshot:
    """One atomic (progress, partial) pair from :meth:`RunHandle.snapshot`.

    Both fields were published together at the same wave boundary, so a
    cross-thread poller — the analysis service's status endpoints — can
    rely on them describing the *same* accumulated state: when a sweep
    reports ``progress.completed == k``, ``partial["points"]`` holds
    exactly the first *k* point envelopes, never a half-merged wave.
    """

    progress: Progress
    #: Accumulator snapshot at the same boundary (None before the first
    #: wave and for runs without streamed state, e.g. circuit specs).
    partial: Optional[Dict[str, Any]]


class RunCancelled(RuntimeError):
    """Raised by :meth:`RunHandle.result` after a successful cancel.

    ``partial`` holds whatever envelope the truncated run assembled
    (``None`` when the run was cancelled before its first wave).
    """

    def __init__(self, partial=None):
        super().__init__("run cancelled before completion")
        self.partial = partial


def _accumulator_snapshot(accumulator) -> Optional[Dict[str, Any]]:
    """Freeze an accumulator's current state for :meth:`RunHandle.partial`."""
    if accumulator is None:
        return None
    out: Dict[str, Any] = {}
    n = getattr(accumulator, "n_samples", None)
    if n is None:
        n = getattr(accumulator, "n", None)
    if n is not None:
        out["n_samples"] = int(n)
    results = getattr(accumulator, "results", None)
    if results is not None:
        # Sweep points: the completed per-point Result envelopes — the
        # whole state of a point grid, so it is not repeated as "state".
        out["points"] = tuple(results)
    stats = getattr(accumulator, "stats", None)
    if isinstance(stats, dict):
        # Target Monte-Carlo: streamed mean/sigma per target.
        out["means"] = {t: float(s.mean) for t, s in stats.items() if s.n}
        out["sigmas"] = {t: s.std() for t, s in stats.items()}
    state = getattr(accumulator, "state", None)
    if callable(state) and results is None:
        out["state"] = state()
    return out


class RunHandle(RunObserver):
    """Future over one ``Session`` analysis (see the module docstring)."""

    def __init__(self, session, spec, circuit=None):
        self._session = session
        self._spec = spec
        self._circuit = circuit
        self._lock = threading.Lock()
        self._cancel_requested = threading.Event()
        self._progress = Progress(completed=0, total=None)
        self._partial: Optional[Dict[str, Any]] = None
        self._outcome = None  # ("ok", envelope) | ("err", exception)
        self._thread = threading.Thread(
            target=self._drive, name="repro-run", daemon=True
        )
        self._thread.start()

    @property
    def spec(self):
        """The spec this handle is running."""
        return self._spec

    # ------------------------------------------------------------------
    # Driver thread.
    # ------------------------------------------------------------------
    def _drive(self) -> None:
        try:
            if self._cancel_requested.is_set():
                raise RunCancelled(None)
            out = self._session._execute(
                self._spec, self._circuit, observer=self
            )
            if self._cancel_requested.is_set() and self._truncated(out):
                raise RunCancelled(out)
            self._outcome = ("ok", out)
        except BaseException as exc:  # delivered to result(), never lost
            self._outcome = ("err", exc)

    @staticmethod
    def _truncated(envelope) -> bool:
        """Whether a returned envelope is a cancel-truncated partial."""
        runtime = getattr(envelope, "runtime", None)
        return getattr(runtime, "stop_reason", None) == CANCELLED

    # ------------------------------------------------------------------
    # Observer protocol (called on the driver thread).
    # ------------------------------------------------------------------
    def on_progress(self, done, total, accumulator=None, unit="shards"):
        # Freeze the accumulator into plain copied containers *before*
        # publication: the runner only calls between waves (the driver
        # thread is the sole mutator), so the snapshot is internally
        # consistent, and publishing it together with the matching
        # Progress under one lock is what makes snapshot() atomic for
        # cross-thread pollers.
        snapshot = _accumulator_snapshot(accumulator)
        with self._lock:
            self._progress = Progress(completed=int(done), total=int(total),
                                      unit=unit)
            if snapshot is not None:
                self._partial = snapshot

    def should_cancel(self) -> bool:
        return self._cancel_requested.is_set()

    # ------------------------------------------------------------------
    # Future interface.
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Whether the run has finished (result or exception ready)."""
        return not self._thread.is_alive()

    def running(self) -> bool:
        return self._thread.is_alive()

    @staticmethod
    def _finished(progress: Progress, done: bool) -> Progress:
        """A Progress normalized for a finished run (done flag, 1/1)."""
        if not done:
            return progress
        if progress.total is None:
            return Progress(completed=1, total=1, unit="runs", done=True)
        return Progress(completed=progress.completed, total=progress.total,
                        unit=progress.unit, done=True)

    def progress(self) -> Progress:
        """Latest completion snapshot (monolithic runs report 0 -> 1)."""
        return self.snapshot().progress

    def partial(self) -> Optional[Dict[str, Any]]:
        """Snapshot of the streamed accumulator state so far.

        ``None`` until the first wave lands (and always for runs with
        no streaming state to snapshot, e.g. circuit specs).
        Sweeps and characterization grids expose ``"points"`` — the
        completed per-point results, which are the grid's whole state,
        so each point appears once; statistical runs expose streamed
        ``"means"``/``"sigmas"`` and the raw accumulator ``"state"``.
        """
        return self.snapshot().partial

    def snapshot(self) -> RunSnapshot:
        """Atomic (progress, partial) pair from one wave boundary.

        The two fields are read under one lock acquisition, and the
        driver publishes them together after each merged wave — so a
        poller on another thread (the analysis service) always sees a
        progress count and an accumulator state from the *same*
        boundary, never a half-merged combination.  Prefer this over
        separate ``progress()``/``partial()`` calls whenever the two
        values are used together.
        """
        done = self.done()
        with self._lock:
            progress, partial = self._progress, self._partial
        return RunSnapshot(progress=self._finished(progress, done),
                           partial=partial)

    def cancel(self) -> bool:
        """Ask the run to stop at its next wave/point boundary.

        Returns False when the run already finished.  After a
        successful cancel, :meth:`result` raises :class:`RunCancelled`
        carrying the truncated envelope (a run that slips past the last
        boundary before the request lands completes normally).
        """
        if self.done():
            return False
        self._cancel_requested.set()
        return True

    def result(self, timeout: Optional[float] = None):
        """Block until done and return the envelope (or re-raise).

        Raises ``TimeoutError`` if *timeout* elapses first and
        :class:`RunCancelled` if the run was cancelled.
        """
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError(
                f"run still executing after {timeout} s: {self._spec!r}"
            )
        kind, value = self._outcome
        if kind == "err":
            raise value
        return value
