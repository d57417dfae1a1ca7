"""Threshold-crossing delay measurement on transient waveforms.

All functions are batched: waveforms have shape ``(T,) + batch`` and the
returned crossing times/delays have the batch shape.  Crossing instants
are linearly interpolated between time samples, so the measured delays
are far more precise than the integration step.

:class:`DelayWatch` is the matching stop test for a transient
(``transient(..., until=watch)``): it ends the run once one
:func:`propagation_delay` call is settled, so the delays measured on the
shorter run equal the full window's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.transient import TransientResult


def crossing_time(
    times: np.ndarray,
    wave: np.ndarray,
    threshold: float,
    direction: str = "rise",
    t_min: float = 0.0,
) -> np.ndarray:
    """First time *wave* crosses *threshold* in *direction* after *t_min*.

    A segment crosses where ``wave >= threshold`` changes between its
    ends (NaN counts as below); it is eligible when it ends after
    *t_min*.  Returns NaN for samples that never cross (callers decide
    whether that's a failure or simply "did not switch"), for every
    sample of a waveform with fewer than two time points, and for a
    sample whose first eligible crossing segment has a non-finite end.
    """
    _check_edge(direction)
    times = np.asarray(times, dtype=float)
    wave = np.asarray(wave, dtype=float)
    if wave.shape[0] != times.shape[0]:
        raise ValueError("waveform and time axes disagree")
    if times.shape[0] < 2:
        return np.full(wave.shape[1:], np.nan)

    above = wave >= threshold
    crossed = _crossed(above[:-1], above[1:], direction)
    eligible = (times[1:] > t_min).reshape((-1,) + (1,) * (wave.ndim - 1))
    crossed = crossed & eligible

    any_cross = crossed.any(axis=0)
    first = np.argmax(crossed, axis=0)          # index of segment start

    flat_first = first.reshape(-1)
    batch_idx = np.arange(flat_first.size)
    w0 = wave[:-1].reshape(wave.shape[0] - 1, -1)[flat_first, batch_idx]
    w1 = wave[1:].reshape(wave.shape[0] - 1, -1)[flat_first, batch_idx]
    t0 = times[:-1][flat_first]
    t1 = times[1:][flat_first]

    denom = w1 - w0
    frac = np.where(np.abs(denom) > 0.0, (threshold - w0) / np.where(denom == 0, 1.0, denom), 0.0)
    tc = t0 + frac * (t1 - t0)
    tc = tc.reshape(first.shape)
    finite = (np.isfinite(w0) & np.isfinite(w1)).reshape(first.shape)
    return np.where(any_cross & finite, tc, np.nan)


def _check_edge(direction: str) -> None:
    if direction not in ("rise", "fall"):
        raise ValueError(f"direction must be 'rise' or 'fall', got {direction!r}")


def _crossed(before: np.ndarray, after: np.ndarray, direction: str) -> np.ndarray:
    """Where ``wave >= threshold`` goes from *before* to *after* in
    *direction*."""
    if direction == "rise":
        return ~before & after
    return before & ~after


def _output_edge(input_edge: str, inverting: bool) -> str:
    if not inverting:
        return input_edge
    return "fall" if input_edge == "rise" else "rise"


@dataclass(frozen=True)
class DelayResult:
    """Propagation delays of one switching event."""

    t_in: np.ndarray       #: input 50 % crossing times
    t_out: np.ndarray      #: output 50 % crossing times
    delay: np.ndarray      #: t_out - t_in

    @property
    def valid(self) -> np.ndarray:
        """Mask of samples whose output actually switched."""
        return np.isfinite(self.delay)


def propagation_delay(
    result: TransientResult,
    input_node: str,
    output_node: str,
    vdd: float,
    input_edge: str = "rise",
    inverting: bool = True,
    t_min: float = 0.0,
) -> DelayResult:
    """50 %-to-50 % propagation delay for one input edge.

    *inverting* selects the expected output edge direction (True for
    INV/NAND-style cells).
    """
    threshold = 0.5 * vdd
    t_in = crossing_time(result.times, result[input_node], threshold, input_edge, t_min)
    output_edge = _output_edge(input_edge, inverting)
    # The output transition necessarily begins after the input starts
    # moving; restrict the search to post-input-crossing times per sample
    # by using the *minimum* input crossing as a global lower bound.
    finite = np.isfinite(t_in)
    lower = float(np.nanmin(t_in)) if np.any(finite) else t_min
    t_out = crossing_time(
        result.times, result[output_node], threshold, output_edge, lower
    )
    return DelayResult(t_in=t_in, t_out=t_out, delay=t_out - t_in)


class DelayWatch:
    """Stop test that settles one :func:`propagation_delay` call.

    ``transient(circuit, ..., until=DelayWatch(circuit, input_node,
    output_node, vdd, input_edge, inverting))`` ends the run at the
    first recorded point where

    * every sample's input has crossed ``0.5 * vdd`` in *input_edge*
      direction (on a segment ending after ``t = 0``, the ``t_min`` of
      ``propagation_delay``), and
    * every sample's output has crossed in the output direction on a
      segment that starts no earlier than the end of the first segment
      where any sample's input crossed.

    It uses :func:`crossing_time`'s ``>=`` comparisons and interpolates
    nothing.  Why the stop is exact: every sample's first input crossing
    lies in the recorded prefix, so ``t_in`` is the full window's, and
    ``lower = nanmin(t_in)`` is no later than the end of that first
    crossing segment.  Each output crossing the watch counted thus ends
    after ``lower``, so every sample's first eligible output crossing
    lies in the prefix too, and ``propagation_delay(result, input_node,
    output_node, vdd, input_edge, inverting)`` on the stopped run equals
    its full-window value bit for bit.  A sample that never crosses
    keeps the run going to ``t_stop``.

    A watch holds the state of one run; build a new one per transient.
    """

    def __init__(self, circuit, input_node: str, output_node: str,
                 vdd: float, input_edge: str = "rise", inverting: bool = True):
        _check_edge(input_edge)
        self._input = circuit.index_of(input_node)
        self._output = circuit.index_of(output_node)
        self._threshold = 0.5 * vdd
        self._input_edge = input_edge
        self._output_edge = _output_edge(input_edge, inverting)
        self._above = None          # (input, output) >= threshold, last point
        self._input_crossed = None  # per sample
        self._output_crossed = None
        self._armed = False         # an input crossing segment has ended

    def __call__(self, t: float, nodes: np.ndarray) -> bool:
        above_in = nodes[..., self._input] >= self._threshold
        above_out = nodes[..., self._output] >= self._threshold
        if self._above is None:
            self._above = (above_in, above_out)
            self._input_crossed = np.zeros(above_in.shape, dtype=bool)
            self._output_crossed = np.zeros(above_out.shape, dtype=bool)
            return False
        before_in, before_out = self._above
        self._above = (above_in, above_out)
        if self._armed:
            self._output_crossed |= _crossed(before_out, above_out,
                                             self._output_edge)
        if t > 0.0:
            self._input_crossed |= _crossed(before_in, above_in,
                                            self._input_edge)
            self._armed = bool(self._input_crossed.any())
        return bool(self._input_crossed.all() and self._output_crossed.all())
