"""Delay, leakage, bisection and SNM analysis utilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.delay import DelayWatch, crossing_time, propagation_delay
from repro.analysis.setup_hold import bisect_min_passing
from repro.analysis.snm import _interp_uniform, largest_square_snm
from repro.circuit import Circuit
from repro.circuit.transient import TransientResult


class TestCrossingTime:
    def test_linear_ramp(self):
        t = np.linspace(0.0, 1.0, 11)
        wave = t.copy()  # crosses 0.55 at t = 0.55
        tc = crossing_time(t, wave, 0.55, "rise")
        assert float(tc) == pytest.approx(0.55, abs=1e-12)

    def test_fall_direction(self):
        t = np.linspace(0.0, 1.0, 11)
        wave = 1.0 - t
        tc = crossing_time(t, wave, 0.25, "fall")
        assert float(tc) == pytest.approx(0.75, abs=1e-12)

    def test_no_crossing_is_nan(self):
        t = np.linspace(0.0, 1.0, 11)
        wave = np.full(11, 0.2)
        assert np.isnan(float(crossing_time(t, wave, 0.5, "rise")))

    def test_t_min_skips_early_crossings(self):
        t = np.linspace(0.0, 2.0, 201)
        wave = np.sin(2.0 * np.pi * t)  # rises through 0.5 near t~0.083, 1.083
        tc_first = crossing_time(t, wave, 0.5, "rise")
        tc_late = crossing_time(t, wave, 0.5, "rise", t_min=0.5)
        assert float(tc_first) == pytest.approx(0.083, abs=0.02)
        assert float(tc_late) == pytest.approx(1.083, abs=0.02)

    def test_batched(self):
        t = np.linspace(0.0, 1.0, 51)
        shift = np.array([0.0, 0.2])
        wave = np.clip(t[:, None] - shift[None, :], 0.0, 1.0)
        tc = crossing_time(t, wave, 0.3, "rise")
        assert tc.shape == (2,)
        assert tc[1] - tc[0] == pytest.approx(0.2, abs=0.02)

    def test_direction_validation(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            crossing_time(t, t, 0.5, "sideways")

    @pytest.mark.parametrize("n_points", [0, 1])
    def test_fewer_than_two_points_is_nan(self, n_points):
        times = np.zeros(n_points)
        tc = crossing_time(times, np.full((n_points, 2), 0.1), 0.5)
        assert tc.shape == (2,)
        assert np.isnan(tc).all()

    def test_non_finite_segment_end_is_nan(self):
        # NaN counts as below the threshold, so [nan, 1] is a rising
        # segment; its crossing instant is unknown.
        t = np.array([0.0, 1.0, 2.0])
        wave = np.array([[0.0, 0.0, 0.0], [np.nan, 0.2, np.inf], [1.0, 1.0, 1.0]])
        tc = crossing_time(t, wave, 0.5, "rise")
        assert np.isnan(tc[0]) and np.isnan(tc[2])
        assert tc[1] == pytest.approx(1.375)


_LEVELS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                    st.floats(-0.25, 1.25))


@st.composite
def _wave(draw, shape):
    """Random levels, or per sample a step between two levels at its own
    time point (or none), each with glitches on top.  The levels hit the
    0.5 threshold exactly."""
    if draw(st.booleans()):
        return draw(arrays(float, shape, elements=_LEVELS))
    edges = draw(arrays(int, shape[1:], elements=st.integers(1, shape[0])))
    before, after = draw(_LEVELS), draw(_LEVELS)
    index = np.arange(shape[0]).reshape((-1,) + (1,) * (len(shape) - 1))
    wave = np.where(index < edges, before, after)
    glitches = draw(arrays(bool, shape, elements=st.booleans()))
    return np.where(glitches & draw(st.booleans()),
                    draw(arrays(float, shape, elements=_LEVELS)), wave)


@st.composite
def _waveforms(draw):
    """Batched input and output waveforms on a uniform time grid that may
    start before t = 0."""
    n_points = draw(st.integers(1, 16))
    shape = (n_points,) + draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    start = draw(st.integers(-3, 0))
    dt = draw(st.sampled_from([1.0, 0.3, 2e-12]))
    times = (np.arange(n_points) + start) * dt
    return times, draw(_wave(shape)), draw(_wave(shape))


class TestDelayWatch:
    """The stop rule is exact: at the watch's first True, the delays of
    the recorded prefix equal the full series' bit for bit."""

    @staticmethod
    def _result(times, wave_in, wave_out):
        voltages = np.stack([wave_in, wave_out], axis=-1)
        return TransientResult(times=times, voltages=voltages,
                               node_index={"in": 0, "out": 1})

    @given(waves=_waveforms(), input_edge=st.sampled_from(["rise", "fall"]),
           inverting=st.booleans())
    # Like the NAND2 pulse: the input lands on the threshold at a segment
    # end, and the output crossing of that same segment is not eligible.
    @example(waves=(np.arange(4.0), np.array([0.0, 0.5, 1.0, 1.0]),
                    np.array([1.0, 0.2, 0.8, 0.2])),
             input_edge="rise", inverting=True)
    # Both outputs fall before sample 1's input rises.
    @example(waves=(np.arange(4.0),
                    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                    np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])),
             input_edge="rise", inverting=True)
    # Both inputs rise; sample 1's output falls a step after sample 0's.
    @example(waves=(np.arange(4.0),
                    np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
                    np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])),
             input_edge="rise", inverting=True)
    @settings(max_examples=400, deadline=None)
    def test_stopped_prefix_delays_equal_full_series(self, waves, input_edge,
                                                     inverting):
        times, wave_in, wave_out = waves
        circuit = Circuit()
        circuit.add_resistor("in", "out", 1e3)
        full = self._result(times, wave_in, wave_out)
        watch = DelayWatch(circuit, "in", "out", 1.0, input_edge, inverting)
        watch(times[0], full.voltages[0])      # transient ignores this one
        stop = next((k for k in range(1, times.size)
                     if watch(times[k], full.voltages[k])), None)
        if stop is None:
            return
        prefix = self._result(times[:stop + 1], wave_in[:stop + 1],
                              wave_out[:stop + 1])
        want = propagation_delay(full, "in", "out", 1.0, input_edge, inverting)
        got = propagation_delay(prefix, "in", "out", 1.0, input_edge,
                                inverting)
        for field in ("t_in", "t_out", "delay"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes()), field

    def test_rejects_unknown_edge(self):
        circuit = Circuit()
        circuit.add_resistor("in", "out", 1e3)
        with pytest.raises(ValueError):
            DelayWatch(circuit, "in", "out", 1.0, "sideways")


class TestBisection:
    def test_known_boundary(self):
        boundary = np.array([0.3, 0.6, 0.45])

        def passes(x):
            return x >= boundary

        result = bisect_min_passing(passes, np.zeros(3), np.ones(3),
                                    n_iterations=20)
        np.testing.assert_allclose(result, boundary, atol=1e-5)

    def test_bad_bracket_marked_nan(self):
        # Sample 1 passes everywhere (boundary below lo): bracket invalid.
        def passes(x):
            return np.array([True, x[1] > 0.5])

        result = bisect_min_passing(passes, np.zeros(2), np.ones(2))
        assert np.isnan(result[0])
        assert result[1] == pytest.approx(0.5, abs=1e-3)

    def test_rejects_inverted_bracket(self):
        with pytest.raises(ValueError):
            bisect_min_passing(lambda x: x > 0, np.ones(2), np.zeros(2))

    def test_resolution_scales_with_iterations(self):
        boundary = np.array([np.pi / 10.0])

        def passes(x):
            return x >= boundary

        coarse = bisect_min_passing(passes, np.zeros(1), np.ones(1), n_iterations=4)
        fine = bisect_min_passing(passes, np.zeros(1), np.ones(1), n_iterations=16)
        assert abs(fine[0] - boundary[0]) < abs(coarse[0] - boundary[0])


class TestSNM:
    def test_ideal_step_vtc(self):
        # Ideal inverters with switching threshold at Vdd/2: SNM = Vdd/2.
        vdd = 0.9
        s = np.linspace(0.0, vdd, 301)
        f = np.where(s < vdd / 2.0, vdd, 0.0)
        snm = largest_square_snm(s, f, f)
        assert snm == pytest.approx(vdd / 2.0, abs=0.01)

    def test_degenerate_diagonal(self):
        s = np.linspace(0.0, 0.9, 91)
        f = 0.9 - s
        assert largest_square_snm(s, f, f) == pytest.approx(0.0, abs=1e-3)

    def test_asymmetric_lobes_take_minimum(self):
        # Shift one curve's threshold: one lobe shrinks, SNM follows it.
        vdd = 0.9
        s = np.linspace(0.0, vdd, 301)
        f_centered = np.where(s < 0.45, vdd, 0.0)
        f_shifted = np.where(s < 0.30, vdd, 0.0)
        snm_sym = largest_square_snm(s, f_centered, f_centered)
        snm_asym = largest_square_snm(s, f_shifted, f_centered)
        assert snm_asym < snm_sym

    def test_batched_curves(self):
        vdd = 0.9
        s = np.linspace(0.0, vdd, 121)
        thresholds = np.array([0.45, 0.40, 0.35])
        f = np.where(s[:, None] < thresholds[None, :], vdd, 0.0)
        snm = largest_square_snm(s, f, f)
        assert snm.shape == (3,)
        # Off-center thresholds weaken one lobe.
        assert snm[0] > snm[1] > snm[2]

    def test_smooth_tanh_vtc(self):
        # Smooth VTC pair: SNM must be strictly between 0 and Vdd/2 and
        # increase with VTC gain.
        vdd = 0.9
        s = np.linspace(0.0, vdd, 241)

        def vtc(gain):
            return vdd / 2.0 * (1.0 - np.tanh(gain * (s - vdd / 2.0) / vdd))

        snm_low = largest_square_snm(s, vtc(4.0), vtc(4.0))
        snm_high = largest_square_snm(s, vtc(20.0), vtc(20.0))
        assert 0.0 < snm_low < snm_high < vdd / 2.0

    def test_input_validation(self):
        s = np.linspace(0.0, 0.9, 10)
        with pytest.raises(ValueError):
            largest_square_snm(s, np.zeros(9), np.zeros(10))
        with pytest.raises(ValueError):
            largest_square_snm(np.array([0.0, 0.1, 0.05]), np.zeros(3), np.zeros(3))


def _take_along_axis_interp(values, queries, x0, dx):
    """Uniform-grid interpolation in its ``take_along_axis`` form: the
    reference for the flat gather."""
    n = values.shape[0]
    pos = (queries - x0) / dx
    idx = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = np.clip(pos - idx, 0.0, 1.0)
    lo = np.take_along_axis(values, idx, axis=0)
    hi = np.take_along_axis(values, idx + 1, axis=0)
    return lo + frac * (hi - lo)


def _random_vtcs(rng, n_points, batch):
    """Decreasing tanh VTCs over a 0.9 V sweep, gain and threshold per
    sample."""
    s = np.linspace(0.0, 0.9, n_points).reshape(
        (n_points,) + (1,) * len(batch))
    gain = rng.uniform(3.0, 25.0, batch)
    vm = rng.uniform(0.3, 0.6, batch)
    return s.reshape(-1), 0.45 * (1.0 - np.tanh(gain * (s - vm) / 0.9))


class TestFlatGatherSNM:
    @given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(3, 64),
           batch=st.sampled_from([(1,), (7,), (3, 5)]))
    @settings(max_examples=60, deadline=None)
    def test_flat_gather_equals_take_along_axis(self, seed, n_points, batch):
        # Random monotone curves, queries past both grid ends included.
        rng = np.random.default_rng(seed)
        x0, dx = rng.uniform(-0.5, 0.5), rng.uniform(0.01, 0.1)
        values = rng.uniform(0.0, 1.0, batch) - np.cumsum(
            rng.uniform(0.0, 0.2, (n_points,) + batch), axis=0
        )
        span = dx * (n_points - 1)
        queries = x0 + rng.uniform(-0.2 * span, 1.2 * span,
                                   (n_points,) + batch)
        columns = np.arange(int(np.prod(batch))).reshape(batch)
        flat = _interp_uniform(values, np.diff(values, axis=0), columns,
                               queries, x0, dx)
        np.testing.assert_array_equal(
            flat, _take_along_axis_interp(values, queries, x0, dx)
        )

    @pytest.mark.parametrize("batch", [(6,), (2, 3)])
    def test_batch_equals_scalar_calls(self, batch):
        rng = np.random.default_rng(11)
        s, curve_a = _random_vtcs(rng, 61, batch)
        _, curve_b = _random_vtcs(rng, 61, batch)
        snm = largest_square_snm(s, curve_a, curve_b)
        assert snm.shape == batch
        for index in np.ndindex(*batch):
            column = (slice(None),) + index
            assert snm[index] == largest_square_snm(s, curve_a[column],
                                                    curve_b[column])
