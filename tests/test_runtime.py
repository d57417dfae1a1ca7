"""The sharded parallel runtime.

Pins the subsystem's central contract — sharded output is bit-identical
to the serial run at every worker count, for device Monte-Carlo,
importance sampling, circuit-level factory maps and SSTA graph sampling
— plus the streaming accumulators (merge correctness and associativity),
adaptive stopping (including its worker-count invariance), checkpoint
resume, and the executor degradation path for unpicklable tasks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Execution,
    FactoryMap,
    ImportanceSampling,
    MonteCarlo,
    Session,
)
from repro.obs import default_registry
from repro.runtime import (
    FailureAccumulator,
    ParallelExecutor,
    QuantileSketch,
    SerialExecutor,
    StopRule,
    StreamStats,
    TargetAccumulator,
    WeightedFailureAccumulator,
    load_checkpoint,
    plan_shards,
    resolve_executor,
    run_sharded,
    shard_rng,
)
from repro.ssta import GaussianDelay, TimingGraph, monte_carlo_arrival

RTOL = 1e-9


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20260101)


def _vt0_metric(params):
    """Module-level (picklable) importance-sampling metric."""
    return np.asarray(params.vt0)


def _vt0_work(factory):
    """Module-level (picklable) factory-map workload."""
    return np.asarray(factory("nmos", 600.0, 40.0).params.vt0)


def _multicolumn_work(factory):
    """Factory-map workload with a (n, 3) output (sample axis first)."""
    vt0 = np.asarray(factory("nmos", 600.0, 40.0).params.vt0)
    return np.stack([vt0, 2.0 * vt0, 3.0 * vt0], axis=1)


def _normal_draws(shard):
    """Module-level (picklable) array task: the shard stream's normals."""
    return shard.rng().standard_normal(shard.n_samples)


def _prefix_rng(base_seed, prefix=()):
    """The unsharded plan's stream: ``SeedSequence(base_seed, prefix)``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(base_seed, spawn_key=prefix)
    ))


# ----------------------------------------------------------------------
# Shard planning.
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_partition_covers_run_exactly(self):
        plan = plan_shards(1000, 128, base_seed=7)
        assert [s.n_samples for s in plan] == [128] * 7 + [104]
        assert plan.shards[0].start == 0
        assert plan.shards[-1].stop == 1000
        assert all(
            a.stop == b.start for a, b in zip(plan.shards, plan.shards[1:])
        )

    def test_none_shard_size_is_single_shard(self):
        plan = plan_shards(500, None, base_seed=7)
        assert plan.n_shards == 1
        assert plan.shards[0].n_samples == 500

    def test_shard_streams_depend_only_on_seed_and_index(self):
        a = plan_shards(1000, 100, base_seed=3).shards[4]
        b = plan_shards(2000, 100, base_seed=3).shards[4]
        np.testing.assert_array_equal(
            a.rng().standard_normal(8), b.rng().standard_normal(8)
        )
        np.testing.assert_array_equal(
            shard_rng(3, 4).standard_normal(8), a.rng().standard_normal(8)
        )

    def test_distinct_shards_get_distinct_streams(self):
        plan = plan_shards(256, 64, base_seed=11)
        draws = [s.rng().standard_normal(4) for s in plan]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError):
            plan_shards(0, 10, base_seed=0)
        with pytest.raises(ValueError):
            plan_shards(10, 0, base_seed=0)


# ----------------------------------------------------------------------
# Streaming accumulators.
# ----------------------------------------------------------------------
class TestStreamStats:
    def test_matches_numpy_reductions(self, rng):
        values = rng.standard_normal(501)
        acc = StreamStats()
        for chunk in np.array_split(values, 7):
            acc.update(chunk)
        assert acc.n == 501
        assert acc.mean == pytest.approx(np.mean(values), rel=RTOL)
        assert acc.std() == pytest.approx(np.std(values, ddof=1), rel=RTOL)
        assert acc.min == np.min(values)
        assert acc.max == np.max(values)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=40
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_merge_is_associative_and_exactly_reduces(self, chunks):
        def stats_of(chunk):
            acc = StreamStats()
            acc.update(np.asarray(chunk))
            return acc

        left = stats_of(chunks[0]).merge(stats_of(chunks[1])).merge(stats_of(chunks[2]))
        right = stats_of(chunks[0]).merge(stats_of(chunks[1]).merge(stats_of(chunks[2])))
        everything = np.concatenate([np.asarray(ch) for ch in chunks])
        assert left.n == right.n == everything.size
        assert left.mean == pytest.approx(right.mean, rel=1e-9, abs=1e-9)
        assert left.m2 == pytest.approx(right.m2, rel=1e-7, abs=1e-6)
        assert left.mean == pytest.approx(float(np.mean(everything)),
                                          rel=1e-9, abs=1e-9)
        assert left.min == float(np.min(everything))
        assert left.max == float(np.max(everything))

    def test_state_roundtrip(self, rng):
        acc = StreamStats().update(rng.standard_normal(32))
        clone = StreamStats.from_state(acc.state())
        assert clone.state() == acc.state()


class TestFailureAccumulator:
    def test_merge_matches_batch_formulas(self, rng):
        weights = rng.exponential(size=400)
        fails = rng.random(400) < 0.2
        contrib = weights * fails

        merged = FailureAccumulator()
        for idx in range(4):
            part = FailureAccumulator().update(
                fails[idx * 100:(idx + 1) * 100],
                weights[idx * 100:(idx + 1) * 100],
            )
            merged.merge(part)
        assert merged.n_samples == 400
        assert merged.n_fail == int(np.count_nonzero(fails))
        assert merged.probability == pytest.approx(np.mean(contrib), rel=RTOL)
        assert merged.std_error == pytest.approx(
            np.std(contrib, ddof=1) / np.sqrt(400), rel=1e-7
        )

    def test_zero_failures_relative_error_is_inf(self):
        acc = FailureAccumulator().update(np.zeros(100, dtype=bool))
        assert acc.probability == 0.0
        assert acc.relative_error() == np.inf


#: One weighted-failure sample: (importance weight, fail flag, sigma
#: deviation).  Weights stay non-negative like real density ratios.
_WEIGHTED_SAMPLE = st.tuples(
    st.floats(0.0, 1e3, allow_nan=False),
    st.booleans(),
    st.floats(-6.0, 6.0, allow_nan=False),
)


def _weighted_acc(chunk) -> WeightedFailureAccumulator:
    weights = np.asarray([w for w, _, _ in chunk], dtype=float)
    fails = np.asarray([f for _, f, _ in chunk], dtype=bool)
    x = np.asarray([x for _, _, x in chunk], dtype=float)
    return WeightedFailureAccumulator().update(
        fails, weights, deviations={"vt0": x}
    )


class TestWeightedFailureAccumulator:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=3, max_size=3))
    def test_merge_is_associative(self, chunks):
        a, b, c = chunks
        left = _weighted_acc(a).merge(_weighted_acc(b)).merge(_weighted_acc(c))
        right = _weighted_acc(a).merge(_weighted_acc(b).merge(_weighted_acc(c)))
        assert left.n_samples == right.n_samples
        assert left.n_fail == right.n_fail
        assert left.probability == pytest.approx(right.probability,
                                                 rel=1e-9, abs=1e-12)
        assert left.sum_w == pytest.approx(right.sum_w, rel=1e-9, abs=1e-12)
        assert left.sum_w2 == pytest.approx(right.sum_w2, rel=1e-9, abs=1e-12)
        assert left.fail_w == pytest.approx(right.fail_w, rel=1e-9, abs=1e-12)
        assert left.fail_wx.get("vt0", 0.0) == pytest.approx(
            right.fail_wx.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )
        assert left.fail_wx2.get("vt0", 0.0) == pytest.approx(
            right.fail_wx2.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=2, max_size=4))
    def test_shard_merge_matches_single_stream_fold(self, chunks):
        # Shard-local accumulators merged in shard order must equal one
        # accumulator folding the same chunks sequentially — the
        # identity that makes the runtime's reduce worker-count
        # invariant.
        merged = WeightedFailureAccumulator()
        for chunk in chunks:
            merged.merge(_weighted_acc(chunk))
        folded = WeightedFailureAccumulator()
        for chunk in chunks:
            folded.update(
                np.asarray([f for _, f, _ in chunk], dtype=bool),
                np.asarray([w for w, _, _ in chunk], dtype=float),
                deviations={"vt0": np.asarray([x for _, _, x in chunk])},
            )
        assert merged.n_samples == folded.n_samples
        assert merged.n_fail == folded.n_fail
        assert merged.probability == pytest.approx(folded.probability,
                                                   rel=1e-9, abs=1e-12)
        assert merged.fail_w == pytest.approx(folded.fail_w,
                                              rel=1e-9, abs=1e-12)
        assert merged.fail_wx.get("vt0", 0.0) == pytest.approx(
            folded.fail_wx.get("vt0", 0.0), rel=1e-9, abs=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=30),
                    min_size=1, max_size=4))
    def test_merged_ess_matches_kish_formula(self, chunks):
        merged = WeightedFailureAccumulator()
        for chunk in chunks:
            merged.merge(_weighted_acc(chunk))
        weights = np.asarray([w for chunk in chunks for w, _, _ in chunk])
        sum_w2 = float(np.sum(weights**2))
        if sum_w2 == 0.0:
            assert merged.effective_samples == 0.0
        else:
            assert merged.effective_samples == pytest.approx(
                float(np.sum(weights)) ** 2 / sum_w2, rel=1e-9
            )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_WEIGHTED_SAMPLE, min_size=1, max_size=60))
    def test_shift_estimate_is_weighted_failure_centroid(self, chunk):
        acc = _weighted_acc(chunk)
        weights = np.asarray([w for w, _, _ in chunk], dtype=float)
        fails = np.asarray([f for _, f, _ in chunk], dtype=bool)
        x = np.asarray([x for _, _, x in chunk], dtype=float)
        mass = float(np.sum(weights[fails]))
        if mass <= 0.0:
            assert acc.shift_estimate() == {}
        else:
            assert acc.shift_estimate()["vt0"] == pytest.approx(
                float(np.sum(weights[fails] * x[fails])) / mass,
                rel=1e-9, abs=1e-12,
            )

    def test_probability_path_identical_to_plain_accumulator(self, rng):
        # The inherited estimate must be bit-identical to
        # FailureAccumulator for the same update sequence — the property
        # behind the Yield zero-round == ImportanceSampling identity.
        weights = rng.exponential(size=300)
        fails = rng.random(300) < 0.3
        x = rng.standard_normal(300)
        plain = FailureAccumulator()
        weighted = WeightedFailureAccumulator()
        for lo in range(0, 300, 100):
            plain.update(fails[lo:lo + 100], weights[lo:lo + 100])
            weighted.update(fails[lo:lo + 100], weights[lo:lo + 100],
                            deviations={"vt0": x[lo:lo + 100]})
        assert weighted.probability == plain.probability
        assert weighted.std_error == plain.std_error
        assert weighted.effective_samples == plain.effective_samples
        assert weighted.n_fail == plain.n_fail

    def test_state_roundtrip(self, rng):
        acc = WeightedFailureAccumulator().update(
            rng.random(64) < 0.25,
            rng.exponential(size=64),
            deviations={"vt0": rng.standard_normal(64),
                        "leff": rng.standard_normal(64)},
        )
        clone = WeightedFailureAccumulator.from_state(acc.state())
        assert clone.state() == acc.state()
        assert clone.shift_estimate() == acc.shift_estimate()


class TestQuantileSketch:
    def test_exact_below_capacity(self, rng):
        values = rng.standard_normal(100)
        sketch = QuantileSketch(k=256).update(values)
        assert sketch.query(0.5) == pytest.approx(
            np.quantile(values, 0.5, method="inverted_cdf"), abs=1e-12
        )

    def test_rank_error_bounded_after_compaction(self, rng):
        values = rng.standard_normal(20000)
        sketch = QuantileSketch(k=128)
        for chunk in np.array_split(values, 37):
            sketch.update(chunk)
        assert sketch.count == values.size
        for q in (0.1, 0.5, 0.9, 0.99):
            estimate = sketch.query(q)
            # Rank of the estimate must be within a few k-ths of q.
            rank = np.mean(values <= estimate)
            assert abs(rank - q) < 0.05

    def test_merge_preserves_count_and_accuracy(self, rng):
        values = rng.standard_normal(8000)
        parts = np.array_split(values, 3)
        sketches = [QuantileSketch(k=128).update(p) for p in parts]
        left = QuantileSketch(k=128)
        left.merge(sketches[0]).merge(sketches[1]).merge(sketches[2])
        assert left.count == values.size
        for q in (0.25, 0.75):
            rank = np.mean(values <= left.query(q))
            assert abs(rank - q) < 0.05

    def test_state_roundtrip(self, rng):
        sketch = QuantileSketch(k=64).update(rng.standard_normal(1000))
        clone = QuantileSketch.from_state(sketch.state())
        assert clone.query(0.5) == sketch.query(0.5)
        assert clone.count == sketch.count


# ----------------------------------------------------------------------
# Bit-identity across worker counts (the headline contract).
# ----------------------------------------------------------------------
class TestWorkerCountInvariance:
    WORKER_COUNTS = (1, 2, 8)

    def test_montecarlo_spec_bitwise_identical(self, session):
        spec_of = lambda w: MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=5,
            execution=Execution(shard_size=128, workers=w),
        )
        results = {}
        for workers in self.WORKER_COUNTS:
            results[workers] = session.run(spec_of(workers)).payload
        reference = results[1]
        for workers in self.WORKER_COUNTS[1:]:
            for target in reference.samples:
                np.testing.assert_array_equal(
                    results[workers].samples[target],
                    reference.samples[target],
                    err_msg=f"{target} differs at {workers} workers",
                )

    def test_importance_spec_bitwise_identical(self, session, technology):
        model = technology["nmos"].statistical
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        threshold = float(np.asarray(model.nominal.vt0)) + 3.0 * sigma_vt
        spec_of = lambda w: ImportanceSampling(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 3.0},
            n_samples=2000, w_nm=600.0, l_nm=40.0, fail_below=False,
            execution=Execution(shard_size=500, workers=w),
        )
        estimates = [
            session.run(spec_of(w)).payload for w in self.WORKER_COUNTS
        ]
        for estimate in estimates[1:]:
            assert estimate.probability == estimates[0].probability
            assert estimate.std_error == estimates[0].std_error
            assert estimate.effective_samples == estimates[0].effective_samples

    def test_factory_map_bitwise_identical(self, session):
        values = {}
        for workers in self.WORKER_COUNTS:
            values[workers], info = session.map_mc(
                _vt0_work, 512, seed_offset=9,
                execution=Execution(shard_size=128, workers=workers),
            )
            assert info.n_shards == 4
        np.testing.assert_array_equal(values[1], values[2])
        np.testing.assert_array_equal(values[1], values[8])

    def test_graph_arrival_bitwise_identical(self):
        graph = TimingGraph.parallel_chains(
            [[GaussianDelay(10e-12, 1e-12)] * 2 for _ in range(3)]
        )
        outs = [
            monte_carlo_arrival(
                graph, "src", "snk", 1500,
                execution=Execution(shard_size=500, workers=w),
                base_seed=77,
            )
            for w in self.WORKER_COUNTS
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[0], outs[2])

    def test_default_shard_size_is_worker_independent(self, session):
        # Regression: with shard_size unset, the partition must come
        # from the automatic batch-economics sizing, never from the
        # worker count — Execution(workers=1) and Execution(workers=2)
        # share one stream.
        from repro.runtime.sharding import auto_shard_size

        results = {
            w: session.run(MonteCarlo(
                n_samples=2000, w_nm=600.0, seed_offset=3,
                execution=Execution(workers=w),
            ))
            for w in (1, 2)
        }
        assert results[1].runtime.shard_size == results[2].runtime.shard_size
        assert results[1].runtime.shard_size == auto_shard_size(2000) == 200
        assert results[1].runtime.n_shards == 10     # 2000 / auto 200
        np.testing.assert_array_equal(
            results[1].payload.samples["idsat"],
            results[2].payload.samples["idsat"],
        )

    def test_explicit_one_worker_session_matches_two(self, technology):
        # Regression: `--workers 1` (Session(executor=1)) must engage
        # the sharded runtime and draw the same stream as `--workers 2`
        # — the worker count may never pick between legacy and sharded.
        results = {}
        for workers in (1, 2):
            s = Session(technology=technology, seed=20260101,
                        executor=workers)
            try:
                results[workers] = s.run(MonteCarlo(n_samples=1500,
                                                    w_nm=600.0))
            finally:
                s.close()
        assert results[1].runtime is not None
        assert results[2].runtime is not None
        np.testing.assert_array_equal(
            results[1].payload.samples["idsat"],
            results[2].payload.samples["idsat"],
        )

    def test_legacy_path_untouched_by_runtime(self, session, technology):
        # execution=None on a serial session must remain the historical
        # single-stream draw (what the golden figures pin), drawn by the
        # runner's one-shard unsharded plan.
        from repro.stats.montecarlo import target_samples

        result = session.run(MonteCarlo(n_samples=400, w_nm=600.0, seed_offset=2))
        legacy = target_samples(
            technology["nmos"], "vs", 600.0, 40.0, technology.vdd, 400,
            session.rng(2),
        )
        np.testing.assert_array_equal(
            result.payload.samples["idsat"], legacy.samples["idsat"]
        )
        assert result.runtime.n_shards == 1


# ----------------------------------------------------------------------
# The unsharded plan: execution=None is the legacy single-stream draw.
# ----------------------------------------------------------------------
class TestUnshardedPlan:
    """Device Monte-Carlo is pinned to its legacy draw by
    ``test_legacy_path_untouched_by_runtime`` (top level) and
    ``tests/test_sweep.py::test_spawn_points_follow_nested_seed_sequence``
    (under a sweep point's prefix)."""

    def test_plan_draws_the_bare_prefix_stream(self):
        plan = plan_shards(50, None, base_seed=7)
        assert plan.unsharded and plan.n_shards == 1
        np.testing.assert_array_equal(
            plan.shards[0].rng().standard_normal(8),
            np.random.default_rng(7).standard_normal(8),
        )
        nested = plan_shards(50, None, base_seed=7, spawn_prefix=(3,))
        np.testing.assert_array_equal(
            nested.shards[0].rng().standard_normal(8),
            _prefix_rng(7, (3,)).standard_normal(8),
        )
        # Same geometry as the one-shard sharded plan, different stream.
        sharded = plan_shards(50, 50, base_seed=7)
        assert not sharded.unsharded
        assert not np.array_equal(
            sharded.shards[0].rng().standard_normal(8),
            np.random.default_rng(7).standard_normal(8),
        )

    def test_factory_map_is_the_legacy_factory_draw(self, session,
                                                   technology):
        from repro.api import FactoryMap, Sweep
        from repro.cells.factory import MonteCarloDeviceFactory

        def legacy(n_samples, rng):
            return _vt0_work(MonteCarloDeviceFactory(technology, n_samples,
                                                     rng=rng, model="vs"))

        spec = FactoryMap(work=_vt0_work, n_samples=64, seed_offset=6)
        np.testing.assert_array_equal(session.run(spec).payload,
                                      legacy(64, session.rng(6)))
        swept = session.run(Sweep(spec, over={"n_samples": (32, 64)}))
        for j, n_samples in enumerate((32, 64)):
            np.testing.assert_array_equal(
                swept.points[j].payload,
                legacy(n_samples, _prefix_rng(session.seed + 6, (j,))),
            )

    def test_circuit_factory_map_compiles_into_the_session_cache(
        self, technology
    ):
        from repro.cells.factory import MonteCarloDeviceFactory
        from repro.cells.sram import SRAMSpec
        from repro.experiments.fig9_sram_snm import SNMWork

        session = Session(technology=technology, seed=20260101)
        work = SNMWork(SRAMSpec(), technology.vdd, "read")
        values, runtime = session.map_mc(work, 4, seed_offset=8)
        assert runtime.n_shards == 1
        # The two forced half-cell topologies compile into the session's
        # own cache, as the pre-runtime single-factory path did.
        assert session.plan_cache.stats()["structural_compiles"] == 2
        legacy = work(session.equip(MonteCarloDeviceFactory(
            technology, 4, rng=session.rng(8), model="vs")))
        np.testing.assert_array_equal(values, legacy)

    def test_importance_matches_the_batch_estimator(self, session,
                                                   technology):
        from repro.stats.importance import estimate_failure_probability

        model = technology["nmos"].statistical
        threshold = float(np.asarray(model.nominal.vt0)) + 0.05
        kwargs = dict(w_nm=600.0, l_nm=40.0, fail_below=False)
        got = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 2.0},
            n_samples=500, seed_offset=5, **kwargs,
        )).payload
        want = estimate_failure_probability(
            model, _vt0_metric, threshold, {"vt0": 2.0}, 500,
            session.rng(5), **kwargs,
        )
        assert want.n_failures > 0
        assert got.probability == want.probability
        assert got.effective_samples == want.effective_samples
        assert got.n_failures == want.n_failures
        assert got.n_samples == want.n_samples
        # StreamStats reduces var*n where the batch estimator takes
        # std(ddof=1): the two agree to the last bits only.
        assert got.std_error == pytest.approx(want.std_error, rel=1e-12)

    def test_sharded_checkpoint_is_not_adopted(self, tmp_path):
        import shutil

        from repro.runtime import run_array_task

        prefix = str(tmp_path / "run.ckpt")
        sharded, _, _ = run_array_task(
            _normal_draws, plan_shards(40, 40, base_seed=7),
            SerialExecutor(), checkpoint_path=prefix,
        )
        (sharded_file,) = tmp_path.glob("run.ckpt.*.ckpt")
        unsharded, _, info = run_array_task(
            _normal_draws, plan_shards(40, None, base_seed=7),
            SerialExecutor(), checkpoint_path=prefix,
        )
        assert info.resumed_shards == 0
        np.testing.assert_array_equal(
            unsharded, np.random.default_rng(7).standard_normal(40))
        assert not np.array_equal(unsharded, sharded)
        # Even the sharded state planted under the unsharded file name is
        # refused rather than adopted.
        (unsharded_file,) = set(tmp_path.glob("run.ckpt.*.ckpt")) - {
            sharded_file}
        shutil.copyfile(sharded_file, unsharded_file)
        with pytest.raises(ValueError, match="different run"):
            run_array_task(
                _normal_draws, plan_shards(40, None, base_seed=7),
                SerialExecutor(), checkpoint_path=prefix,
            )

    def test_default_session_runs_carry_runtime_and_telemetry(
        self, technology
    ):
        from repro.api import FactoryMap
        from repro.obs import Tracer

        session = Session(technology=technology, seed=20260101,
                          tracer=Tracer())
        threshold = float(np.asarray(
            technology["nmos"].statistical.nominal.vt0))
        for spec in (
            MonteCarlo(n_samples=50, w_nm=600.0),
            ImportanceSampling(metric=_vt0_metric, threshold=threshold,
                               shifts={"vt0": 1.0}, n_samples=50,
                               w_nm=600.0, l_nm=40.0),
            FactoryMap(work=_vt0_work, n_samples=50),
        ):
            handle = session.submit(spec)
            runtime = handle.result().runtime
            assert runtime.n_shards == 1
            assert runtime.executor == "serial"
            assert "run.wave" in runtime.telemetry["spans"]
            progress = handle.progress()
            assert (progress.completed, progress.total) == (1, 1)
            assert progress.unit == "shards"
            assert handle.partial()["n_samples"] == 50


# ----------------------------------------------------------------------
# Executors.
# ----------------------------------------------------------------------
class TestExecutors:
    def test_resolve(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        parallel = resolve_executor(3)
        assert isinstance(parallel, ParallelExecutor)
        assert parallel.workers == 3
        assert resolve_executor(parallel) is parallel
        parallel.close()

    def test_unpicklable_task_degrades_to_identical_serial(self, session,
                                                           technology):
        model = technology["nmos"].statistical
        sigma_vt = model.sigmas(600.0, 40.0)["vt0"]
        threshold = float(np.asarray(model.nominal.vt0)) + 3.0 * sigma_vt
        base = dict(
            threshold=threshold, shifts={"vt0": 3.0}, n_samples=1000,
            w_nm=600.0, l_nm=40.0, fail_below=False,
        )
        execution = Execution(shard_size=250, workers=2)
        picklable = session.run(ImportanceSampling(
            metric=_vt0_metric, execution=execution, **base))
        closure = session.run(ImportanceSampling(
            metric=lambda params: np.asarray(params.vt0),
            execution=execution, **base))
        assert closure.runtime.degraded is not None
        assert picklable.runtime.degraded is None
        assert closure.payload.probability == picklable.payload.probability

    def test_degradation_counted_and_warned_once(self, technology,
                                                 monkeypatch):
        import logging

        from repro.runtime import executors

        monkeypatch.setattr(executors, "_DEGRADATION_WARNED", set())
        records = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.runtime.executors")
        logger.addHandler(handler)
        spec = FactoryMap(
            work=lambda factory: factory.rng.normal(size=factory.n_samples),
            n_samples=64,
        )
        serial = Session(technology=technology, seed=11, executor=1)
        parallel = Session(technology=technology, seed=11, executor=2)
        try:
            expected = serial.run(spec)
            before = _degradations("process-pool")
            runs = [parallel.run(spec) for _ in range(2)]
        finally:
            logger.removeHandler(handler)
            parallel.close()
            serial.close()
        assert _degradations("process-pool") == before + 2
        # One structured warning per executor kind per process; the
        # reason text rides on the envelope, never on the metric.
        assert [r.getMessage() for r in records] == ["executor.degraded"]
        assert records[0].event_fields == {"executor": "process-pool"}
        for run in runs:
            assert run.runtime.degraded.startswith("task not picklable")
            np.testing.assert_array_equal(run.payload, expected.payload)


def _degradations(executor: str) -> float:
    family = default_registry().snapshot().get(
        "repro_executor_degradations_total")
    if not family:
        return 0.0
    return sum(series["value"] for series in family["series"]
               if series["labels"] == {"executor": executor})


# ----------------------------------------------------------------------
# Adaptive stopping.
# ----------------------------------------------------------------------
class TestAdaptiveStopping:
    def test_sigma_rule_stops_early_and_worker_invariant(self, session):
        execution_of = lambda w: Execution(
            shard_size=200, workers=w, target_rel_err=0.05, wave_size=1,
        )
        results = [
            session.run(MonteCarlo(n_samples=20000, w_nm=600.0,
                                   execution=execution_of(w)))
            for w in (1, 2)
        ]
        for result in results:
            assert result.runtime.stopped_early
            # 1/sqrt(2(n-1)) <= 0.05 needs n >= 201 -> exactly 2 waves.
            assert result.runtime.shards_run == 2
            assert result.n_samples == 400
        np.testing.assert_array_equal(
            results[0].payload.samples["idsat"],
            results[1].payload.samples["idsat"],
        )

    def test_sample_cap(self, session):
        result = session.run(MonteCarlo(
            n_samples=5000, w_nm=600.0,
            execution=Execution(shard_size=100, max_samples=300, wave_size=1),
        ))
        assert result.runtime.stopped_early
        assert result.n_samples == 300
        assert "cap" in result.runtime.stop_reason

    def test_sample_accounting_counts_rows_not_elements(self, session):
        # Regression: a (n, 3) work output must count n samples toward
        # min/max_samples, not 3n — the cap here permits 600 samples and
        # must not fire after 200.
        values, info = session.map_mc(
            _multicolumn_work, 1000, seed_offset=9,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=600),
        )
        assert values.shape == (600, 3)
        assert info.n_samples == 600

    def test_min_samples_floor(self, session):
        result = session.run(MonteCarlo(
            n_samples=3000, w_nm=600.0,
            execution=Execution(shard_size=100, target_rel_err=0.2,
                                min_samples=900, wave_size=1),
        ))
        # rel err 0.2 is met after ~14 samples; the floor forces 900.
        assert result.n_samples >= 900

    def test_probability_rule_keeps_sampling_with_zero_failures(
            self, session, technology):
        model = technology["nmos"].statistical
        # Unreachable threshold: no failures ever, relative error stays
        # inf, so only the cap stops the run.
        threshold = float(np.asarray(model.nominal.vt0)) - 1.0
        result = session.run(ImportanceSampling(
            metric=_vt0_metric, threshold=threshold, shifts={"vt0": 2.0},
            n_samples=2000, w_nm=600.0, l_nm=40.0, fail_below=True,
            execution=Execution(shard_size=100, target_rel_err=0.5,
                                max_samples=500, wave_size=1),
        ))
        assert result.payload.probability == 0.0
        assert result.payload.relative_error == np.inf
        assert result.n_samples == 500
        assert "cap" in result.runtime.stop_reason

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            StopRule(metric="nonsense")
        with pytest.raises(ValueError):
            StopRule(target_rel_err=-1.0)
        with pytest.raises(ValueError):
            Execution(workers=0)
        with pytest.raises(ValueError):
            Execution(shard_size=-5)

    def test_session_rejects_nonpositive_workers(self, technology):
        with pytest.raises(ValueError, match=">= 1"):
            Session(technology=technology, executor=0)


# ----------------------------------------------------------------------
# Checkpoint / resume.
# ----------------------------------------------------------------------
class TestCheckpoint:
    def test_resume_is_bit_identical_to_uninterrupted(self, session,
                                                      tmp_path):
        prefix = str(tmp_path / "mc.ckpt")
        shard = Execution(shard_size=100, wave_size=1)
        # Phase 1: run the first 300 samples, then "crash".
        partial = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=300, checkpoint=prefix),
        ))
        assert partial.runtime.stopped_early
        files = sorted(tmp_path.glob("mc.ckpt.*.ckpt"))
        assert len(files) == 1
        assert load_checkpoint(str(files[0])).shards_done == 3
        # Phase 2: resume to completion.
        resumed = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                checkpoint=prefix),
        ))
        assert resumed.runtime.resumed_shards == 3
        uninterrupted = session.run(MonteCarlo(
            n_samples=1000, w_nm=600.0, seed_offset=4, execution=shard,
        ))
        np.testing.assert_array_equal(
            resumed.payload.samples["idsat"],
            uninterrupted.payload.samples["idsat"],
        )

    def test_distinct_workloads_share_a_prefix_without_collision(
            self, session, tmp_path):
        # Regression: multi-stage experiments hand every stage one
        # checkpoint prefix.  Different workloads (models, seeds) must
        # land in distinct files — no crash, no cross-resume — and a
        # completed run must short-circuit on rerun.
        prefix = str(tmp_path / "stages.ckpt")
        spec_of = lambda model, offset: MonteCarlo(
            n_samples=300, w_nm=600.0, seed_offset=offset, model=model,
            execution=Execution(shard_size=100, checkpoint=prefix),
        )
        vs_run = session.run(spec_of("vs", 4))
        bsim_run = session.run(spec_of("bsim", 4))
        other_seed = session.run(spec_of("vs", 5))
        assert len(list(tmp_path.glob("stages.ckpt.*.ckpt"))) == 3
        assert not np.array_equal(vs_run.payload.samples["idsat"],
                                  bsim_run.payload.samples["idsat"])
        # Rerun of a completed stage restores all shards from disk.
        rerun = session.run(spec_of("vs", 4))
        assert rerun.runtime.resumed_shards == 3
        np.testing.assert_array_equal(rerun.payload.samples["idsat"],
                                      vs_run.payload.samples["idsat"])
        assert other_seed.runtime.resumed_shards == 0

    def test_multistage_experiment_with_checkpoint_prefix(self, session,
                                                          tmp_path):
        # Regression: fig3 runs one sharded MC per width; with a shared
        # checkpoint prefix every width must checkpoint independently.
        from repro.experiments.fig3_idsat_mismatch import run as fig3_run

        result = fig3_run(
            widths_nm=(120.0, 300.0), n_samples=200, session=session,
            execution=Execution(shard_size=100,
                                checkpoint=str(tmp_path / "fig3.ckpt")),
        )
        assert result.total_mc.shape == (2,)
        assert len(list(tmp_path.glob("fig3.ckpt.*.ckpt"))) == 2

    def test_polarity_and_mode_get_distinct_checkpoints(self, session,
                                                        tmp_path):
        # The content-hash fingerprint must discriminate workload
        # parameters beyond geometry/model — here polarity at otherwise
        # identical specs (the nmos/pmos collision a name-only label
        # would miss).
        prefix = str(tmp_path / "pol.ckpt")
        spec_of = lambda polarity: MonteCarlo(
            n_samples=300, w_nm=600.0, seed_offset=4, polarity=polarity,
            execution=Execution(shard_size=100, checkpoint=prefix),
        )
        nmos = session.run(spec_of("nmos"))
        pmos = session.run(spec_of("pmos"))
        assert len(list(tmp_path.glob("pol.ckpt.*.ckpt"))) == 2
        assert not np.array_equal(nmos.payload.samples["idsat"],
                                  pmos.payload.samples["idsat"])

    def test_corrupted_checkpoint_task_is_rejected(self, session, tmp_path):
        # A checkpoint whose stored task disagrees with the filename
        # fingerprint (corruption, hand-editing) must refuse to resume
        # rather than silently feed foreign payloads.
        from dataclasses import replace

        from repro.runtime import save_checkpoint

        prefix = str(tmp_path / "mc.ckpt")
        execution = Execution(shard_size=100, wave_size=1, max_samples=100,
                              checkpoint=prefix)
        session.run(MonteCarlo(n_samples=400, w_nm=600.0, seed_offset=4,
                               execution=execution))
        (path,) = tmp_path.glob("mc.ckpt.*.ckpt")
        checkpoint = load_checkpoint(str(path))
        save_checkpoint(str(path), replace(checkpoint,
                                           task="some-other-workload"))
        with pytest.raises(ValueError, match="different run"):
            session.run(MonteCarlo(
                n_samples=400, w_nm=600.0, seed_offset=4,
                execution=Execution(shard_size=100, wave_size=1,
                                    checkpoint=prefix),
            ))

    def test_checkpointing_refuses_unpicklable_tasks(self, session,
                                                     technology, tmp_path):
        # A closure metric cannot be content-fingerprinted; silently
        # falling back to a type-name label would let same-type
        # workloads adopt each other's checkpoints, so refuse loudly.
        model = technology["nmos"].statistical
        threshold = float(np.asarray(model.nominal.vt0))
        with pytest.raises(ValueError, match="picklable"):
            session.run(ImportanceSampling(
                metric=lambda params: np.asarray(params.vt0),
                threshold=threshold, shifts={"vt0": 2.0}, n_samples=300,
                w_nm=600.0, l_nm=40.0,
                execution=Execution(shard_size=100,
                                    checkpoint=str(tmp_path / "is.ckpt")),
            ))

    def test_changed_wave_size_starts_fresh(self, session, tmp_path):
        # Adaptive-stopping boundaries depend on the wave size, so a
        # resume under a different wave_size must not adopt the old
        # state (it could stop where no uninterrupted run would).
        prefix = str(tmp_path / "mc.ckpt")
        session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=1,
                                max_samples=200, checkpoint=prefix),
        ))
        rerun = session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, seed_offset=4,
            execution=Execution(shard_size=100, wave_size=2,
                                max_samples=200, checkpoint=prefix),
        ))
        assert rerun.runtime.resumed_shards == 0
        assert len(list(tmp_path.glob("mc.ckpt.*.ckpt"))) == 2


# ----------------------------------------------------------------------
# Runner plumbing and envelope metadata.
# ----------------------------------------------------------------------
class TestRunnerAndEnvelope:
    def test_stop_without_accumulator_raises(self):
        plan = plan_shards(100, 10, base_seed=0)
        with pytest.raises(ValueError, match="accumulate"):
            run_sharded(lambda s: s.n_samples, plan, SerialExecutor(),
                        stop=StopRule(max_samples=50))

    def test_runtime_metadata_serializes(self, session):
        result = session.run(MonteCarlo(
            n_samples=300, w_nm=600.0,
            execution=Execution(shard_size=100, workers=2),
        ))
        import json

        blob = json.loads(result.to_json(include_payload=False))
        assert blob["runtime"]["workers"] == 2
        assert blob["runtime"]["n_shards"] == 3
        assert blob["runtime"]["executor"] == "process-pool"
        assert blob["meta"]["streamed_sigmas"]["idsat"] > 0.0

    def test_streamed_sigma_matches_materialized(self, session):
        result = session.run(MonteCarlo(
            n_samples=600, w_nm=600.0, execution=Execution(shard_size=128),
        ))
        streamed = result.meta["streamed_sigmas"]["idsat"]
        assert streamed == pytest.approx(result.payload.sigma("idsat"),
                                         rel=1e-9)

    def test_session_default_execution_from_workers(self, technology):
        parallel = Session(technology=technology, executor=2, shard_size=128)
        try:
            serial_sharded = Session(technology=technology, shard_size=128)
            a = parallel.run(MonteCarlo(n_samples=300, w_nm=600.0))
            b = serial_sharded.run(MonteCarlo(n_samples=300, w_nm=600.0))
            assert a.runtime.workers == 2
            assert b.runtime.workers == 1
            np.testing.assert_array_equal(
                a.payload.samples["idsat"], b.payload.samples["idsat"]
            )
        finally:
            parallel.close()


# ----------------------------------------------------------------------
# TargetAccumulator (streamed MC statistics).
# ----------------------------------------------------------------------
class TestTargetAccumulator:
    def test_update_and_merge_track_per_target_stats(self, rng):
        samples_a = {"idsat": rng.standard_normal(200),
                     "cgg": rng.standard_normal(200)}
        samples_b = {"idsat": rng.standard_normal(300),
                     "cgg": rng.standard_normal(300)}
        left = TargetAccumulator().update(samples_a)
        right = TargetAccumulator().update(samples_b)
        left.merge(right)
        everything = np.concatenate([samples_a["idsat"], samples_b["idsat"]])
        assert left.n_samples == 500
        assert left.stats["idsat"].std() == pytest.approx(
            np.std(everything, ddof=1), rel=1e-9
        )
        assert np.isfinite(left.sigma_relative_error())
        roundtrip = TargetAccumulator.from_state(left.state())
        assert roundtrip.stats["idsat"].state() == left.stats["idsat"].state()
