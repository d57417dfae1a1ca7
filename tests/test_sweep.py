"""The sweep combinator + non-blocking Session futures.

Pins the PR-5 contracts: the sweep axis algebra (dotted paths, zipped
axes, nested-sweep flattening, validation), both point-seed contracts
(legacy ``seed_offset + j`` — what keeps the rewritten experiments
golden-stable — and the nested spawn contract
``SeedSequence(base_seed, (j,))`` / inner shards ``(j, i)``),
bit-identity of sweep output at 1/2/8 workers and across sweep shard
sizes, checkpoint/resume across sweep-point boundaries,
``SweepResult.to_json``/``from_json`` round-tripping numpy payloads,
and the ``RunHandle`` future surface (progress, partial snapshots,
cancellation).
"""

from __future__ import annotations

import pickle
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    DCOp,
    Execution,
    FactoryMap,
    MonteCarlo,
    RunCancelled,
    Session,
    Sweep,
    SweepResult,
    sweep_point_offset,
)
from repro.api.serialize import encode
from repro.api.sweep import SweepPointTask
from repro.obs import Tracer
from repro.runtime import SerialExecutor, plan_shards, task_fingerprint

RTOL = 1e-9


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20260701)


@dataclass(frozen=True)
class RngWork:
    """Cheap factory-map workload: one normal draw per sample."""

    scale: float = 1.0

    def __call__(self, factory) -> np.ndarray:
        return self.scale * factory.rng.normal(size=factory.n_samples)


class InlineTwoWorkers(SerialExecutor):
    """In-process executor posing as a 2-worker pool (no processes)."""

    workers = 2
    kind = "inline-2"


@dataclass(frozen=True)
class SlowWork:
    """RngWork with a per-call delay (cancellation tests)."""

    delay_s: float = 0.03

    def __call__(self, factory) -> np.ndarray:
        time.sleep(self.delay_s)
        return factory.rng.normal(size=factory.n_samples)


# ----------------------------------------------------------------------
# Axis algebra + validation.
# ----------------------------------------------------------------------
class TestSweepSpec:
    def test_row_major_point_order_first_axis_slowest(self):
        sweep = Sweep(
            MonteCarlo(n_samples=10),
            over={"w_nm": (300.0, 600.0), "l_nm": (40.0, 60.0, 80.0)},
        )
        assert sweep.shape == (2, 3)
        assert sweep.n_points == 6
        assert sweep.point_values(0) == {"w_nm": 300.0, "l_nm": 40.0}
        assert sweep.point_values(2) == {"w_nm": 300.0, "l_nm": 80.0}
        assert sweep.point_values(3) == {"w_nm": 600.0, "l_nm": 40.0}
        spec = sweep.point_spec(4)
        assert (spec.w_nm, spec.l_nm) == (600.0, 60.0)

    def test_zipped_axis_sets_several_fields(self):
        sweep = Sweep(
            MonteCarlo(n_samples=10),
            over={("w_nm", "l_nm"): ((1500.0, 40.0), (120.0, 45.0))},
        )
        assert sweep.shape == (2,)
        spec = sweep.point_spec(1)
        assert (spec.w_nm, spec.l_nm) == (120.0, 45.0)

    def test_dotted_path_reaches_nested_dataclass(self):
        sweep = Sweep(
            FactoryMap(work=RngWork(1.0), n_samples=8),
            over={"work.scale": (1.0, 2.0)},
        )
        assert sweep.point_spec(1).work.scale == 2.0

    def test_nested_sweeps_flatten_outer_axes_slowest(self):
        inner = Sweep(MonteCarlo(n_samples=10), over={"l_nm": (40.0, 60.0)})
        outer = Sweep(inner, over={"w_nm": (300.0, 600.0)})
        assert outer.shape == (2, 2)
        assert isinstance(outer.spec, MonteCarlo)
        assert outer.point_values(1) == {"w_nm": 300.0, "l_nm": 60.0}

    def test_nested_sweeps_reject_shared_field_paths(self):
        inner = Sweep(MonteCarlo(n_samples=10), over={"w_nm": (100.0, 200.0)})
        with pytest.raises(ValueError, match="twice"):
            Sweep(inner, over={"w_nm": (300.0, 600.0)})

    def test_overlapping_axis_paths_rejected(self):
        """'work' and 'work.scale' cannot both be axes: the broader
        substitution would silently clobber the narrower axis."""
        spec = FactoryMap(work=RngWork(1.0), n_samples=8)
        with pytest.raises(ValueError, match="conflicting"):
            Sweep(spec, over={"work.scale": (1.0, 2.0),
                              "work": (RngWork(3.0), RngWork(4.0))})
        inner = Sweep(spec, over={"work.scale": (1.0, 2.0)})
        with pytest.raises(ValueError, match="conflicting"):
            Sweep(inner, over={"work": (RngWork(3.0),)})

    def test_legacy_points_carry_their_seed_offset(self):
        sweep = Sweep(
            MonteCarlo(n_samples=10, seed_offset=40),
            over={"w_nm": (300.0, 600.0, 900.0)},
            seed_mode="legacy",
        )
        assert [p.seed_offset for p in map(sweep.point_spec, range(3))] == [
            40, 41, 42
        ]
        assert sweep_point_offset(40, 2) == 42

    def test_validation_rejects_bad_inputs(self):
        mc = MonteCarlo(n_samples=10)
        with pytest.raises(ValueError):
            Sweep(mc, over={})
        with pytest.raises(ValueError):
            Sweep(mc, over={"w_nm": ()})
        with pytest.raises(ValueError):
            Sweep(mc, over={"not_a_field": (1.0,)})
        with pytest.raises(ValueError):
            Sweep(mc, over={"w_nm": (-1.0,)})  # point 0 revalidates
        with pytest.raises(ValueError):
            Sweep(mc, over={"w_nm": (300.0,)}, seed_mode="offset")
        with pytest.raises(TypeError):
            Sweep(DCOp(), over={"t": (0.0,)})
        with pytest.raises(ValueError):
            Sweep(mc, over={("w_nm", "l_nm"): ((300.0,),)})
        with pytest.raises(ValueError):
            Sweep(mc, over={"w_nm": (300.0,), ("w_nm", "l_nm"):
                            ((1.0, 2.0),)})
        with pytest.raises(ValueError):
            Sweep(mc, over={"w_nm": (300.0,)},
                  execution=Execution(target_rel_err=0.1))
        with pytest.raises(ValueError):
            Sweep(
                Sweep(mc, over={"l_nm": (40.0,)}, seed_mode="legacy"),
                over={"w_nm": (300.0,)},
            )

    def test_sweep_does_not_take_a_circuit(self, session):
        sweep = Sweep(MonteCarlo(n_samples=4), over={"w_nm": (300.0,)})
        with pytest.raises(ValueError, match="circuit"):
            session.run(sweep, circuit=object())


# ----------------------------------------------------------------------
# Seed contracts.
# ----------------------------------------------------------------------
class TestSeedContracts:
    def test_legacy_points_match_hand_rolled_offsets(self, session):
        sweep = Sweep(
            MonteCarlo(n_samples=60, seed_offset=7),
            over={"w_nm": (300.0, 600.0, 1500.0)},
            seed_mode="legacy",
        )
        result = session.run(sweep)
        for j, w in enumerate((300.0, 600.0, 1500.0)):
            direct = session.run(
                MonteCarlo(n_samples=60, w_nm=w, seed_offset=7 + j)
            )
            np.testing.assert_array_equal(
                result.points[j].payload.samples["idsat"],
                direct.payload.samples["idsat"],
            )
            assert result.points[j].seed == direct.seed

    def test_spawn_points_follow_nested_seed_sequence(self, session):
        from repro.stats.montecarlo import target_samples

        widths = (300.0, 600.0)
        result = session.run(Sweep(
            MonteCarlo(n_samples=40, seed_offset=5), over={"w_nm": widths}
        ))
        base = session.seed + 5
        for j, w in enumerate(widths):
            rng = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(base, spawn_key=(j,))
            ))
            manual = target_samples(
                session.technology["nmos"], "vs", w, 40.0,
                session.technology.vdd, 40, rng,
            )
            np.testing.assert_array_equal(
                result.points[j].payload.samples["idsat"],
                manual.samples["idsat"],
            )
            assert result.points[j].meta["spawn_key"] == (j,)

    def test_spawn_inner_shards_use_point_prefixed_streams(self, session):
        """Inner sharded runs draw shard *i* from spawn_key=(j, i)."""
        from repro.stats.montecarlo import target_samples

        result = session.run(Sweep(
            MonteCarlo(n_samples=50, seed_offset=3,
                       execution=Execution(shard_size=20)),
            over={"w_nm": (300.0, 600.0)},
        ))
        base = session.seed + 3
        for j, w in enumerate((300.0, 600.0)):
            chunks = []
            for i, n in enumerate((20, 20, 10)):
                rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(base, spawn_key=(j, i))
                ))
                chunks.append(target_samples(
                    session.technology["nmos"], "vs", w, 40.0,
                    session.technology.vdd, n, rng,
                ).samples["idsat"])
            np.testing.assert_array_equal(
                result.points[j].payload.samples["idsat"],
                np.concatenate(chunks),
            )

    def test_single_point_sweep_is_the_identity(self, session):
        spec = MonteCarlo(n_samples=30, w_nm=600.0, seed_offset=9)
        for seed_mode in ("spawn", "legacy"):
            sweep = session.run(
                Sweep(spec, over={"w_nm": (600.0,)}, seed_mode=seed_mode)
            )
            direct = session.run(spec)
            np.testing.assert_array_equal(
                sweep.points[0].payload.samples["idsat"],
                direct.payload.samples["idsat"],
            )

    def test_factory_map_legacy_matches_map_mc(self, session):
        """FactoryMap sweep points replay the legacy map_mc draws."""
        sweep = session.run(Sweep(
            FactoryMap(work=RngWork(1.0), n_samples=32, seed_offset=11),
            over={"work.scale": (1.0, 3.0)},
            seed_mode="legacy",
        ))
        for j, scale in enumerate((1.0, 3.0)):
            legacy, _ = session.map_mc(RngWork(scale), 32,
                                       seed_offset=11 + j)
            np.testing.assert_array_equal(sweep.points[j].payload, legacy)


# ----------------------------------------------------------------------
# Scheduling invariance (the acceptance criterion).
# ----------------------------------------------------------------------
class TestSchedulingInvariance:
    WORKER_COUNTS = (1, 2, 8)

    def _sweep(self, execution=None) -> Sweep:
        return Sweep(
            MonteCarlo(n_samples=80, seed_offset=2),
            over={"w_nm": (300.0, 600.0, 900.0, 1500.0)},
            execution=execution,
        )

    def test_bit_identical_at_1_2_8_workers(self, session):
        serial = session.run(self._sweep())
        for workers in self.WORKER_COUNTS:
            parallel = Session(technology=session.technology,
                               seed=session.seed, executor=workers)
            try:
                swept = parallel.run(self._sweep())
            finally:
                parallel.close()
            assert swept.runtime is not None
            assert swept.runtime.workers == workers
            for a, b in zip(serial.points, swept.points):
                np.testing.assert_array_equal(
                    a.payload.samples["idsat"], b.payload.samples["idsat"]
                )

    def test_serial_sweep_runs_one_point_per_shard(self, session):
        runtime = session.run(self._sweep()).runtime
        assert (runtime.executor, runtime.workers, runtime.shard_size,
                runtime.n_shards, runtime.shards_run) == (
                    "serial", 1, 1, 4, 4)

    def test_in_process_points_run_on_the_submitting_session(
        self, technology
    ):
        traced = Session(technology=technology, seed=5, tracer=Tracer())
        swept = traced.run(self._sweep(Execution(workers=1, shard_size=2)))
        # Every point went through the traced session's own dispatch
        # (a worker-local session would carry no tracer).
        assert all(point.runtime.telemetry is not None
                   for point in swept.points)

    def test_only_worker_side_points_are_pinned_to_one_worker(
        self, technology
    ):
        session = Session(technology=technology, seed=5,
                          executor=InlineTwoWorkers())
        sweep = Sweep(
            MonteCarlo(n_samples=20, execution=Execution(workers=2)),
            over={"w_nm": (300.0, 600.0)},
        )
        # In the submitting process points keep their own execution.
        swept = session.run(sweep)
        assert swept.runtime.executor == "inline-2"
        assert [p.runtime.workers for p in swept.points] == [2, 2]
        # A task that crossed a process boundary pins every point.
        task = SweepPointTask(
            technology=technology, sweep=sweep, root_seed=5,
            backend=session.backend, session=session,
        )
        worker_side = pickle.loads(pickle.dumps(task))
        (shard,) = plan_shards(2, 2, swept.seed)
        points = worker_side(shard)
        assert [p.runtime.workers for p in points] == [1, 1]
        for a, b in zip(swept.points, points):
            np.testing.assert_array_equal(a.payload.samples["idsat"],
                                          b.payload.samples["idsat"])

    def test_bit_identical_across_sweep_shard_sizes(self, session):
        reference = session.run(self._sweep())
        for shard_size in (1, 2, 3, 4):
            swept = session.run(
                self._sweep(Execution(shard_size=shard_size))
            )
            assert swept.runtime.shard_size == shard_size
            for a, b in zip(reference.points, swept.points):
                np.testing.assert_array_equal(
                    a.payload.samples["idsat"], b.payload.samples["idsat"]
                )

    def test_session_sample_shard_size_is_not_points_per_shard(
        self, technology
    ):
        """--shard-size is sample granularity; a sweep inheriting the
        session default must still plan one point per shard, not fold
        the whole grid into one serialized shard."""
        parallel = Session(technology=technology, seed=5, executor=2,
                           shard_size=512)
        try:
            swept = parallel.run(self._sweep())
        finally:
            parallel.close()
        assert swept.runtime.shard_size == 1
        assert swept.runtime.n_shards == 4

    def test_session_default_is_absorbed_by_the_sweep_not_the_points(
        self, technology
    ):
        """--workers must parallelize the sweep without re-sharding the
        inner runs: every point keeps its serial legacy stream."""
        serial = Session(technology=technology, seed=77)
        parallel = Session(technology=technology, seed=77, executor=2)
        try:
            sweep = Sweep(
                MonteCarlo(n_samples=40, seed_offset=4),
                over={"w_nm": (300.0, 600.0)},
                seed_mode="legacy",
            )
            swept = parallel.run(sweep)
            assert swept.runtime is not None  # the sweep fanned out...
            for j, point in enumerate(swept.points):
                # ...the points ran unsharded on the serial executor.
                assert point.runtime.n_shards == 1
                assert point.runtime.executor == "serial"
                direct = serial.run(
                    MonteCarlo(n_samples=40, w_nm=(300.0, 600.0)[j],
                               seed_offset=4 + j)
                )
                np.testing.assert_array_equal(
                    point.payload.samples["idsat"],
                    direct.payload.samples["idsat"],
                )
        finally:
            parallel.close()
            serial.close()


# ----------------------------------------------------------------------
# Checkpoint/resume across sweep-point boundaries.
# ----------------------------------------------------------------------
class TestSweepCheckpoint:
    def _sweep(self, execution) -> Sweep:
        return Sweep(
            MonteCarlo(n_samples=50, seed_offset=6),
            over={"w_nm": (300.0, 600.0, 900.0, 1500.0)},
            execution=execution,
        )

    def test_resume_is_bit_identical_to_uninterrupted(self, session,
                                                      tmp_path):
        prefix = str(tmp_path / "sweep.ckpt")
        uninterrupted = session.run(self._sweep(Execution(shard_size=1)))

        # Phase 1: point cap stops the sweep after 2 of 4 points,
        # leaving a checkpoint at the wave boundary.
        capped = session.run(self._sweep(Execution(
            shard_size=1, wave_size=1, max_samples=2, checkpoint=prefix,
        )))
        assert len(capped.points) == 2
        assert capped.runtime.stopped_early
        assert capped.meta["stop_reason"] == capped.runtime.stop_reason
        files = list(Path(tmp_path).glob("sweep.ckpt.*.ckpt"))
        assert len(files) == 1

        # Phase 2: the same sweep without the cap resumes mid-grid.
        resumed = session.run(self._sweep(Execution(
            shard_size=1, wave_size=1, checkpoint=prefix,
        )))
        assert resumed.runtime.resumed_shards == 2
        assert resumed.complete
        for a, b in zip(uninterrupted.points, resumed.points):
            np.testing.assert_array_equal(
                a.payload.samples["idsat"], b.payload.samples["idsat"]
            )

    def test_session_is_not_part_of_the_task_fingerprint(self, session):
        bare = SweepPointTask(
            technology=session.technology, sweep=self._sweep(None),
            root_seed=session.seed, backend=session.backend,
        )
        attached = replace(bare, session=session)
        assert attached.session is session
        assert task_fingerprint(attached) == task_fingerprint(bare)
        assert pickle.loads(pickle.dumps(attached)).session is None

    def test_sweep_spec_discriminates_checkpoints(self, session, tmp_path):
        """Two different sweeps sharing a prefix land in distinct files."""
        prefix = str(tmp_path / "shared.ckpt")
        session.run(self._sweep(Execution(shard_size=1, checkpoint=prefix)))
        other = Sweep(
            MonteCarlo(n_samples=50, seed_offset=6, polarity="pmos"),
            over={"w_nm": (300.0, 600.0, 900.0, 1500.0)},
            execution=Execution(shard_size=1, checkpoint=prefix),
        )
        session.run(other)
        assert len(list(Path(tmp_path).glob("shared.ckpt.*.ckpt"))) == 2


# ----------------------------------------------------------------------
# SweepResult envelope.
# ----------------------------------------------------------------------
class TestSweepResult:
    def test_json_round_trip_with_numpy_payloads(self, session):
        result = session.run(Sweep(
            FactoryMap(work=RngWork(1.0), n_samples=16, seed_offset=1),
            over={"work.scale": (1.0, 2.0), "model": ("vs", "bsim")},
            seed_mode="legacy",
        ))
        back = SweepResult.from_json(result.to_json())
        assert isinstance(back.spec, Sweep)
        assert back.spec.seed_mode == "legacy"
        assert back.shape == (2, 2)
        assert back.seed == result.seed
        for a, b in zip(result.points, back.points):
            assert isinstance(b.payload, np.ndarray)
            np.testing.assert_array_equal(a.payload, b.payload)
            assert b.spec == a.spec
        # The decoded spec is live: it re-enumerates its own grid.
        assert back.coords(3) == {"work.scale": 2.0, "model": "bsim"}

    def test_round_trip_preserves_non_finite_values(self, session):
        result = session.run(Sweep(
            MonteCarlo(n_samples=12, seed_offset=2),
            over={"w_nm": (300.0,)},
        ))
        # Graft a NaN/inf payload through the meta channel.
        result.points[0].meta["weird"] = np.array([np.nan, np.inf, 1.0])
        back = SweepResult.from_json(result.to_json())
        np.testing.assert_array_equal(
            back.points[0].meta["weird"],
            np.array([np.nan, np.inf, 1.0]),
        )

    def test_grid_and_point_lookup(self, session):
        result = session.run(Sweep(
            MonteCarlo(n_samples=30, seed_offset=3),
            over={"w_nm": (300.0, 600.0)},
        ))
        sigma = result.grid(lambda p: p.payload.sigma("idsat"))
        assert sigma.shape == (2,)
        point = result.point(w_nm=600.0)
        assert point.payload.sigma("idsat") == pytest.approx(
            sigma[1], rel=RTOL
        )
        with pytest.raises(KeyError):
            result.point(w_nm=1.0)
        assert result.complete

    def test_from_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            SweepResult.from_json('{"hello": 1}')

    def test_codec_preserves_array_dtypes(self):
        from repro.api.serialize import dumps, loads

        for array in (
            np.array([1.5, np.nan, -np.inf]),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([1 + 2j, 3 - 4j], dtype=np.complex64),
            np.array([1 + 2j], dtype=np.complex128),
        ):
            back = loads(dumps(array))
            assert back.dtype == array.dtype
            np.testing.assert_array_equal(back, array)


# ----------------------------------------------------------------------
# Futures.
# ----------------------------------------------------------------------
class TestFutures:
    def test_submit_result_equals_run(self, session):
        spec = MonteCarlo(n_samples=40, seed_offset=8)
        handle = session.submit(spec)
        blocking = session.run(spec)
        future = handle.result()
        np.testing.assert_array_equal(
            future.payload.samples["idsat"],
            blocking.payload.samples["idsat"],
        )
        assert handle.done() and not handle.running()
        progress = handle.progress()
        assert progress.done and progress.fraction == 1.0

    def test_sweep_progress_counts_points(self, session):
        sweep = Sweep(MonteCarlo(n_samples=20, seed_offset=1),
                      over={"w_nm": (300.0, 600.0, 900.0)})
        handle = session.submit(sweep)
        result = handle.result()
        assert len(result.points) == 3
        progress = handle.progress()
        assert (progress.completed, progress.total) == (3, 3)
        assert progress.unit == "points"

    def test_partial_carries_each_point_once(self, session):
        """The encoded partial of a 3-point sweep (what the service's
        ``GET /jobs/<fp>/partial`` sends) holds each point envelope once,
        not again under the accumulator state."""
        def results_in(document):
            if isinstance(document, dict):
                own = str(document.get("__dataclass__", "")).endswith(
                    ":Result")
                return own + sum(results_in(v) for v in document.values())
            if isinstance(document, list):
                return sum(results_in(v) for v in document)
            return 0

        sweep = Sweep(MonteCarlo(n_samples=20, seed_offset=1),
                      over={"w_nm": (300.0, 600.0, 900.0)})
        handle = session.submit(sweep)
        result = handle.result()
        partial = handle.partial()
        assert [p.payload for p in partial["points"]] == [
            p.payload for p in result.points]
        assert results_in(encode(partial)) == 3

    def test_sharded_partial_snapshots_streamed_state(self, session):
        handle = session.submit(MonteCarlo(
            n_samples=300, seed_offset=2,
            execution=Execution(shard_size=100),
        ))
        result = handle.result(timeout=120.0)
        partial = handle.partial()
        assert partial["n_samples"] == 300
        assert partial["sigmas"]["idsat"] == pytest.approx(
            result.meta["streamed_sigmas"]["idsat"], rel=RTOL
        )

    def test_cancel_mid_sweep_raises_with_partial(self, session):
        sweep = Sweep(
            FactoryMap(work=SlowWork(0.03), n_samples=4),
            over={"model": tuple(["vs"] * 30)},
        )
        handle = session.submit(sweep)
        deadline = time.monotonic() + 30.0
        while handle.progress().completed < 1:
            assert time.monotonic() < deadline, "sweep never progressed"
            time.sleep(0.005)
        assert handle.cancel()
        with pytest.raises(RunCancelled) as excinfo:
            handle.result(timeout=60.0)
        truncated = excinfo.value.partial
        assert truncated is not None
        assert truncated.meta["stop_reason"] == "cancelled"
        assert 1 <= len(truncated.points) < 30
        assert not truncated.complete
        # partial() agrees with the truncated envelope.
        assert len(handle.partial()["points"]) == len(truncated.points)

    def test_cancel_after_completion_is_a_no_op(self, session):
        handle = session.submit(MonteCarlo(n_samples=10))
        handle.result()
        assert handle.cancel() is False
        # Result is still retrievable, not RunCancelled.
        assert handle.result().n_samples == 10

    def test_exceptions_propagate_through_result(self, session):
        handle = session.submit(DCOp())  # circuit-level spec, no circuit
        with pytest.raises(ValueError, match="requires a circuit"):
            handle.result()
        assert handle.done()

    def test_result_timeout(self, session):
        sweep = Sweep(
            FactoryMap(work=SlowWork(0.05), n_samples=4),
            over={"model": tuple(["vs"] * 10)},
        )
        handle = session.submit(sweep)
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)
        handle.result(timeout=60.0)  # drains cleanly afterwards


# ----------------------------------------------------------------------
# Experiment hygiene: the offset arithmetic lives in ONE place.
# ----------------------------------------------------------------------
class TestSeedArithmeticOwnership:
    def test_no_experiment_module_hand_rolls_point_offsets(self):
        """ROADMAP PR-5: per-point streams come from the sweep contract
        (Sweep seed modes or sweep_point_offset), never inline
        ``base + k`` arithmetic."""
        import repro.experiments as experiments

        root = Path(experiments.__file__).parent
        pattern = re.compile(r"seed_offset\s*=\s*\d+\s*[+-]")
        offenders = [
            path.name
            for path in sorted(root.glob("*.py"))
            if pattern.search(path.read_text())
        ]
        assert offenders == []
