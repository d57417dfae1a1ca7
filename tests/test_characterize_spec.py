"""`Characterize`/`CharacterizeLibrary` specs through `Session.run`.

Covers the grid-point shard contract (tables identical at 1 and 4
workers and across shard sizes), serial bit-identity with the legacy
`characterize_cell`, multi-cell Liberty export consumed by the reader,
Monte-Carlo sigma tables + dropped-sample diagnostics, the table-driven
SSTA loop (`TableDelay` arcs inside `ssta_low_vdd`), the serial grid as
a runner plan (runtime metadata, wave-boundary cancellation, rejected
stopping options), and the grid on the sweeps' point runner (session
plan cache, checkpoint/resume, points per shard from the spec only,
progress in points).
"""

import dataclasses
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import (
    Characterize,
    CharacterizeLibrary,
    Execution,
    RunCancelled,
    Session,
)
from repro.api.plans import PlanCache
from repro.cells import NominalDeviceFactory
from repro.charlib import CharGridTask, characterize_cell, parse_liberty
from repro.charlib.arcs import Arc, ArcAdapter, LibertyCell, get_adapter
from repro.runtime import RunObserver, task_fingerprint

SLEWS = (5e-12, 20e-12)
LOADS = (1e-15, 4e-15)


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20250101)


def _assert_cells_equal(a, b):
    for arc in a.delay:
        np.testing.assert_array_equal(a.delay[arc].values, b.delay[arc].values)
        np.testing.assert_array_equal(a.transition[arc].values,
                                      b.transition[arc].values)
        if a.delay_sigma is not None:
            np.testing.assert_array_equal(a.delay_sigma[arc].values,
                                          b.delay_sigma[arc].values)


class TestSpecValidation:
    def test_unknown_cell_rejected(self):
        with pytest.raises(ValueError, match="unknown cell"):
            Characterize(cell="nor3")
        with pytest.raises(ValueError, match="unknown cell"):
            CharacterizeLibrary(cells=("inv", "nor3"))

    def test_grid_axes_validated(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Characterize(slews=(2e-12, 1e-12))
        with pytest.raises(ValueError, match="positive"):
            Characterize(loads=(0.0, 1e-15))
        with pytest.raises(ValueError, match="non-empty"):
            Characterize(slews=())

    def test_counts_and_model_validated(self):
        with pytest.raises(ValueError):
            Characterize(n_mc=-1)
        with pytest.raises(ValueError):
            Characterize(model="spice")
        with pytest.raises(ValueError, match="at least one cell"):
            CharacterizeLibrary(cells=())

    @pytest.mark.parametrize("option", [{"target_rel_err": 0.05},
                                        {"max_samples": 4}])
    def test_stopping_options_rejected(self, option):
        with pytest.raises(ValueError, match="characterization grid"):
            Characterize(execution=Execution(**option))
        with pytest.raises(ValueError, match="characterization grid"):
            CharacterizeLibrary(execution=Execution(workers=2, **option))

    def test_service_checkpoint_still_accepted(self, tmp_path):
        # The analysis service injects a checkpoint prefix into every
        # job; a grid checkpoints at point-wave boundaries, so a
        # restarted job resumes (TestPointRunner).
        execution = Execution(workers=1, checkpoint=str(tmp_path / "ck"))
        assert Characterize(execution=execution).execution == execution

    def test_requires_no_circuit(self, session):
        from repro.circuit import Circuit

        with pytest.raises(ValueError, match="does not take a circuit"):
            session.run(Characterize(slews=SLEWS, loads=LOADS),
                        Circuit(title="X"))


class TestSerialPath:
    def test_bit_identical_to_characterize_cell(self, session, technology):
        slews = (SLEWS[0],)
        result = session.run(Characterize(cell="inv", slews=slews, loads=LOADS))
        legacy = characterize_cell(
            NominalDeviceFactory(technology, "vs"),
            slews=slews, loads=LOADS,
        )
        for arc in ("tphl", "tplh"):
            np.testing.assert_array_equal(
                result.payload.delay[arc].values, legacy.delay[arc].values
            )
            np.testing.assert_array_equal(
                result.payload.transition[arc].values,
                legacy.transition[arc].values,
            )
        assert (result.runtime.executor, result.runtime.workers,
                result.runtime.shard_size, result.runtime.n_shards) == (
                    "serial", 1, 1, 2)
        assert result.payload.delay_sigma is None
        assert result.meta["grid_points"] == 2
        assert result.meta["diagnostics"] == {}


class TestGridPointShardContract:
    @pytest.fixture(scope="class")
    def runs(self, technology):
        """One tiny MC grid under every execution regime."""
        session = Session(technology=technology, seed=20250101)

        def spec(execution):
            return Characterize(
                cell="inv", slews=(SLEWS[0],), loads=LOADS, n_mc=5,
                execution=execution,
            )

        out = {
            "unsharded": session.run(spec(None)),
            "w1s1": session.run(spec(Execution(workers=1, shard_size=1))),
            "w1s2": session.run(spec(Execution(workers=1, shard_size=2))),
            "w4": session.run(spec(Execution(workers=4))),
        }
        session.close()
        return out

    def test_identical_at_one_and_four_workers(self, runs):
        assert runs["w1s1"].runtime.executor == "serial"
        assert runs["w4"].runtime.executor == "process-pool"
        assert runs["w4"].runtime.workers == 4
        _assert_cells_equal(runs["w1s1"].payload, runs["w4"].payload)

    def test_shard_size_only_changes_scheduling(self, runs):
        # Streams hang off grid-point indices, so even the shard size
        # (unlike the sample-shard contract of PR 3) cannot move a bit.
        assert runs["w1s1"].runtime.n_shards == 2
        assert runs["w1s2"].runtime.n_shards == 1
        _assert_cells_equal(runs["w1s1"].payload, runs["w1s2"].payload)

    def test_sharded_matches_unsharded_serial(self, runs):
        assert runs["unsharded"].runtime.executor == "serial"
        assert runs["unsharded"].runtime.n_shards == 2
        _assert_cells_equal(runs["unsharded"].payload, runs["w1s1"].payload)


class TestLibrary:
    @pytest.fixture(scope="class")
    def library_result(self, technology):
        session = Session(technology=technology, seed=20250101)
        return session.run(CharacterizeLibrary(
            cells=("inv", "nand2", "dff"), slews=SLEWS, loads=(2e-15,),
            name="kit40",
        ))

    def test_covers_all_three_cells(self, library_result):
        library = library_result.payload
        assert [c.name for c in library.cells] == ["INV", "NAND2", "DFF"]
        assert set(library.cell("INV").delay) == {"tphl", "tplh"}
        assert set(library.cell("NAND2").delay) == {"tphl", "tplh"}
        assert set(library.cell("DFF").delay) == {"tpcq_lh", "tpcq_hl"}
        for cell in library.cells:
            for table in cell.delay.values():
                assert np.all(np.isfinite(table.values))
                assert np.all(table.values > 0.0)

    def test_liberty_export_consumed(self, library_result):
        text = library_result.payload.liberty()
        assert text.startswith("library (kit40) {")
        parsed = parse_liberty(text)
        assert set(parsed) == {"INV", "NAND2", "DFF"}
        library = library_result.payload
        np.testing.assert_allclose(
            parsed["NAND2"]["cell_fall"].values,
            library.cell("NAND2").delay["tphl"].values, rtol=1e-5,
        )
        np.testing.assert_allclose(
            parsed["DFF"]["cell_rise"].values,
            library.cell("DFF").delay["tpcq_lh"].values, rtol=1e-5,
        )


@dataclass(frozen=True)
class _HalfDead(ArcAdapter):
    """Adapter dropping half of every Monte-Carlo point's samples."""

    name: str = "FLAKY"

    @property
    def arcs(self):
        return (Arc("tphl", "cell_fall", "fall_transition"),)

    @property
    def liberty(self):
        return LibertyCell(("A",), "Y", "(!A)", "A")

    def measure_point(self, factory, vdd, slew_in, c_load):
        n = factory.batch_shape[0]
        delays = np.linspace(1e-12, 2e-12, n)
        transitions = np.linspace(2e-12, 3e-12, n)
        delays[n // 2:] = np.nan
        return {"tphl": (delays, transitions)}


class TestStatisticalTables:
    def test_sigma_tables_and_diagnostics(self, session):
        result = session.run(Characterize(
            cell=_HalfDead(), slews=SLEWS, loads=LOADS, n_mc=8,
        ))
        timing = result.payload
        assert timing.delay_sigma is not None
        assert np.all(np.isfinite(timing.delay_sigma["tphl"].values))
        diag = result.meta["diagnostics"]
        assert diag["FLAKY.tphl"]["dropped"] == 4 * 4  # 4 points x 4 NaN
        assert len(diag["FLAKY.tphl"]["points"]) == 4
        assert result.n_samples == 8
        assert result.seed is not None

    def test_real_cell_sigma_positive(self, session):
        result = session.run(Characterize(
            cell="inv", slews=(SLEWS[0],), loads=(LOADS[0],), n_mc=6,
        ))
        sigma = result.payload.delay_sigma["tphl"].values
        assert np.all(sigma > 0.0)
        assert result.meta["diagnostics"] == {}


class TestTableDrivenSSTA:
    def test_ssta_low_vdd_runs_on_characterized_tables(self, session):
        from repro.experiments import ssta_low_vdd

        result = ssta_low_vdd.run(
            vdds=(0.9,), n_device_mc=10, n_graph_mc=2000,
            arc_source="table", session=session,
        )
        assert result.arc_source == "table"
        case = result.cases[0]
        assert 1e-12 < case.mc_mean < 1e-9
        # Gaussian table arcs: Clark must track the graph Monte-Carlo.
        assert case.clark_mean == pytest.approx(case.mc_mean, rel=0.05)
        assert "TableDelay" in ssta_low_vdd.report(result)

    def test_invalid_arc_source_rejected(self, session):
        from repro.experiments import ssta_low_vdd

        with pytest.raises(ValueError, match="arc_source"):
            ssta_low_vdd.run(arc_source="liberty", session=session)


class _CancelAfterFirstProgress(RunObserver):
    """Requests cancellation from its first progress callback on."""

    def __init__(self):
        self.calls = []

    def on_progress(self, done, total, accumulator=None, unit="shards"):
        self.calls.append((done, total))

    def should_cancel(self) -> bool:
        return bool(self.calls)


class TestSerialCancellation:
    """A serial grid is a runner plan: cancel lands on a wave boundary."""

    SPEC = Characterize(cell=_HalfDead(), n_mc=4,
                        slews=(1e-12, 2e-12, 3e-12, 4e-12, 5e-12),
                        loads=(1e-15, 2e-15, 3e-15, 4e-15, 5e-15, 6e-15))

    def test_observer_cancel_stops_at_the_first_wave_boundary(self, session):
        observer = _CancelAfterFirstProgress()
        result = session._execute(self.SPEC, observer=observer)
        runtime = result.runtime
        assert (runtime.executor, runtime.workers, runtime.n_shards) == (
            "serial", 1, 30)
        assert runtime.stop_reason == "cancelled" and runtime.stopped_early
        assert 0 < runtime.shards_run < 30
        # One wave ran: the start callback, then the boundary it
        # stopped at.
        assert observer.calls == [(0, 30), (runtime.shards_run, 30)]
        finite = np.isfinite(result.payload.delay["tphl"].values)
        assert finite.sum() == runtime.shards_run

    def test_submit_result_raises_run_cancelled(self, session, monkeypatch):
        from repro.api import futures

        class CancelOnFirstProgress(futures.RunHandle):
            def on_progress(self, *args, **kwargs):
                super().on_progress(*args, **kwargs)
                self.cancel()

        monkeypatch.setattr(futures, "RunHandle", CancelOnFirstProgress)
        handle = session.submit(self.SPEC)
        with pytest.raises(RunCancelled) as excinfo:
            handle.result(timeout=120.0)
        truncated = excinfo.value.partial
        assert truncated.runtime.stop_reason == "cancelled"
        assert 0 < truncated.runtime.shards_run < 30


class _RecordingCanceller(_CancelAfterFirstProgress):
    """Cancels after the first wave and records the progress unit."""

    def on_progress(self, done, total, accumulator=None, unit="shards"):
        self.calls.append((done, total, unit))


def _assert_tables_equal(a, b):
    """Mean and sigma tables of two characterized cells, bitwise."""
    for arc in a.delay:
        for kind in ("delay", "transition", "delay_sigma",
                     "transition_sigma"):
            np.testing.assert_array_equal(getattr(a, kind)[arc].values,
                                          getattr(b, kind)[arc].values)


class TestPointRunner:
    """The grid runs on the sweeps' point runner, with its guarantees."""

    MC_SPEC = Characterize(cell="inv", slews=(5e-12, 20e-12),
                           loads=(1e-15, 2e-15, 4e-15), n_mc=4)

    def test_compiles_into_the_session_plan_cache(self, technology,
                                                  monkeypatch):
        from repro.runtime import tasks

        process_cache = PlanCache()
        monkeypatch.setattr(tasks, "_PROCESS_PLAN_CACHE", process_cache)
        session = Session(technology=technology, seed=20250101)
        session.run(Characterize(cell="inv", slews=(SLEWS[0],), loads=LOADS))
        stats = session.plan_cache.stats()
        # Two points, one testbench topology: one structural compile.
        assert (stats["misses"], stats["structural_compiles"]) == (2, 1)
        assert process_cache.stats() == PlanCache().stats()

    def test_checkpointed_grid_resumes_bit_identically(self, session,
                                                       tmp_path):
        spec = dataclasses.replace(self.MC_SPEC, execution=Execution(
            workers=1, checkpoint=str(tmp_path / "ck")))
        observer = _RecordingCanceller()
        cancelled = session._execute(spec, observer=observer)
        assert cancelled.runtime.stop_reason == "cancelled"
        done = cancelled.runtime.shards_run
        assert 0 < done < 6
        # Progress counts points, as a sweep's does.
        assert observer.calls == [(0, 6, "points"), (done, 6, "points")]
        assert len(list(tmp_path.glob("ck.*.ckpt"))) == 1

        resumed = session.run(spec)
        assert resumed.runtime.resumed_shards == done
        assert (resumed.runtime.shards_run, resumed.runtime.n_shards) == (6, 6)
        assert resumed.runtime.stop_reason is None
        uninterrupted = session.run(
            dataclasses.replace(self.MC_SPEC, execution=None))
        _assert_tables_equal(resumed.payload, uninterrupted.payload)
        assert resumed.meta == uninterrupted.meta

    def test_points_per_shard_ignores_the_session_shard_size(self,
                                                             technology):
        # The session shard size counts samples; a 4-point grid under
        # it must still fan out one point per shard.
        with Session(technology=technology, seed=20250101, executor=2,
                     shard_size=200) as session:
            result = session.run(Characterize(cell="inv", slews=SLEWS,
                                              loads=LOADS))
        runtime = result.runtime
        assert (runtime.executor, runtime.workers) == ("process-pool", 2)
        assert (runtime.shard_size, runtime.n_shards) == (1, 4)

    def test_pickled_task_drops_the_plan_cache(self, technology):
        task = CharGridTask(
            technology=technology, adapters=(get_adapter("inv"),), vdd=0.9,
            slews=SLEWS, loads=LOADS, n_mc=2, base_seed=7,
            plan_cache=PlanCache(),
        )
        assert pickle.loads(pickle.dumps(task)).plan_cache is None
        assert task_fingerprint(task) == task_fingerprint(
            dataclasses.replace(task, plan_cache=None))
