"""The public `Session`/`AnalysisSpec` API.

Covers: spec validation, the SeedSequence seed tree (including its
bit-compatibility with the legacy per-experiment seeding), session seed
reproducibility, backend selection/override (compiled vs generic MNA),
the session plan cache, the `Result` envelope's JSON round trip, the
experiment registry, and batched-vs-scalar equivalence of the AC and
DC-sweep analyses driven through `Session.run` (the two analyses
PR 1's equivalence suite left out).
"""

import json

import numpy as np
import pytest

from repro.api import (
    AC,
    DCOp,
    DCSweep,
    ImportanceSampling,
    MonteCarlo,
    PlanCache,
    SeedTree,
    Session,
    Transient,
    load_all,
    names,
)
from repro.cells.factory import RecordingFactory, ScalarReplayFactory
from repro.cells.inverter import InverterSpec, build_inverter_fo
from repro.circuit import (
    DC,
    GROUND,
    Circuit,
    PlanStructure,
    Resistor,
    UnsupportedCircuitError,
    dc_operating_point,
)
from repro.obs import default_registry

RTOL = 1e-9


@pytest.fixture()
def session(technology) -> Session:
    return Session(technology=technology, seed=20250101)


class TestSeedTree:
    def test_matches_legacy_default_rng_streams(self):
        """SeedTree(root).rng(k) must replay default_rng(root + k) exactly
        — the property that keeps the golden figures bit-identical."""
        tree = SeedTree(424242)
        for offset in (0, 1, 31, 400):
            ours = tree.rng(offset).random(8)
            legacy = np.random.default_rng(424242 + offset).random(8)
            np.testing.assert_array_equal(ours, legacy)

    def test_fresh_generator_per_call(self):
        tree = SeedTree(7)
        np.testing.assert_array_equal(tree.rng(3).random(4), tree.rng(3).random(4))

    def test_spawn_children_are_distinct_and_advance(self):
        tree = SeedTree(7)
        a, b = tree.spawn(2)
        (c,) = tree.spawn(1)
        draws = {
            np.random.Generator(np.random.PCG64(s)).random() for s in (a, b, c)
        }
        assert len(draws) == 3


class TestSpecValidation:
    def test_transient_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Transient(t_stop=1e-9, dt=0.0)
        with pytest.raises(ValueError):
            Transient(t_stop=0.0, dt=1e-12, t_start=1e-9)
        with pytest.raises(ValueError):
            Transient(t_stop=1e-9, dt=1e-12, method="rk4")
        with pytest.raises(ValueError):
            Transient(t_stop=1e-9, dt=1e-12, record_every=0)

    @pytest.mark.parametrize("times", [
        {"t_stop": 1e-9, "dt": float("nan")},
        {"t_stop": float("nan"), "dt": 1e-11},
        {"t_stop": float("inf"), "dt": 1e-11},
        {"t_stop": 1e-9, "dt": float("inf")},
        {"t_stop": 1e-9, "dt": 1e-11, "t_start": float("-inf")},
    ])
    def test_transient_rejects_non_finite_times(self, times):
        with pytest.raises(ValueError, match="finite"):
            Transient(**times)

    def test_ac_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AC(frequencies=(), ac_sources=("VIN",))
        with pytest.raises(ValueError):
            AC(frequencies=(1e6,), ac_sources=())
        with pytest.raises(ValueError):
            AC(frequencies=(-1.0,), ac_sources=("VIN",))

    def test_dcsweep_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DCSweep(source="", values=(0.0,))
        with pytest.raises(ValueError):
            DCSweep(source="VF", values=())

    @pytest.mark.parametrize("values", [(0.0, float("nan")),
                                        (0.0, float("inf"), 0.2),
                                        (float("-inf"),)])
    def test_dcsweep_rejects_non_finite_levels(self, values):
        with pytest.raises(ValueError, match="finite"):
            DCSweep(source="VFORCE", values=values)

    def test_montecarlo_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MonteCarlo(n_samples=0)
        with pytest.raises(ValueError):
            MonteCarlo(n_samples=10, model="psp")
        with pytest.raises(ValueError):
            MonteCarlo(n_samples=10, polarity="cmos")

    def test_importance_sampling_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ImportanceSampling(metric=None, threshold=0.0, shifts={"vt0": 1.0})
        with pytest.raises(ValueError):
            ImportanceSampling(metric=lambda p: p.vt0, threshold=0.0, shifts={})

    def test_required_fields_are_required(self):
        with pytest.raises(TypeError):
            Transient()
        with pytest.raises(TypeError):
            AC(frequencies=(1e6,))
        with pytest.raises(TypeError):
            DCSweep(source="VIN")

    def test_backend_field_validated(self):
        with pytest.raises(ValueError):
            DCOp(backend="fortran")
        with pytest.raises(ValueError):
            Session(backend="fortran")

    def test_node_hints_frozen_but_round_trip(self):
        spec = DCOp(node_hints={"out": 0.9, "vdd": 0.9})
        assert isinstance(spec.node_hints, tuple)
        assert spec.hints_dict() == {"out": 0.9, "vdd": 0.9}
        with pytest.raises(AttributeError):
            spec.t = 1.0


class TestSessionSeeding:
    def test_montecarlo_reproducible_at_fixed_seed(self, technology):
        spec = MonteCarlo(n_samples=250, w_nm=600.0, l_nm=40.0, seed_offset=3)
        a = Session(technology=technology, seed=11).run(spec)
        b = Session(technology=technology, seed=11).run(spec)
        np.testing.assert_array_equal(
            a.payload.samples["idsat"], b.payload.samples["idsat"]
        )
        assert a.seed == b.seed == 11 + 3

    def test_seed_override_changes_streams(self, technology):
        spec = MonteCarlo(n_samples=250, seed_offset=3)
        a = Session(technology=technology, seed=11).run(spec)
        b = Session(technology=technology, seed=12).run(spec)
        assert not np.array_equal(
            a.payload.samples["idsat"], b.payload.samples["idsat"]
        )

    def test_rerun_is_stateless(self, session):
        spec = MonteCarlo(n_samples=100, seed_offset=5)
        first = session.run(spec).payload.samples["idsat"]
        second = session.run(spec).payload.samples["idsat"]
        np.testing.assert_array_equal(first, second)


class TestResultEnvelope:
    def test_montecarlo_to_json_round_trip(self, session):
        result = session.run(MonteCarlo(n_samples=50, seed_offset=2))
        decoded = json.loads(result.to_json())
        assert decoded["backend"] == "device"
        assert decoded["n_samples"] == 50
        assert decoded["seed"] == session.seed + 2
        assert decoded["spec"]["kind"] == "MonteCarlo"
        np.testing.assert_allclose(
            decoded["payload"]["samples"]["idsat"],
            result.payload.samples["idsat"],
        )

    def test_payload_can_be_omitted(self, session):
        result = session.run(MonteCarlo(n_samples=10))
        decoded = json.loads(result.to_json(include_payload=False))
        assert "payload" not in decoded
        assert decoded["wall_time_s"] >= 0.0

    def test_complex_payloads_serialize(self, session):
        circuit, hints = build_inverter_fo(
            session.mc_factory(2, seed_offset=9), InverterSpec(), 0.9
        )
        result = session.run(
            AC(frequencies=(1e6, 1e9), ac_sources=("VIN",), node_hints=hints),
            circuit,
        )
        decoded = json.loads(result.to_json())
        phasors = decoded["payload"]["phasors"]
        assert set(phasors) == {"real", "imag"}

    def test_importance_sampling_runs_through_session(self, session):
        nominal_vt0 = float(session.technology.nmos.vs_nominal.vt0)
        result = session.run(
            ImportanceSampling(
                metric=lambda card: np.asarray(card.vt0),
                threshold=nominal_vt0,
                shifts={"vt0": -2.0},
                n_samples=4000,
                w_nm=600.0,
                l_nm=40.0,
            )
        )
        # True probability is exactly 0.5 (threshold at the mean).
        assert 0.35 < result.payload.probability < 0.65
        assert result.backend == "device"


class _OddballResistor(Resistor):
    """Subclass the compiler does not plan (exact-type matching)."""


class TestBackendSelection:
    def _circuit(self, session, n_samples=3, seed_offset=21):
        factory = session.mc_factory(n_samples, seed_offset=seed_offset)
        return build_inverter_fo(factory, InverterSpec(), 0.9)

    def test_session_backend_flows_to_circuits(self, technology):
        generic = Session(technology=technology, backend="generic")
        circuit, hints = self._circuit(generic)
        result = generic.run(DCOp(node_hints=hints), circuit)
        assert result.backend == "generic"
        assert circuit.compiled() is None

    def test_per_spec_override_beats_session(self, technology):
        generic = Session(technology=technology, backend="generic")
        circuit, hints = self._circuit(generic)
        result = generic.run(DCOp(node_hints=hints, backend="compiled"), circuit)
        assert result.backend == "compiled"

    def test_backends_agree_numerically(self, technology):
        solutions = {}
        for backend in ("compiled", "generic"):
            s = Session(technology=technology, backend=backend, seed=77)
            circuit, hints = self._circuit(s)
            solutions[backend] = s.run(DCOp(node_hints=hints), circuit).payload
        np.testing.assert_allclose(
            solutions["compiled"], solutions["generic"], rtol=1e-7, atol=1e-9
        )

    def test_forced_compiled_on_unsupported_netlist_raises(self, session):
        circuit, hints = self._circuit(session)
        circuit.add(_OddballResistor(circuit.node("out"), -1, 1e9, "RX"))
        with pytest.raises(UnsupportedCircuitError):
            session.run(DCOp(node_hints=hints, backend="compiled"), circuit)
        # The per-spec override must not leak onto the circuit: direct
        # (non-session) solves keep working on the auto fallback.
        assert circuit.backend == "auto"
        from repro.circuit import dc_operating_point

        dc_operating_point(circuit)
        # auto falls back to the generic path through the session too.
        result = session.run(DCOp(node_hints=hints), circuit)
        assert result.backend == "generic"


def _custom_element_netlist():
    ckt = Circuit("custom_element")
    ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
    ckt.add(_OddballResistor(ckt.node("a"), ckt.node("b"), 1e3, "RX"))
    ckt.add_resistor("b", GROUND, 1e3, name="R2")
    return ckt


def _floating_source_netlist():
    ckt = Circuit("floating_source")
    ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
    ckt.add_vsource("b", "a", DC(0.5), name="V2")
    ckt.add_resistor("b", GROUND, 1e3, name="R1")
    return ckt


def _fallbacks(reason: str) -> float:
    family = default_registry().snapshot().get(
        "repro_compile_fallbacks_total")
    if not family:
        return 0.0
    return sum(series["value"] for series in family["series"]
               if series["labels"] == {"reason": reason})


class TestCompileFallbacks:
    """Every generic-backend fallback is counted and warned about."""

    CASES = [(_custom_element_netlist, "unsupported_element"),
             (_floating_source_netlist, "floating_source")]

    @pytest.fixture()
    def warnings_seen(self, monkeypatch):
        import logging

        from repro.circuit import compiled

        monkeypatch.setattr(compiled, "_FALLBACK_WARNED", set())
        records = []
        handler = logging.Handler(level=logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.circuit.compiled")
        logger.addHandler(handler)
        yield records
        logger.removeHandler(handler)

    @pytest.mark.parametrize("shared_cache", [False, True])
    @pytest.mark.parametrize("build,reason", CASES)
    def test_fallback_counted_and_still_generic(self, build, reason,
                                                shared_cache, warnings_seen):
        reference = build()
        reference.set_backend("generic")
        expected = dc_operating_point(reference)

        before = {r: _fallbacks(r) for _, r in self.CASES}
        for _ in range(2):
            ckt = build()
            if shared_cache:
                ckt.plan_cache = PlanCache()
            assert ckt.compiled() is None
            np.testing.assert_array_equal(dc_operating_point(ckt), expected)
        for _, other in self.CASES:
            bumped = 2.0 if other == reason else 0.0
            assert _fallbacks(other) == before[other] + bumped
        # One structured warning per reason per process.
        assert [r.getMessage() for r in warnings_seen] == ["compile.fallback"]
        assert warnings_seen[0].event_fields["reason"] == reason

    @pytest.mark.parametrize("build,reason", CASES)
    def test_forced_generic_is_not_a_fallback(self, build, reason,
                                              warnings_seen):
        before = _fallbacks(reason)
        ckt = build()
        ckt.set_backend("generic")
        dc_operating_point(ckt)
        assert _fallbacks(reason) == before
        assert warnings_seen == []

    @pytest.mark.parametrize("second,reason", [
        (("b", "a"), "floating_source"),
        ((GROUND, GROUND), "floating_source"),
        ((GROUND, "a"), "node_pinned_twice"),
    ])
    def test_unplannable_source_topologies(self, second, reason):
        ckt = Circuit()
        ckt.add_vsource("a", GROUND, DC(1.0), name="V1")
        ckt.add_vsource(*second, DC(0.5), name="V2")
        ckt.add_resistor("b", GROUND, 1e3, name="R1")
        with pytest.raises(UnsupportedCircuitError) as info:
            PlanStructure(ckt)
        assert info.value.reason == reason


class TestPlanCache:
    def test_factory_circuits_share_the_session_cache(self, session):
        circuit, _ = TestBackendSelection()._circuit(session)
        assert circuit.plan_cache is session.plan_cache

    def test_repeat_solves_hit_the_cache(self, session):
        circuit, hints = TestBackendSelection()._circuit(session)
        spec = DCOp(node_hints=hints)
        session.run(spec, circuit)
        misses = session.plan_cache.misses
        session.run(spec, circuit)
        assert session.plan_cache.misses == misses
        assert session.plan_cache.hits >= 1

    def test_cache_is_bounded(self, session):
        cache = PlanCache(maxsize=2)
        small = Session(technology=session.technology, plan_cache=cache)
        for k in range(4):
            circuit, hints = TestBackendSelection()._circuit(
                small, seed_offset=30 + k
            )
            small.run(DCOp(node_hints=hints), circuit)
        assert len(cache) <= 2

    def test_entries_die_with_their_circuit(self, session):
        """A collected circuit must not pin its plan (and the batched
        device-parameter arrays inside it) in the session cache."""
        import gc

        circuit, hints = TestBackendSelection()._circuit(session)
        session.run(DCOp(node_hints=hints), circuit)
        size_before = len(session.plan_cache)
        del circuit, hints
        gc.collect()
        assert len(session.plan_cache) == size_before - 1

    def test_concurrent_accounting_is_exact(self, session):
        """Concurrent submit() handles and service job threads share one
        cache: every lookup lands in exactly one counter."""
        import sys
        import threading

        cache = PlanCache()
        n_threads, per_thread, rounds = 4, 20, 2
        # Distinct same-topology circuits: every first lookup misses the
        # id level and lands on the structural level.
        circuits = [
            [TestBackendSelection()._circuit(
                session, n_samples=1, seed_offset=40 + per_thread * t + k)[0]
             for k in range(per_thread)]
            for t in range(n_threads)
        ]
        barrier = threading.Barrier(n_threads, timeout=60)

        def hammer(own):
            barrier.wait()
            for _ in range(rounds):
                for circuit in own:
                    cache.plan_for(circuit)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=hammer, args=(own,))
                       for own in circuits]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == (
            n_threads * per_thread * rounds)
        assert stats["structural_hits"] + stats["structural_compiles"] == (
            stats["misses"])

    def test_equip_adopts_custom_factories(self, technology):
        from repro.cells.factory import NominalDeviceFactory

        class CustomFactory(NominalDeviceFactory):
            """Stand-in for corner/replay factories built by callers."""

        generic = Session(technology=technology, backend="generic")
        factory = generic.equip(CustomFactory(technology, "vs"))
        circuit, hints = build_inverter_fo(factory, InverterSpec(), 0.9)
        result = generic.run(DCOp(node_hints=hints), circuit)
        assert circuit.plan_cache is generic.plan_cache
        assert result.backend == "generic"


class TestACAndDCSweepEquivalence:
    """Batched == scalar for the two analyses PR 1's suite left out,
    driven end to end through `Session.run`."""

    N_SAMPLES = 4

    def _recorded(self, technology, seed_offset):
        session = Session(technology=technology, seed=515)
        recorder = RecordingFactory(
            session.mc_factory(self.N_SAMPLES, seed_offset=seed_offset)
        )
        return session, recorder

    def test_ac_batched_matches_scalar(self, technology):
        spec = InverterSpec()
        ac = AC(
            frequencies=tuple(np.logspace(6, 10, 5)),
            ac_sources=("VIN",),
        )
        session, recorder = self._recorded(technology, seed_offset=51)

        circuit, hints = build_inverter_fo(recorder, spec, technology.vdd)
        batched = session.run(
            AC(frequencies=ac.frequencies, ac_sources=ac.ac_sources,
               node_hints=hints),
            circuit,
        ).payload["out"]
        assert batched.shape == (5, self.N_SAMPLES)

        for k in range(self.N_SAMPLES):
            replay = ScalarReplayFactory(recorder.devices, k)
            c_k, h_k = build_inverter_fo(replay, spec, technology.vdd)
            scalar = session.run(
                AC(frequencies=ac.frequencies, ac_sources=ac.ac_sources,
                   node_hints=h_k),
                c_k,
            ).payload["out"]
            np.testing.assert_allclose(batched[:, k], scalar, rtol=RTOL)

    def test_dcsweep_batched_matches_scalar(self, technology):
        spec = InverterSpec()
        values = tuple(np.linspace(0.0, technology.vdd, 7))
        session, recorder = self._recorded(technology, seed_offset=52)

        circuit, hints = build_inverter_fo(recorder, spec, technology.vdd)
        batched = session.run(
            DCSweep(source="VIN", values=values, node_hints=hints), circuit
        ).payload["out"]
        assert batched.shape == (7, self.N_SAMPLES)

        for k in range(self.N_SAMPLES):
            replay = ScalarReplayFactory(recorder.devices, k)
            c_k, h_k = build_inverter_fo(replay, spec, technology.vdd)
            scalar = session.run(
                DCSweep(source="VIN", values=values, node_hints=h_k), c_k
            ).payload["out"]
            np.testing.assert_allclose(batched[:, k], scalar, rtol=RTOL)

    def test_dcsweep_generic_backend_agrees(self, technology):
        """The same sweep through the forced-generic backend."""
        spec = InverterSpec()
        values = tuple(np.linspace(0.0, technology.vdd, 5))
        results = {}
        for backend in ("compiled", "generic"):
            session = Session(technology=technology, seed=515, backend=backend)
            factory = session.mc_factory(3, seed_offset=53)
            circuit, hints = build_inverter_fo(factory, spec, technology.vdd)
            results[backend] = session.run(
                DCSweep(source="VIN", values=values, node_hints=hints), circuit
            ).payload["out"]
        np.testing.assert_allclose(
            results["compiled"], results["generic"], rtol=1e-7, atol=1e-9
        )


class TestExperimentRegistry:
    def test_all_seventeen_artifacts_registered(self):
        load_all()
        expected = {f"fig{k}" for k in range(1, 10)}
        expected |= {"table2", "table3", "table4", "baseline", "ssta",
                     "charlib", "yield_sram", "yield_dff"}
        assert expected == set(names())

    def test_run_experiment_wraps_result(self, session):
        load_all()
        result = session.run_experiment("fig2", quick=True)
        assert result.experiment == "fig2"
        assert result.seed == session.seed
        assert result.spec.name == "fig2"
        from repro.api.registry import get

        text = get("fig2").report(result.payload)
        assert "Fig. 2" in text

    def test_run_experiment_accepts_overrides(self, session):
        load_all()
        result = session.run_experiment("fig2", polarity="pmos")
        assert result.payload.polarity == "pmos"
        assert dict(result.spec.kwargs)["polarity"] == "pmos"

    def test_unknown_experiment_raises(self, session):
        load_all()
        with pytest.raises(KeyError):
            session.run_experiment("fig99")
