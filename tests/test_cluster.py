"""Tests for the cluster executor (PR 10): coordinator, workers, wire.

The headline invariant: a :class:`~repro.cluster.ClusterExecutor` is
scheduling only.  For every spec family the cluster envelope — at any
worker count, under injected worker death, heartbeat loss, duplicate
frames, or a coordinator crash resumed from checkpoint — is
bit-identical (after ``scrub_envelope``) to ``Session(executor=1)``.
The fault matrix runs on :class:`~repro.cluster.ScriptedFaults` hooks,
never on sleeps: every failure is injected at a deterministic point in
the dispatch path.

The wire tests pin the shared trust boundary (`repro.cluster.wire`):
one allowlist and one frame codec serve both the HTTP service and the
cluster protocol, and the PR-7 dotted-qualname RCE fix holds on the
new framing.
"""

import contextlib
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Characterize, Execution, MonteCarlo, Session, Sweep, Yield
from repro.api.serialize import dumps, encode
from repro.cluster import (
    BadRequest,
    ClusterExecutor,
    ClusterWorkerError,
    CoordinatorCrash,
    ScriptedFaults,
    WorkerAgent,
    WorkerConfig,
    parse_address,
    read_frame,
    restricted_loads,
    validate_document,
    write_frame,
)
from repro.cluster import wire
from repro.obs import Tracer, default_registry
from repro.runtime.executors import ParallelExecutor, resolve_executor
from repro.runtime.sharding import Shard
from repro.service.store import scrub_envelope
from repro.stats import ParameterMetric

SEED = 20260808
SRC = str(Path(__file__).resolve().parent.parent / "src")


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------
def _spec(family, execution=None):
    if family == "montecarlo":
        return MonteCarlo(n_samples=48, execution=execution)
    if family == "sweep":
        return Sweep(MonteCarlo(n_samples=32), over={"w_nm": (600.0, 900.0)},
                     execution=execution)
    if family == "yield":
        return Yield(
            metric=ParameterMetric("vt0"), threshold=-3.0,
            shifts={"vt0": -2.0}, n_samples=192, n_rounds=1,
            n_per_round=128, block_size=64, execution=execution,
        )
    if family == "characterize":
        return Characterize(cell="inv", slews=(5e-12,), loads=(1e-15, 4e-15),
                            execution=execution)
    raise AssertionError(family)


def _norm(result):
    return dumps(scrub_envelope(result))


@contextlib.contextmanager
def _cluster(n_workers=2, names=None, faults=None, allow=("repro",),
             **kwargs):
    """A bound coordinator plus *n_workers* in-process agents."""
    kwargs.setdefault("worker_wait", 60.0)
    executor = ClusterExecutor("tcp://127.0.0.1:0", faults=faults,
                               allow_modules=allow, **kwargs)
    agents = []
    try:
        for i in range(n_workers):
            name = None if names is None else names[i]
            agents.append(WorkerAgent(
                WorkerConfig(connect=executor.address, name=name,
                             allow_modules=allow)
            ).start())
        yield executor, agents
    finally:
        for agent in agents:
            agent.stop()
        executor.close()


class _BoomTask:
    """Shard task that always raises — a workload bug, not a fault."""

    coalesce = True

    def run_chunk(self, shards):
        raise RuntimeError("boom: workload bug")

    def __call__(self, shard):
        raise RuntimeError("boom: workload bug")


class _EchoTask:
    """Shard task echoing shard geometry (cheap protocol exerciser)."""

    coalesce = True

    def run_chunk(self, shards):
        return tuple(
            (s.index, (s.start, s.stop, s.base_seed)) for s in shards
        )

    def __call__(self, shard):
        return self.run_chunk((shard,))[0:1]


def _shards(n, base_seed=42):
    return [
        Shard(index=i, start=i * 10, stop=i * 10 + 10, base_seed=base_seed,
              spawn_prefix=())
        for i in range(n)
    ]


#: Allowlist admitting this test module's own task classes on the wire.
TEST_ALLOW = ("repro", __name__.partition(".")[0])


class _Moduleless:
    """Provenance-free object for the defined-in rejection test."""


_Moduleless.__module__ = None


def _counter_total(name):
    family = default_registry().snapshot().get(name)
    if not family:
        return 0.0
    return sum(series["value"] for series in family["series"])


@pytest.fixture(scope="module")
def golden(technology):
    """Lazily computed serial envelopes, one per spec family."""
    cache = {}

    def get(family):
        if family not in cache:
            with Session(technology=technology, seed=SEED, executor=1) as s:
                cache[family] = _norm(s.run(_spec(family)))
        return cache[family]

    return get


# ----------------------------------------------------------------------
# Wire: frame codec.
# ----------------------------------------------------------------------
class _SockPair:
    def __init__(self):
        self.a, self.b = socket.socketpair()

    def close(self):
        self.a.close()
        self.b.close()


@pytest.fixture()
def pair():
    p = _SockPair()
    yield p
    p.close()


class TestFrameCodec:
    def test_round_trip(self, pair):
        blob = pickle.dumps((1, 2, 3))
        write_frame(pair.a, {"type": "result", "lease": 7}, blob)
        header, got = read_frame(pair.b)
        assert header == {"type": "result", "lease": 7}
        assert got == blob

    def test_empty_blob(self, pair):
        write_frame(pair.a, {"type": "heartbeat"})
        header, blob = read_frame(pair.b)
        assert header["type"] == "heartbeat"
        assert blob == b""

    def test_clean_eof_returns_none(self, pair):
        pair.a.close()
        assert read_frame(pair.b) is None

    def test_mid_frame_eof_raises(self, pair):
        payload = wire._PREFIX.pack(wire._MAGIC, 100, 0)
        pair.a.sendall(payload[: len(payload) - 2] + b'{"')
        pair.a.close()
        with pytest.raises(wire.WireError):
            read_frame(pair.b)

    def test_bad_magic_rejected(self, pair):
        pair.a.sendall(wire._PREFIX.pack(b"EVIL", 2, 0) + b"{}")
        with pytest.raises(wire.WireError, match="magic"):
            read_frame(pair.b)

    def test_oversized_header_rejected(self, pair):
        pair.a.sendall(
            wire._PREFIX.pack(wire._MAGIC, wire.MAX_HEADER_BYTES + 1, 0))
        with pytest.raises(wire.WireError):
            read_frame(pair.b)

    def test_header_must_be_dict_with_type(self, pair):
        body = b'["not", "a", "dict"]'
        pair.a.sendall(wire._PREFIX.pack(wire._MAGIC, len(body), 0) + body)
        with pytest.raises(wire.WireError):
            read_frame(pair.b)

    def test_header_must_be_json(self, pair):
        body = b"\xff\xfe not json"
        pair.a.sendall(wire._PREFIX.pack(wire._MAGIC, len(body), 0) + body)
        with pytest.raises(wire.WireError):
            read_frame(pair.b)


class _ByteStream:
    """Socket stand-in: ``recv`` serves fixed bytes, then EOF."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def recv(self, n: int) -> bytes:
        chunk = self._data[self._pos:self._pos + n]
        self._pos += len(chunk)
        return chunk


def _read_raw_frame(head: bytes, blob: bytes = b""):
    """``read_frame`` of one frame carrying header bytes *head*."""
    prefix = wire._PREFIX.pack(wire._MAGIC, len(head), len(blob))
    return read_frame(_ByteStream(prefix + head + blob), TEST_ALLOW)


def _frame_or_wire_error(head: bytes, blob: bytes = b"") -> None:
    """The only outcomes peer bytes may have: a frame or WireError."""
    try:
        header, got = _read_raw_frame(head, blob)
    except wire.WireError:
        return
    assert isinstance(header, dict) and "type" in header
    assert got == blob


def _nested(depth: int, container: str) -> str:
    if container == "list":
        return "[" * depth + "]" * depth
    return '{"a": ' * depth + "0" + "}" * depth


class TestFrameFuzz:
    """Header bytes come from peers: whatever they hold, ``read_frame``
    returns a frame or raises :class:`WireError` — never an exception
    that would kill the coordinator's connection thread."""

    @settings(max_examples=300, deadline=None)
    @given(head=st.binary(max_size=256), blob=st.binary(max_size=16))
    def test_arbitrary_header_bytes(self, head, blob):
        _frame_or_wire_error(head, blob)

    @settings(max_examples=300, deadline=None)
    @given(head=st.text(alphabet='{}[]":, 0123456789.-eEtruefalsnyp_:',
                        max_size=256))
    def test_json_shaped_header_text(self, head):
        _frame_or_wire_error(head.encode())

    @settings(max_examples=60, deadline=None)
    @given(depth=st.integers(1, 20000),
           container=st.sampled_from(("list", "dict")),
           at_root=st.booleans())
    def test_any_nesting_depth(self, depth, container, at_root):
        nested = _nested(depth, container)
        head = nested if at_root else '{"type": "x", "v": %s}' % nested
        _frame_or_wire_error(head.encode())

    def test_deep_header_is_a_wire_error(self):
        # 1000 nested arrays, 2 KB: past the interpreter's recursion
        # limit, which used to escape as RecursionError.
        head = '{"type": "x", "v": %s}' % _nested(1000, "list")
        with pytest.raises(wire.WireError, match="nests too deeply"):
            _read_raw_frame(head.encode())


# ----------------------------------------------------------------------
# Wire: trust boundary shared with the service (PR-7 RCE regression).
# ----------------------------------------------------------------------
class TestSharedValidator:
    def test_service_imports_are_the_same_objects(self):
        # One allowlist, one codec: the HTTP service's validator IS the
        # cluster validator, so a hardening fix lands on both at once.
        from repro.service import server

        assert server.validate_document is validate_document
        assert server.BadRequest is BadRequest
        assert issubclass(BadRequest, wire.WireError)

    def test_dotted_qualname_rejected_on_frame_header(self, pair):
        # The PR-7 RCE shape — a dataclass tag whose qualname walks
        # getattr chains ("repro.x:os.system") — must die at the frame
        # boundary, before any pickle bytes are touched.
        evil = {"type": "submit",
                "spec": {"__dataclass__": "repro.api.specs:os.system"}}
        write_frame(pair.a, evil)
        with pytest.raises(wire.WireError, match="os.system"):
            read_frame(pair.b)

    def test_non_allowlisted_module_rejected_on_header(self, pair):
        write_frame(pair.a, {"type": "x",
                             "f": {"__callable__": "subprocess:Popen"}})
        with pytest.raises(wire.WireError, match="module roots"):
            read_frame(pair.b)

    def test_validate_document_accepts_real_spec(self):
        validate_document(encode(MonteCarlo(n_samples=16)), ("repro",))

    def test_restricted_loads_round_trips_repro_objects(self):
        shard = Shard(index=0, start=0, stop=4, base_seed=9,
                      spawn_prefix=())
        assert restricted_loads(pickle.dumps(shard)) == shard

    def test_restricted_loads_rejects_dotted_names(self):
        # Forge a GLOBAL opcode asking for a getattr walk from an
        # allowlisted module — the pickle analogue of the PR-7 RCE.
        evil = b"crepro.api.specs\nos.system\n."
        with pytest.raises(wire.WireError, match="top-level name"):
            restricted_loads(evil)

    def test_restricted_loads_rejects_non_allowlisted_roots(self):
        blob = pickle.dumps(subprocess.Popen)
        with pytest.raises(wire.WireError, match="module roots"):
            restricted_loads(blob)

    def test_restricted_loads_rejects_module_objects(self):
        blob = b"crepro\napi\n."  # allowlisted root, resolves to a module
        with pytest.raises(wire.WireError, match="module"):
            restricted_loads(blob)

    def test_restricted_loads_rejects_corrupt_blob(self):
        with pytest.raises(wire.WireError, match="malformed"):
            restricted_loads(b"\x80\x05 definitely not a pickle")

    def test_restricted_loads_rejects_builtins_eval(self):
        # The infra allowlist is name-level, not module-level: 'eval',
        # 'exec' and '__import__' are all defined in 'builtins' (with
        # undotted names), so a blanket 'builtins' root would hand a
        # forged REDUCE frame arbitrary code execution.
        evil = b"cbuiltins\neval\n(S'__import__(\"os\").getpid()'\ntR."
        with pytest.raises(wire.WireError, match="builtins:eval"):
            restricted_loads(evil)

    @pytest.mark.parametrize("name", ["exec", "__import__", "getattr",
                                      "open", "compile", "vars"])
    def test_restricted_loads_rejects_builtins_callables(self, name):
        blob = b"cbuiltins\n" + name.encode() + b"\n."
        with pytest.raises(wire.WireError, match=f"builtins:{name}"):
            restricted_loads(blob)

    def test_restricted_loads_rejects_numpy_load(self):
        # numpy.load(..., allow_pickle=True) nests an *unrestricted*
        # unpickle — a blanket 'numpy' root would readmit the RCE one
        # level down.
        with pytest.raises(wire.WireError, match="numpy:load"):
            restricted_loads(b"cnumpy\nload\n.")

    def test_restricted_loads_admits_real_shard_payloads(self):
        # Everything an actual (pairs, timing) result frame is built
        # from must still clear the name-level allowlist.
        payload = {
            "contig": np.arange(5.0),
            "strided": np.arange(10.0)[::2],
            "scalar": np.float64(1.5),
            "structured": np.zeros(2, dtype=[("a", "f8"), ("b", "i4")]),
            "complex": 1 + 2j,
            "ordered": __import__("collections").OrderedDict(a=1),
        }
        out = restricted_loads(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert out["contig"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert out["strided"].tolist() == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert out["scalar"] == 1.5 and out["complex"] == 1 + 2j

    def test_restricted_loads_rejects_moduleless_objects(self):
        # An object whose provenance cannot be established (__module__
        # is None) must be rejected under an allowed root, exactly like
        # _validate_tag does on the document side.
        blob = f"c{TEST_ALLOW[1]}\n_Moduleless\n.".encode()
        with pytest.raises(wire.WireError, match="defined in"):
            restricted_loads(blob, TEST_ALLOW)


# ----------------------------------------------------------------------
# Address parsing + executor resolution.
# ----------------------------------------------------------------------
class TestAddresses:
    def test_parse_tcp_scheme(self):
        assert parse_address("tcp://10.0.0.1:7400") == ("10.0.0.1", 7400)

    def test_parse_bare_host_port(self):
        assert parse_address("localhost:7400") == ("localhost", 7400)

    def test_rejects_other_schemes(self):
        with pytest.raises(ValueError):
            parse_address("http://host:80")

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError):
            parse_address("tcp://host")

    def test_resolve_executor_builds_cluster(self):
        executor = resolve_executor("tcp://127.0.0.1:0")
        try:
            assert isinstance(executor, ClusterExecutor)
            assert executor.kind == "cluster"
        finally:
            executor.close()

    def test_resolve_executor_rejects_other_strings(self):
        with pytest.raises(ValueError, match="tcp://"):
            resolve_executor("udp://127.0.0.1:1")


# ----------------------------------------------------------------------
# Satellite: executor lifecycle.
# ----------------------------------------------------------------------
class TestExecutorLifecycle:
    def test_parallel_close_is_idempotent(self):
        executor = ParallelExecutor(2)
        executor.warm()
        executor.close()
        executor.close()
        assert executor._pool is None

    def test_parallel_del_never_raises_after_close(self):
        executor = ParallelExecutor(2)
        executor.close()
        executor.__del__()  # must be a silent no-op

    def test_cluster_close_is_idempotent(self):
        executor = ClusterExecutor("tcp://127.0.0.1:0")
        executor.close()
        executor.close()
        executor.__del__()

    def test_cluster_close_leaves_no_accept_thread(self):
        # Closing a listener does not wake a thread blocked in accept()
        # on Linux: close() must shut the listener down first, or the
        # accept thread outlives the executor (and close() waits out
        # its join timeout).
        with _cluster(n_workers=1) as (executor, _):
            # An accepted agent puts the loop back into accept().
            executor.warm()
            name = executor._accept_thread.name
        assert name.startswith("repro-cluster-accept-")
        assert not executor._accept_thread.is_alive()
        assert name not in {t.name for t in threading.enumerate()}

    def test_session_is_a_context_manager(self, technology):
        with Session(technology=technology, seed=SEED, executor=1) as s:
            inner = s
        # close() ran on exit and is safe to repeat.
        inner.close()

    def test_session_borrows_caller_executors(self, technology):
        # A caller-passed instance is borrowed: the session context
        # manager releases it from the cache but leaves it running for
        # its owner to close.
        executor = ClusterExecutor("tcp://127.0.0.1:0")
        try:
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                assert s.workers == "cluster"
            assert not executor._closed
        finally:
            executor.close()
        assert executor._closed

    def test_cluster_execution_needs_cluster_session(self, technology):
        with Session(technology=technology, seed=SEED, executor=1) as s:
            with pytest.raises(ValueError, match="cluster"):
                s.run(MonteCarlo(
                    n_samples=16,
                    execution=Execution(workers="cluster"),
                ))

    def test_execution_workers_validation(self):
        assert Execution(workers="cluster").workers == "cluster"
        with pytest.raises(ValueError):
            Execution(workers="fleet")
        with pytest.raises(ValueError):
            Execution(workers=0)


# ----------------------------------------------------------------------
# Headline: bit-identity at 1/2/3 workers for every spec family.
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("family",
                             ["montecarlo", "sweep", "yield", "characterize"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_cluster_matches_serial(self, technology, golden, family,
                                    n_workers):
        with _cluster(n_workers) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec(family))
        assert _norm(result) == golden(family)

    def test_runtime_reports_cluster_workers(self, technology):
        with _cluster(2) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec("montecarlo"))
        assert result.runtime.workers == 2


# ----------------------------------------------------------------------
# Fault matrix: every failure injected deterministically, every
# envelope still bit-identical to serial.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["montecarlo", "yield"])
class TestFaultMatrix:
    def test_worker_killed_mid_wave(self, technology, golden, family):
        # The first lease dispatch permanently stops that worker; its
        # shards must be stolen by the survivor.  The hook runs after
        # the lease frame went out, so the worker could still answer
        # before its connection drops; kill_leases voids that lease on
        # the coordinator's loop first, before any result can apply.
        killed = []

        def kill_first(worker, lease):
            if not killed:
                killed.append(worker.name)
                agents_by_name[worker.name].stop(timeout=0)

        faults = ScriptedFaults(kill_leases=1, on_dispatch_hook=kill_first)
        retries_before = _counter_total("repro_cluster_retries_total")
        with _cluster(2, names=["w0", "w1"], faults=faults) as (executor,
                                                                agents):
            agents_by_name = {"w0": agents[0], "w1": agents[1]}
            with Session(technology=technology, seed=SEED, executor=executor,
                         tracer=Tracer(), metrics=True) as s:
                result = s.run(_spec(family))
        assert killed, "fault hook never fired"
        assert _norm(result) == golden(family)
        telemetry = result.runtime.telemetry
        assert "repro_cluster_retries_total" in telemetry["metrics"]
        assert _counter_total("repro_cluster_retries_total") > retries_before
        assert _counter_total("repro_cluster_stolen_shards_total") > 0

    def test_worker_heartbeat_timeout(self, technology, golden, family):
        # One worker is connected but blackholed: every frame it sends
        # (heartbeats included) is dropped, so the coordinator must
        # declare it dead on the heartbeat deadline and reshard.
        retries_before = _counter_total("repro_cluster_retries_total")
        faults = ScriptedFaults(blackhole="mute")
        with _cluster(2, names=["mute", "live"], faults=faults,
                      heartbeat_timeout=1.0) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec(family))
        assert _norm(result) == golden(family)
        assert _counter_total("repro_cluster_retries_total") >= retries_before

    def test_duplicate_result_frame(self, technology, golden, family):
        # The first result frame is delivered twice; the second copy
        # must be suppressed by first-completion-wins.
        duplicates_before = _counter_total(
            "repro_cluster_duplicate_results_total")
        faults = ScriptedFaults(duplicate_results=1)
        with _cluster(2, faults=faults) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec(family))
        assert _norm(result) == golden(family)
        assert _counter_total(
            "repro_cluster_duplicate_results_total") > duplicates_before

    def test_coordinator_restart_resumes_from_checkpoint(
            self, technology, golden, family, tmp_path):
        # Crash the coordinator after the first accepted result; a
        # fresh coordinator + fresh workers must resume from the wave
        # checkpoint and produce the serial payload bit-for-bit.
        prefix = str(tmp_path / "cluster.ckpt")
        shard_size = {"montecarlo": 16, "yield": 64}[family]
        execution = Execution(workers="cluster", shard_size=shard_size,
                              wave_size=1, checkpoint=prefix)
        spec = _spec(family, execution=execution)
        # Crash mid-estimation, after at least one wave (one shard per
        # wave) has checkpointed: for MC that is result 2 of 3; yield
        # spends its first two results on the CE adaptation round
        # (n_per_round=128 / block 64), so its estimation phase reaches
        # wave 2 at result 4.
        crash_after = {"montecarlo": 2, "yield": 4}[family]
        faults = ScriptedFaults(crash_after_results=crash_after)
        with _cluster(2, faults=faults) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                with pytest.raises(CoordinatorCrash):
                    s.run(spec)
        with _cluster(2) as (executor, _):
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                resumed = s.run(spec)
        assert resumed.runtime.resumed_shards >= 1
        with Session(technology=technology, seed=SEED, executor=1) as s:
            serial = s.run(_spec(family, execution=Execution(
                workers=1, shard_size=shard_size, wave_size=1)))
        # The spec embeds its execution options (checkpoint path,
        # worker token), so compare the payloads, not the envelopes.
        assert dumps(scrub_envelope(resumed).payload) \
            == dumps(scrub_envelope(serial).payload)


# ----------------------------------------------------------------------
# Elasticity and recovery mechanics.
# ----------------------------------------------------------------------
class TestElasticity:
    def test_aborted_worker_reconnects_and_run_completes(self, technology,
                                                         golden):
        # abort() models a network drop, not a death: the agent must
        # reconnect with backoff and the run must still complete even
        # with no second worker to steal the leases.
        aborted = []

        def drop_once(worker, lease):
            if not aborted:
                aborted.append(worker.name)
                agents_by_name[worker.name].abort()

        faults = ScriptedFaults(on_dispatch_hook=drop_once)
        with _cluster(1, names=["flaky"], faults=faults) as (executor,
                                                             agents):
            agents_by_name = {"flaky": agents[0]}
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec("montecarlo"))
        assert aborted
        assert _norm(result) == golden("montecarlo")

    def test_worker_gives_up_after_max_connects(self):
        # Nothing listens on the target port: the agent retries with
        # backoff, then returns 1 after max_connects failures.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        agent = WorkerAgent(WorkerConfig(
            connect=f"127.0.0.1:{port}", reconnect_base=0.01,
            reconnect_cap=0.02, max_connects=3,
        ))
        assert agent.run() == 1
        assert agent.connect_failures == 3

    def test_worker_started_before_coordinator_binds(self, technology,
                                                     golden):
        # Elastic join: the agent spins on connection retries until the
        # coordinator appears, then serves normally.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        agent = WorkerAgent(WorkerConfig(
            connect=f"127.0.0.1:{port}", reconnect_base=0.01,
            reconnect_cap=0.05,
        )).start()
        executor = ClusterExecutor(f"tcp://127.0.0.1:{port}",
                                   worker_wait=60.0)
        try:
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec("montecarlo"))
        finally:
            agent.stop()
            executor.close()
        assert _norm(result) == golden("montecarlo")

    def test_task_error_propagates_not_retries(self):
        # A task that raises is a workload bug, not a scheduling fault:
        # the coordinator must surface it instead of resharding forever.
        with _cluster(1, allow=TEST_ALLOW) as (executor, _):
            with pytest.raises(ClusterWorkerError, match="boom"):
                executor.map_shards(_BoomTask(), _shards(3))

    def test_map_shards_preserves_index_order(self):
        with _cluster(3, allow=TEST_ALLOW) as (executor, _):
            pairs = executor.map_shards(_EchoTask(), _shards(13))
        assert [index for index, _ in pairs] == list(range(13))
        assert pairs[4][1] == (40, 50, 42)


# ----------------------------------------------------------------------
# Executor reuse: an aborted wave must not poison the next one.
# ----------------------------------------------------------------------
def _map_in_thread(executor, task, shards, timeout=60.0):
    """Run map_shards off-thread so a regression deadlocks the thread,
    not the test suite."""
    result = {}
    runner = threading.Thread(
        target=lambda: result.setdefault(
            "pairs", executor.map_shards(task, shards)),
        daemon=True,
    )
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "map_shards deadlocked on a reused executor"
    return result["pairs"]


class TestExecutorReuseAfterFailure:
    def test_wave_after_task_error_still_dispatches(self):
        # Regression: the aborted wave's lease used to stay in
        # worker.leases forever — with the default concurrency=1 the
        # worker had no free slot left and every later wave on the same
        # executor (e.g. the shared serve --cluster daemon executor)
        # deadlocked.
        with _cluster(1, allow=TEST_ALLOW) as (executor, _):
            with pytest.raises(ClusterWorkerError, match="boom"):
                executor.map_shards(_BoomTask(), _shards(3))
            pairs = _map_in_thread(executor, _EchoTask(), _shards(5))
        assert [index for index, _ in pairs] == list(range(5))
        assert pairs[2][1] == (20, 30, 42)

    def test_stale_error_frames_do_not_poison_next_wave(self):
        # Both workers report the deterministic task failure; the first
        # error frame aborts wave 1, the second may still be queued (or
        # in flight) when wave 2 starts.  It must be discarded — not
        # raised as a ClusterWorkerError against the healthy wave, and
        # its lease must not be resharded into it.
        with _cluster(2, allow=TEST_ALLOW) as (executor, _):
            with pytest.raises(ClusterWorkerError, match="boom"):
                executor.map_shards(_BoomTask(), _shards(8))
            pairs = _map_in_thread(executor, _EchoTask(), _shards(8))
        assert [index for index, _ in pairs] == list(range(8))

    def test_repeated_failures_then_success(self):
        # The daemon-executor pattern: several failing jobs in a row,
        # then a good one, all on one executor and one worker slot.
        with _cluster(1, allow=TEST_ALLOW) as (executor, _):
            for _ in range(3):
                with pytest.raises(ClusterWorkerError, match="boom"):
                    executor.map_shards(_BoomTask(), _shards(2))
            pairs = _map_in_thread(executor, _EchoTask(), _shards(4))
        assert [index for index, _ in pairs] == list(range(4))


# ----------------------------------------------------------------------
# Authentication: the hello/welcome shared-secret handshake.
# ----------------------------------------------------------------------
class TestClusterAuth:
    def test_wrong_token_is_rejected_and_fatal(self):
        executor = ClusterExecutor("tcp://127.0.0.1:0", token="sesame")
        agent = WorkerAgent(WorkerConfig(
            connect=executor.address, token="wrong", reconnect_base=0.01,
        ))
        try:
            # Fatal, not retried: run() returns instead of spinning on
            # reconnect, and the peer was never registered as a worker.
            assert agent.run() == 1
            assert not executor._workers
        finally:
            executor.close()

    def test_missing_token_is_rejected(self):
        executor = ClusterExecutor("tcp://127.0.0.1:0", token="sesame")
        agent = WorkerAgent(WorkerConfig(
            connect=executor.address, reconnect_base=0.01,
        ))
        try:
            assert agent.run() == 1
            assert not executor._workers
        finally:
            executor.close()

    def test_matching_token_serves_leases(self):
        executor = ClusterExecutor("tcp://127.0.0.1:0", token="sesame",
                                   allow_modules=TEST_ALLOW)
        agent = WorkerAgent(WorkerConfig(
            connect=executor.address, token="sesame",
            allow_modules=TEST_ALLOW,
        )).start()
        try:
            pairs = executor.map_shards(_EchoTask(), _shards(4))
        finally:
            agent.stop()
            executor.close()
        assert [index for index, _ in pairs] == list(range(4))

    def test_env_var_token_reaches_both_sides(self, monkeypatch):
        # The Session("tcp://...") and serve --cluster paths construct
        # the coordinator deep inside resolve_executor, so the secret
        # travels via REPRO_CLUSTER_TOKEN.
        monkeypatch.setenv("REPRO_CLUSTER_TOKEN", "sesame")
        executor = ClusterExecutor("tcp://127.0.0.1:0",
                                   allow_modules=TEST_ALLOW)
        assert executor.token == "sesame"
        agent = WorkerAgent(WorkerConfig(
            connect=executor.address, allow_modules=TEST_ALLOW,
        )).start()
        try:
            pairs = executor.map_shards(_EchoTask(), _shards(3))
        finally:
            agent.stop()
            executor.close()
        assert [index for index, _ in pairs] == list(range(3))

    def test_non_loopback_bind_without_token_warns(self, monkeypatch):
        monkeypatch.delenv("REPRO_CLUSTER_TOKEN", raising=False)
        with pytest.warns(RuntimeWarning, match="token"):
            executor = ClusterExecutor("tcp://0.0.0.0:0")
        executor.close()

    def test_non_loopback_bind_with_token_is_silent(self):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            executor = ClusterExecutor("tcp://0.0.0.0:0", token="sesame")
        executor.close()


# ----------------------------------------------------------------------
# Worker task cache: true LRU, not FIFO.
# ----------------------------------------------------------------------
class TestWorkerTaskCache:
    def test_task_cache_evicts_least_recently_used(self, monkeypatch):
        # Cache size 2; runs 1 and 2 are cached, then a lease touches
        # run 1 before run 3 arrives.  FIFO would evict run 1 (the
        # oldest *insert*) and answer the next run-1 lease with
        # unknown-run; LRU evicts run 2 and serves it from cache.
        from repro.cluster import worker as worker_mod

        monkeypatch.setattr(worker_mod, "_TASK_CACHE_SIZE", 2)
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]
        agent = WorkerAgent(WorkerConfig(
            connect=f"127.0.0.1:{port}", allow_modules=TEST_ALLOW,
        )).start()
        conn, _ = server.accept()

        def next_frame():
            while True:
                frame = read_frame(conn, TEST_ALLOW)
                assert frame is not None, "worker hung up mid-test"
                if frame[0].get("type") != "heartbeat":
                    return frame

        def lease(lease_id, run):
            write_frame(conn, {
                "type": "lease", "lease": lease_id, "run": run,
                "shards": [{"index": 0, "start": 0, "stop": 10,
                            "base_seed": 42, "spawn_prefix": []}],
            })
            return next_frame()[0]

        try:
            hello = next_frame()[0]
            assert hello["type"] == "hello"
            write_frame(conn, {"type": "welcome", "protocol": wire.PROTOCOL,
                               "heartbeat_timeout": 15.0})
            blob = pickle.dumps(_EchoTask(),
                                protocol=pickle.HIGHEST_PROTOCOL)
            write_frame(conn, {"type": "task", "run": 1}, blob)
            write_frame(conn, {"type": "task", "run": 2}, blob)
            assert lease(1, 1)["type"] == "result"   # refreshes run 1
            write_frame(conn, {"type": "task", "run": 3}, blob)  # evicts 2
            reply = lease(2, 1)
            assert reply["type"] == "result", f"run 1 was evicted: {reply}"
            evicted = lease(3, 2)
            assert evicted["type"] == "error"
            assert evicted["code"] == "unknown-run"
        finally:
            agent.stop()
            conn.close()
            server.close()


# ----------------------------------------------------------------------
# Headline SIGKILL run: real worker processes, one killed mid-wave.
# ----------------------------------------------------------------------
class TestSubprocessWorkers:
    def test_sigkilled_worker_preserves_bit_identity(self, technology,
                                                     golden):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        killed = []

        def sigkill_first(worker, lease):
            if not killed:
                killed.append(worker.pid)
                os.kill(worker.pid, signal.SIGKILL)

        faults = ScriptedFaults(on_dispatch_hook=sigkill_first)
        executor = ClusterExecutor("tcp://127.0.0.1:0", worker_wait=120.0,
                                   faults=faults)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", executor.address, "--name", f"sub{i}"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for i in range(2)
        ]
        try:
            with Session(technology=technology, seed=SEED,
                         executor=executor) as s:
                result = s.run(_spec("montecarlo"))
        finally:
            executor.close()
            for proc in procs:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                proc.wait(timeout=30)
        assert killed, "no worker was SIGKILLed"
        assert _norm(result) == golden("montecarlo")


# ----------------------------------------------------------------------
# Observability: scheduling-side spans only.
# ----------------------------------------------------------------------
class TestClusterTelemetry:
    def test_cluster_spans_and_identity_with_tracing(self, technology,
                                                     golden):
        tracer = Tracer()
        with _cluster(2) as (executor, _):
            with Session(technology=technology, seed=SEED, executor=executor,
                         tracer=tracer, metrics=True) as s:
                result = s.run(_spec("montecarlo"))
        names = {record["name"] for record in tracer.records}
        assert "cluster.dispatch" in names
        assert "cluster.lease" in names
        assert "shard.execute" in names
        # Telemetry never steers: traced cluster == untraced serial.
        assert _norm(result) == golden("montecarlo")
        telemetry = result.runtime.telemetry
        assert "repro_cluster_workers" in telemetry["metrics"]
        assert "repro_cluster_leases_in_flight" in telemetry["metrics"]
        assert "repro_cluster_retries_total" in telemetry["metrics"]

    @pytest.mark.parametrize("faults, fault_counter", [
        (lambda: None, None),
        (lambda: ScriptedFaults(duplicate_results=1),
         "repro_cluster_duplicate_results_total"),
        (lambda: ScriptedFaults(kill_leases=1),
         "repro_cluster_retries_total"),
    ], ids=["clean", "duplicate_results", "kill_leases"])
    def test_each_shard_counted_once(self, faults, fault_counter):
        # repro_shards_executed_total counts a cluster shard when its
        # first result applies, as the serial and pool executors count
        # theirs: a duplicated frame or the re-run of a voided lease
        # adds nothing.
        executed = _counter_total("repro_shards_executed_total")
        injected = fault_counter and _counter_total(fault_counter)
        with _cluster(2, faults=faults(), allow=TEST_ALLOW) as (executor, _):
            pairs = executor.map_shards(_EchoTask(), _shards(8))
        assert [index for index, _ in pairs] == list(range(8))
        assert _counter_total("repro_shards_executed_total") - executed == 8
        if fault_counter:
            assert _counter_total(fault_counter) > injected
