"""Command-line entry point: regenerate paper artifacts.

Usage::

    python -m repro list                 # available experiments
    python -m repro list --json          # machine-readable registry dump
    python -m repro fig3 table2 ...     # run selected, print reports
    python -m repro all                  # everything (long: full circuit MC)
    python -m repro fig5 --quick         # reduced sample counts
    python -m repro fig5 --json          # machine-readable Result envelope
    python -m repro fig5 --seed 7        # reseed the whole session
    python -m repro fig5 --backend generic   # force per-element MNA
    python -m repro fig9 --workers 4     # sharded multi-process Monte-Carlo
    python -m repro fig9 --workers 4 --shard-size 256   # explicit shards
    python -m repro fig9 --trace out.trace.json  # Chrome-traceable run spans
    python -m repro charlib --workers 4  # parallel library characterization
    python -m repro serve --port 7373 --store ./store --workers 4
                                         # analysis service daemon (HTTP)
    python -m repro serve --log-level debug   # JSON log lines on stderr
    python -m repro serve --cluster 0.0.0.0:7400   # jobs run on the cluster
    python -m repro worker --connect host:7400 --concurrency 2
                                         # cluster worker agent (elastic)

Every experiment is a declarative entry in the :mod:`repro.api`
registry and executes through one :class:`repro.api.Session`, which
owns the technology, the seed tree, backend selection and the compiled
plan cache.  Default output is the experiment's human-readable report;
``--json`` dumps the uniform ``Result`` envelope instead.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.api import Session, load_all, names
from repro.api.registry import get as registry_get_def


def _serve_main(argv) -> int:
    """The ``python -m repro serve`` verb: start the analysis daemon."""
    from repro.api.seeding import EXPERIMENT_SEED
    from repro.service import ServiceConfig, serve

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Persistent analysis service: the Session API over "
                    "HTTP/JSON with a content-addressed result store.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=7373,
                        help="TCP port (0 picks an ephemeral port)")
    parser.add_argument("--store", default=".repro-store",
                        help="result-store directory (results, pending-job "
                             "journal, and checkpoints live here; a "
                             "restarted daemon resumes from it)")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool workers per job (scheduling "
                             "only — envelopes are worker-count invariant)")
    parser.add_argument("--seed", type=int, default=EXPERIMENT_SEED,
                        help="session root seed; folded into every store "
                             "key, so stores are seed-disjoint")
    parser.add_argument("--log-level", default="info", dest="log_level",
                        choices=("debug", "info", "warning", "error"),
                        help="threshold of the structured JSON log on "
                             "stderr (one line per HTTP request and per "
                             "job state transition)")
    parser.add_argument("--cluster", default=None, metavar="HOST:PORT",
                        help="run jobs on a cluster instead of a local "
                             "pool: bind a coordinator at HOST:PORT and "
                             "wait for 'python -m repro worker' agents "
                             "(overrides --workers; envelopes stay "
                             "bit-identical to serial)")
    parser.add_argument("--token", default=None,
                        help="shared secret workers must present in the "
                             "cluster handshake (default: the "
                             "REPRO_CLUSTER_TOKEN environment variable; "
                             "without one, anyone who can reach the "
                             "coordinator port can join and inject "
                             "results — only bind non-loopback addresses "
                             "on trusted networks)")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.cluster is not None:
        from repro.cluster import parse_address

        try:
            parse_address(args.cluster)
        except ValueError as exc:
            parser.error(str(exc))
    if args.token is not None:
        # The coordinator is constructed deep inside the service session
        # (resolve_executor on the address string); the environment
        # variable is the documented channel for the shared secret.
        import os

        os.environ["REPRO_CLUSTER_TOKEN"] = args.token
    return serve(ServiceConfig(
        host=args.host, port=args.port, store=args.store,
        workers=args.workers, seed=args.seed, log_level=args.log_level,
        cluster=args.cluster,
    ))


def _worker_main(argv) -> int:
    """The ``python -m repro worker`` verb: join a cluster coordinator."""
    from repro.cluster import WorkerAgent, WorkerConfig, parse_address

    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Cluster worker agent: connect to a coordinator "
                    "(Session(executor='tcp://...') or serve --cluster), "
                    "pull shard leases, stream results back.  Reconnects "
                    "with exponential backoff; safe to SIGKILL — the "
                    "coordinator reshards its leases to survivors.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (tcp://host:port or "
                             "bare host:port)")
    parser.add_argument("--concurrency", type=int, default=1,
                        help="shard chunks executed concurrently by this "
                             "agent (default 1)")
    parser.add_argument("--name", default=None,
                        help="worker name shown in coordinator telemetry "
                             "(default: hostname-pid)")
    parser.add_argument("--heartbeat", type=float, default=1.0,
                        help="seconds between heartbeat frames (default 1)")
    parser.add_argument("--max-connects", type=int, default=None,
                        dest="max_connects",
                        help="give up after this many failed connection "
                             "attempts (default: retry forever)")
    parser.add_argument("--allow-module", action="append", default=None,
                        dest="allow_modules", metavar="ROOT",
                        help="additional top-level module root admitted "
                             "by the wire validator (repeatable; 'repro' "
                             "is always allowed)")
    parser.add_argument("--token", default=None,
                        help="shared secret presented to the coordinator "
                             "(default: the REPRO_CLUSTER_TOKEN "
                             "environment variable); a rejection is "
                             "fatal, not retried")
    args = parser.parse_args(argv)
    if args.concurrency < 1:
        parser.error("--concurrency must be >= 1")
    if args.heartbeat <= 0:
        parser.error("--heartbeat must be > 0")
    try:
        parse_address(args.connect)
    except ValueError as exc:
        parser.error(str(exc))
    allow = ("repro",) + tuple(args.allow_modules or ())
    agent = WorkerAgent(WorkerConfig(
        connect=args.connect,
        name=args.name,
        concurrency=args.concurrency,
        heartbeat_interval=args.heartbeat,
        max_connects=args.max_connects,
        allow_modules=allow,
        token=args.token,
    ))
    try:
        return agent.run()
    except KeyboardInterrupt:
        return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "worker":
        return _worker_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate DATE-2013 statistical-VS paper artifacts.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help="experiment names (fig1..fig9, table2..table4, baseline, "
             "ssta, charlib, yield_sram, yield_dff), 'all', or 'list'",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced Monte-Carlo counts (same shapes, minutes not hours)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print each experiment's Result envelope as one JSON document "
             "per line (JSON-lines) instead of the text report",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override the session's root seed (default: the paper seed; "
             "golden figures are pinned to it)",
    )
    parser.add_argument(
        "--backend", choices=("compiled", "generic"), default=None,
        help="force the circuit assembly backend for every analysis "
             "(default: auto — compile when the netlist supports it)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel workers for statistical Monte-Carlo.  Any "
             "explicit value — including 1 — engages the sharded "
             "runtime, whose output is bit-identical at every worker "
             "count; omit the flag entirely for the unsharded legacy "
             "stream the golden figures pin",
    )
    parser.add_argument(
        "--shard-size", type=int, default=None, dest="shard_size",
        help="samples per shard when the parallel runtime is engaged "
             "(default: the runtime's fixed shard size)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a scheduling-side run trace and write it to PATH "
             "after the experiments finish: '.jsonl' suffix writes one "
             "span per line, anything else writes Chrome trace_event "
             "JSON (load in chrome://tracing or Perfetto).  Tracing "
             "never changes results — envelopes are bit-identical with "
             "and without it",
    )
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.shard_size is not None and args.shard_size < 1:
        parser.error("--shard-size must be >= 1")

    load_all()
    if args.experiments == ["list"]:
        if args.as_json:
            # One document: the whole registry with its quick/full
            # presets, so drivers can discover runnable artifacts and
            # their knobs without parsing the human listing.
            entries = []
            for name in names():
                defn = registry_get_def(name)
                entries.append({
                    "name": name,
                    "title": defn.title,
                    "module": defn.module,
                    "quick": dict(defn.quick),
                    "full": dict(defn.full),
                })
            print(json.dumps(entries, indent=2))
        else:
            for name in names():
                defn = registry_get_def(name)
                print(f"{name:8s} {defn.module:42s} {defn.title}")
        return 0

    requested = names() if args.experiments == ["all"] else args.experiments
    unknown = [n for n in requested if n not in names()]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; try 'list'")

    tracer = None
    if args.trace is not None:
        from repro.obs import Tracer

        tracer = Tracer()
    session = Session(
        **({} if args.seed is None else {"seed": args.seed}),
        backend=args.backend or "auto",
        executor=args.workers,
        shard_size=args.shard_size,
        tracer=tracer,
    )
    try:
        for name in requested:
            result = session.run_experiment(name, quick=args.quick)
            if args.as_json:
                # One compact document per experiment: stdout is valid JSONL
                # for multi-experiment runs and plain JSON for a single one.
                print(result.to_json(indent=None))
            else:
                print(registry_get_def(name).report(result.payload))
                print(f"[{name} done in {result.wall_time_s:.1f} s]\n")
    finally:
        session.close()
        if tracer is not None:
            tracer.write(args.trace)
            print(f"[trace: {len(tracer.records)} spans -> {args.trace}]",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
