"""Benchmark entry point.

    python3 perfbench/run.py --workload snm_read_mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Prints each metric by name with its unit and sample count, the layer
table when ``--trace 1``, the run's provenance, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The full record, including the service latency
percentiles, goes to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Environment every process of a run shares.  One BLAS thread: with
#: OpenBLAS's default pool, import CPU time exceeded wall time on 2 vCPUs.
#: No bytecode writes, so every fresh start compiles ``src/`` as a user's
#: first run does and no run leaves caches for the next.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONUNBUFFERED": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    import ctypes
    import hashlib
    import subprocess

    import numpy as np

    with open("/proc/self/maps") as handle:
        mapped = handle.read().split()
    blas = {}
    for entry in sorted({p for p in mapped if "openblas" in p and ".so" in p}):
        lib = ctypes.CDLL(entry)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and config is not None:
                    get.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    blas = {"library": os.path.basename(entry),
                            "config": config().decode(), "threads": get()}
    try:
        # The ceiling keeps git from searching above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()} "
                  f"({' '.join(platform.python_build())})",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, trace: int) -> None:
    """Human-readable lines for one workload."""
    name = result["workload"]
    from perfbench import layers

    if trace:
        print(layers.format_table(name, result["table"]))
        for metric, value in result["layers"].items():
            print(f"{name}  {metric:<30} {_fmt(value)}")
    else:
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric:<14} {_fmt(m['value']):>12} {m['unit']:<9}"
                  f"(n={m['n']} {m['of']})")
    print(f"{name}  checks: {'pass' if result['correct'] else 'FAIL'} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for note in result.get("notes", []):
        print(f"{name}  note: {note}")
    for target in result.get("missing_hooks", []):
        print(f"{name}  note: layer entry point {target} not found")


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    from perfbench import workloads

    os.makedirs(workloads.OUT, exist_ok=True)
    stem = os.path.join(workloads.OUT, f"{name}-seed{seed}-trace{trace}")
    if name == "service_cold_warm":
        result = workloads.run_service(seed, seconds, bool(trace),
                                       chrome_out=stem + ".trace.json")
    else:
        result = workloads.run_mc(name, seed, seconds, bool(trace))
        if trace:
            result.pop("tracer").write(stem + ".trace.json")
    report(result, trace)
    with open(stem + ".json", "w") as handle:
        json.dump({"provenance": provenance(seed), **result}, handle,
                  indent=1, default=str)
    return result


def contract_metrics(result: dict, trace: int) -> dict:
    """The metrics of the final JSON line, exactly the BENCHMARK.json set."""
    from perfbench import workloads

    if trace:
        return {name: {"value": result["layers"][name], "unit": unit}
                for name, unit in workloads.PER_LAYER.items()}
    return {name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, (unit, _) in workloads.END_TO_END.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + sys.argv[1:])
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)} or all)",
              file=sys.stderr)
        return 2
    for key, value in provenance(args.seed).items():
        print(f"provenance  {key}: {value}")
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, args.trace),
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process (so that
    ``peak_rss_mb`` is that workload's own); one combined JSON line."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            (f"{name}.{key}", value) for key, value in result["metrics"].items())
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
