"""The analysis daemon as the benchmark launches it.

Equivalent to ``python -m repro serve --host 127.0.0.1 --port 0 --workers
1 --store <store>``: it imports ``repro.__main__`` (the module set the CLI
loads) and calls :func:`repro.service.server.serve`, which prints the
``repro analysis service on <url>`` banner and serves until SIGINT.  On
the way it times its imports and the technology characterization, and
with ``--trace`` it installs the benchmark's layer wrappers and activates
a tracer around ``serve`` — the same two-process shape as the untraced
run.  After SIGINT it writes ``--report`` (phases, and with ``--trace``
the span records and the tracer epoch) and, with ``--chrome``, a Chrome
trace.
"""

import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", default=None)
    args = parser.parse_args()

    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.stats  # noqa: F401
    t1 = time.perf_counter()
    import repro.__main__  # noqa: F401
    import repro.pipeline
    from repro.obs import Tracer, activate
    from repro.service.server import ServiceConfig, serve

    t2 = time.perf_counter()
    phases = {"import_thirdparty_s": t1 - t0, "import_repro_s": t2 - t1}

    characterize = repro.pipeline.default_technology

    def default_technology():
        start = time.perf_counter()
        try:
            return characterize()
        finally:
            phases.setdefault("technology_s", time.perf_counter() - start)

    # The service session resolves the technology lazily, through this
    # module attribute, on its first job.
    repro.pipeline.default_technology = default_technology

    config = ServiceConfig(host="127.0.0.1", port=0, store=args.store, workers=1)
    report = {"phases": phases}
    if args.trace:
        from perfbench.layers import Hooks, epoch_of

        tracer = Tracer()
        with Hooks(tracer) as hooks, activate(tracer):
            code = serve(config)
        report.update(epoch=epoch_of(tracer), records=tracer.records,
                      missing=hooks.missing)
        if args.chrome:
            tracer.write(args.chrome)
    else:
        code = serve(config)
    with open(args.report, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
