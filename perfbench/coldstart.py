"""One fresh start of a Monte-Carlo workload, timed phase by phase.

Run as ``python3 perfbench/coldstart.py <workload> <benchmark seed>`` by
``run.py`` in a fresh interpreter with the pinned environment.  Phases:
third-party imports (numpy and the scipy modules ``repro`` uses), the
``repro`` imports, technology characterization, then the first result
of a :data:`mc.WARMUP_SAMPLES`-sample batch (plan compile and kernel
emission happen here; the line reports the plan cache's structural
compiles).  Prints one JSON line whose ``t_end`` is the
``time.perf_counter`` reading at the first result; the parent subtracts
its own reading taken just before it launched this process.
"""

import os
import sys
import time

t0 = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main() -> None:
    import json

    name, seed = sys.argv[1], int(sys.argv[2])
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.stats  # noqa: F401
    t1 = time.perf_counter()
    from perfbench import mc

    mc.import_workload_modules(name)
    from repro.api import Session

    t2 = time.perf_counter()
    session = Session(seed=mc.session_seed(seed))
    session.technology
    t3 = time.perf_counter()
    values = mc.make_batch(name, session, mc.WARMUP_SAMPLES)()
    t4 = time.perf_counter()
    summary = mc.summarize(values)
    print(json.dumps({
        "t_end": t4,
        "plan_compiles": session.plan_cache.stats()["structural_compiles"],
        "import_thirdparty_s": t1 - t0,
        "import_repro_s": t2 - t1,
        "technology_s": t3 - t2,
        "warmup_s": t4 - t3,
        "warmup_finite": summary["finite"] == summary["n"],
    }))


if __name__ == "__main__":
    main()
