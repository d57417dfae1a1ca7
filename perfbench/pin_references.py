"""Regenerate ``references.json``: the pinned batch summaries.

    python3 perfbench/pin_references.py

Runs one batch of each Monte-Carlo workload at every session seed slot
(``mc.SEED_BASE + 0 .. mc.SEED_SLOTS - 1``) in the pinned environment and
records its summary.  Rerun only when a change is meant to move the
numbers (a Newton trajectory change, say); ``run.py`` then checks each
timed batch against them at ``mc.RTOL``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.run import PINNED_ENV

    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)])
    from repro.api import Session

    from perfbench import mc

    out = {"rtol": mc.RTOL, "seed_base": mc.SEED_BASE,
           "seed_slots": mc.SEED_SLOTS, "workloads": {}}
    for name, n_samples in mc.BATCH_SAMPLES.items():
        seeds = {}
        for slot in range(mc.SEED_SLOTS):
            session = Session(seed=mc.session_seed(slot))
            values = mc.make_batch(name, session, n_samples)()
            seeds[str(mc.session_seed(slot))] = mc.summarize(values)
            print(name, mc.session_seed(slot), seeds[str(mc.session_seed(slot))],
                  flush=True)
        out["workloads"][name] = {"n_samples": n_samples, "seeds": seeds}
    with open(mc.REFERENCES, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
