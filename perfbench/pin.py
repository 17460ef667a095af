"""Regenerate perfbench/digests.json: for every workload and every seed in
SEEDS (seed 0 reproduces the catalog configs), the sha256 of each output
file and the number of data packets the run sent.

    python3 perfbench/pin.py

Re-pin only when a change alters the outputs on purpose, and say why in the
change's notes; a faster run with other outputs is a behaviour change.
"""

import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

from run import DIGESTS, OUT, WORKLOADS, run_worker

SEEDS = range(16)
JOBS = 2  # worker processes at once


def pin(job):
    workload, seed = job
    outdir = os.path.join(OUT, "pin-%s-%d" % (workload, seed))
    try:
        result = run_worker(["--workload", workload, "--seed", str(seed), "--out", outdir])
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if result["errors"]:
        raise RuntimeError("%s seed %d: %s" % (workload, seed, result["errors"]))
    return workload, seed, {"files": result["digests"], "packets": result["packets"]}


def main():
    jobs = [(w, s) for w in WORKLOADS for s in SEEDS]
    table = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(JOBS) as pool:
        for workload, seed, pinned in pool.map(pin, jobs):
            table[workload][str(seed)] = pinned
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
