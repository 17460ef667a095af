"""lbesim host-time benchmark.

    python3 perfbench/run.py --workload duel --seed 0 --seconds 30 --trace 0

Runs one workload repeatedly for --seconds, each iteration in a fresh
interpreter (perfbench/worker.py), checks every output against the digests
pinned in perfbench/digests.json (or, for an unpinned seed, against the
first iteration), and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count scenario runs; a run fails if it raises, if
a report breaks a range check, or if an output file it contributes to has
another digest than the pinned one. With --trace 0 the metrics are the
end-to-end ones, measured with tracing off. With --trace 1 each iteration
is an untraced run followed by a traced one, and the metrics are the
per-layer ones from the traced runs, which must also pass the tracer's
reconciliation self-check. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_PROBES = 5          # extra set-up-only interpreters per run
WORKER_TIMEOUT_S = 150.0  # one iteration; a whole run must end within 180 s
MEASURE_CAP_S = 120.0     # never start an iteration that would end after this

UNITS = {
    "wall_s": "s", "pkts_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith("_share"):
        return "share"
    for suffix, unit in (("_s", "s"), ("ns_per_event", "ns"), ("ns_per_on_ack", "ns"),
                         ("us_per_pkt", "us"), ("us_per_ack", "us"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


class WorkerFailed(RuntimeError):
    pass


def run_worker(args):
    """Run worker.py with `args` and return its JSON result line."""
    proc = subprocess.run([sys.executable, WORKER] + args, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerFailed("worker %s exited %d:\n%s"
                           % (" ".join(args), proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed, numpy_version):
    """Machine and code identity recorded beside every result. Outside a
    git checkout the sha and dirty flag are null."""
    in_repo = os.path.exists(os.path.join(ROOT, ".git"))
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha,
        "dirty": None if status is None else bool(status),
        "seed": seed,
    }


def pinned_outputs(workload, seed):
    """{"files": {name: sha256}, "packets": n} pinned for the seed, or None."""
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def failed_runs(result, expected):
    """Scenario runs of one iteration that count as failed. A digest
    mismatch fails every run that contributed to the file: the runs named
    in a trace file's name, or all runs for a shared file."""
    runs = result["runs"]
    if result["errors"]:
        return runs
    bad = [name for name, digest in result["digests"].items()
           if expected.get(name) != digest]
    bad += [name for name in expected if name not in result["digests"]]
    if not bad:
        return 0
    if any("_cwnd" not in name for name in bad):
        return runs
    return len({name.rsplit("_flow", 1)[0] for name in bad})


def measure(workload, seed, seconds, trace):
    """Run iterations until `seconds` have passed; return (iterations,
    setup times, attempted, failed, error messages)."""
    outdir = os.path.join(OUT, workload)
    base = ["--workload", workload, "--seed", str(seed), "--out", outdir]
    # the first probe warms the file cache and bytecode
    runs = run_worker(base + ["--setup-only"])["runs"]
    setups = [run_worker(base + ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]

    pinned = pinned_outputs(workload, seed)
    expected = pinned["files"] if pinned else None
    iterations, errors = [], []
    attempted = failed = 0
    start = time.monotonic()
    longest = 0.0
    while True:
        t_iter = time.monotonic()
        for traced in ((0, 1) if trace else (0,)):
            shutil.rmtree(outdir, ignore_errors=True)
            try:
                result = run_worker(base + ["--trace", str(traced)])
            except (WorkerFailed, subprocess.TimeoutExpired) as exc:
                errors.append(str(exc))
                attempted += runs
                failed += runs
                continue
            result["traced"] = traced
            if pinned:
                # outputs equal to the pinned ones come from exactly the
                # pinned packets, whatever the program keeps per packet
                result["packets"] = pinned["packets"]
            setups.append(result["setup_s"])
            if expected is None:
                expected = result["digests"]  # unpinned seed: runs must agree
            bad = failed_runs(result, expected)
            if bad:
                errors.append("%s seed %d trace %d: %d failed run(s): %s"
                              % (workload, seed, traced, bad, result["errors"] or
                                 "output digests differ from the pinned ones"))
            attempted += result["runs"]
            failed += bad
            iterations.append(result)
        elapsed = time.monotonic() - start
        longest = max(longest, time.monotonic() - t_iter)
        if elapsed >= seconds or elapsed + longest > MEASURE_CAP_S:
            break
    return iterations, setups, attempted, failed, errors


def summarize(iterations, setups, trace):
    untraced = [r for r in iterations if not r["traced"]]
    med = statistics.median
    if not trace:
        return {
            "wall_s": med(r["wall_s"] for r in untraced),
            "pkts_per_s": med(r["packets"] / r["wall_s"] for r in untraced),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
    traced = [r for r in iterations if r["traced"]]
    out = {name: med(r["layer"][name] for r in traced) for name in traced[0]["layer"]}
    # CPU and bytes come from the untraced runs, like wall_s
    out["harness.cpu_s"] = med(r["cpu_s"] for r in untraced)
    out["harness.bytes_written"] = med(r["bytes_written"] for r in untraced)
    wall = med(r["wall_s"] for r in untraced)
    out["trace.overhead_share"] = med(r["wall_s"] for r in traced) / wall - 1.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lbesim", "__init__.py")):
        sys.stderr.write("run.py: no lbesim sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    try:
        iterations, setups, attempted, failed, errors = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        sys.stderr.write("run.py: set-up failed: %s\n" % exc)
        return 1
    have_traced = any(r["traced"] for r in iterations)
    have_untraced = any(not r["traced"] for r in iterations)
    if not have_untraced or (args.trace and not have_traced):
        sys.stderr.write("run.py: every iteration failed:\n%s\n" % "\n".join(errors))
        return 1

    values = summarize(iterations, setups, args.trace)
    units = UNITS if not args.trace else {name: layer_unit(name) for name in values}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    for message in errors:
        sys.stderr.write("run.py: %s\n" % message)

    prov = provenance(args.seed, iterations[0]["numpy"])
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "provenance": prov, "metrics": metrics, "errors": errors,
              "iterations": iterations}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance " + json.dumps(prov))
    print("iterations %d, record %s" % (len(iterations), os.path.relpath(path, ROOT)))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
