"""One benchmark iteration in a fresh interpreter.

Sets up one workload (import of lbesim, config build/validate/expand), runs
it, writes its outputs, and prints one JSON line with timings, counts,
output digests and, with --trace 1, the per-layer metrics. run.py starts
this script once per iteration; it can also be run by hand:

    python3 perfbench/worker.py --workload duel --seed 0 --out .perfbench_out/w
"""

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The seed that reproduces the catalog configs exactly. Any other seed
# gives flows 1..n-1 of every run a seeded start offset in [0, 1) s.
DEFAULT_SEED = 0

# workload -> (catalog experiment, points kept by index or None for all)
WORKLOADS = {
    "duel": ("fig2_gain", [0]),     # reno vs ledbat tau_ms=25, G=1
    "flock": ("fig5", [4]),         # k=5: 5 lp + 5 ledbat + 5 nice
    "fig1_traces": ("fig1", None),  # 6 pairings, traces on, 14 files
}


def build(harness, workload, seed):
    """Expand the workload's catalog sweep and apply the seeded offsets."""
    experiment, keep = WORKLOADS[workload]
    spec = harness.expand_experiment(experiment)
    if keep is not None:
        spec.values = [spec.values[i] for i in keep]
        if spec.labels is not None:
            spec.labels = [spec.labels[i] for i in keep]
    if seed != DEFAULT_SEED:
        rng = random.Random(seed)
        flow_lists = spec.values if spec.axis == "flows" else [spec.base.flows]
        for flows in flow_lists:
            for fc in flows[1:]:
                fc.start_at = rng.random()
    for value in spec.values:
        spec.point_config(value).validate()
    return spec, experiment


def emit(harness, workload, prefix, points, outdir):
    """Write the workload's outputs the way `lbesim experiment` and
    `lbesim sweep` do; returns the written paths."""
    if WORKLOADS[workload][1] is None:
        return harness.emit_plot_data(points, prefix, outdir)
    path = os.path.join(outdir, "%s.csv" % workload)
    with open(path, "w") as fh:
        fh.write(harness.sweep_csv(points))
    return [path]


def check_reports(points):
    """Range checks on every report; returns a list of violations."""
    errors = []
    for pt in points:
        r = pt.result.report
        checks = {
            "eta in (0, 1.001]": 0.0 < r.eta <= 1.001,
            "p_l in [0, 1)": 0.0 <= r.p_l < 1.0,
            "b_norm in [0, 1]": 0.0 <= r.b_norm <= 1.0,
            "f_lt in (0, 1]": r.f_lt is not None and 0.0 < r.f_lt <= 1.0 + 1e-12,
            "per-flow throughput >= 0": all(x >= 0.0 for _, _, x in r.per_flow),
        }
        errors += ["%s: %s" % (r.scenario_id, name)
                   for name, ok in checks.items() if not ok]
    return errors


def count_packets(harness, transport):
    """Hook FlowEndpoint's constructor and run_scenario so that the data
    packets each scenario's flows sent are summed when it ends. Only the
    running scenario's flows are held, so the hook keeps no memory alive.
    Returns a one-element list holding the running total."""
    total, flows = [0], []
    init, run_scenario = transport.FlowEndpoint.__init__, harness.run_scenario

    def hooked_init(flow, *args, **kwargs):
        init(flow, *args, **kwargs)
        flows.append(flow)

    def hooked_run_scenario(*args, **kwargs):
        try:
            return run_scenario(*args, **kwargs)
        finally:
            total[0] += sum(getattr(f, "packets_sent", 0) for f in flows)
            flows.clear()

    transport.FlowEndpoint.__init__ = hooked_init
    harness.run_scenario = hooked_run_scenario
    return total


def digest_files(paths):
    out = {}
    for path in sorted(paths):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", required=True, help="directory for the outputs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import lbesim
    import numpy
    from lbesim import harness, transport
    if not os.path.abspath(lbesim.__file__).startswith(SRC + os.sep):
        raise SystemExit("lbesim imported from %s, not from %s" % (lbesim.__file__, SRC))
    spec, prefix = build(harness, args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "numpy": numpy.__version__,
              "runs": len(spec.values) * spec.repeat}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    os.makedirs(args.out, exist_ok=True)
    packets = count_packets(harness, transport)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    cpu0 = cpu_s()
    t1 = time.perf_counter()
    points = harness.run_sweep(spec, scenario_prefix=prefix)
    if tracer is None:
        paths = emit(harness, args.workload, prefix, points, args.out)
    else:
        paths = tracer.span("harness.emit", emit, harness, args.workload,
                            prefix, points, args.out)
    wall_s = time.perf_counter() - t1
    cpu = cpu_s() - cpu0
    if tracer is not None:
        tracer.uninstall()

    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu,
        "runs": len(points),
        "packets": packets[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(os.path.getsize(p) for p in paths),
        "digests": digest_files(paths),
        "errors": check_reports(points),
    })
    if tracer is not None:
        layer = tracer.metrics(wall_s)
        result["layer"] = layer
        result["errors"] += tracer.reconcile(layer, wall_s)
        result["handlers"] = {kind: {"count": c, "total_s": t * 1e-9}
                              for kind, (c, t) in sorted(tracer.handlers.items())}
        result["spans"] = tracer.span_records()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
