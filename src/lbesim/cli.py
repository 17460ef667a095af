"""Command line front end: run one scenario, a sweep, or a catalog
experiment, emitting CSV reports and optional traces."""

import argparse
import contextlib
import os
import sys

from . import harness


def _add_common(p):
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write outputs into DIR (default: CSV to stdout)")
    p.add_argument("--format", choices=["csv"], default="csv")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted but unused by the deterministic core")
    p.add_argument("--event-log", default=None, metavar="PATH",
                   help="debug event log, one line per event; a sweep's "
                        "runs follow each other, each from t=0")


def build_parser():
    ap = argparse.ArgumentParser(prog="lbesim")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--traces", action="store_true",
                       help="also write each flow's cwnd and the queue "
                            "backlog every 100 ms")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec")
    p_sweep.add_argument("spec")
    _add_common(p_sweep)

    p_exp = sub.add_parser("experiment", help="run a catalog experiment")
    p_exp.add_argument("id", choices=harness.EXPERIMENT_IDS)
    p_exp.add_argument("--protocol", choices=harness.PROTOCOLS, default=None)
    _add_common(p_exp)
    return ap


def _emit(text, out, filename):
    if out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, filename), "w") as fh:
            fh.write(text)


@contextlib.contextmanager
def _event_log(path):
    """Yield a writer for the event log at path, or None without one. Enter
    it only once the input has loaded: bad input must not wipe a log."""
    if path is None:
        yield None
    else:
        with open(path, "w") as log:
            yield lambda line: log.write(line + "\n")


def cmd_run(args):
    with open(args.config) as fh:
        cfg = harness.load_scenario(fh.read())
    with _event_log(args.event_log) as event_log:
        result = harness.run_scenario(
            cfg, traces=args.traces,
            scenario_id=os.path.basename(args.config), event_log=event_log)
    header = result.report.CSV_HEADER + "\n"
    _emit(header + result.report.csv_row() + "\n", args.out, "report.csv")
    if args.traces:
        harness.write_traces(args.out or ".", result.cwnd_traces,
                             result.queue_samples)
    return 0


def cmd_sweep(args):
    with open(args.spec) as fh:
        spec = harness.load_sweep(fh.read())
    with _event_log(args.event_log) as event_log:
        points = harness.run_sweep(spec, scenario_prefix=os.path.basename(args.spec),
                                   event_log=event_log)
    _emit(harness.sweep_csv(points), args.out, "sweep.csv")
    return 0


def cmd_experiment(args):
    spec = harness.expand_experiment(args.id, protocol=args.protocol)
    prefix = args.id if args.protocol is None else "%s-%s" % (args.id, args.protocol)
    with _event_log(args.event_log) as event_log:
        points = harness.run_sweep(spec, scenario_prefix=prefix, event_log=event_log)
    outdir = args.out or "out"
    written = harness.emit_plot_data(points, prefix, outdir)
    sys.stdout.write("\n".join(written) + "\n")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "sweep": cmd_sweep,
               "experiment": cmd_experiment}[args.command]
    try:
        return command(args)
    except (harness.ConfigError, OSError) as exc:
        sys.stderr.write("lbesim: %s\n" % exc)
        return 2
    except Exception as exc:
        sys.stderr.write("lbesim: internal error: %r\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
