"""Scenario catalog and experiment driver: declarative configs that build
the dumbbell, attach flows, run the engine and produce metric reports,
sweep CSVs and cwnd traces.

Config files are flat, line-oriented key=value documents with dotted paths
(e.g. flows.0.protocol=ledbat); the grammar is documented in the README.
"""

import copy
import os
import sys
from collections import defaultdict
from dataclasses import dataclass, field, replace

from . import engine, metrics
from .controllers import GainTargetCoords, ParamError, make_controller
from .engine import Simulator
from .network import BottleneckLink
from .transport import FlowEndpoint

SAMPLE_TICK_S = 0.1

PROTOCOLS = ("reno", "lp", "nice", "ledbat")

EXPERIMENT_IDS = ("fig1", "fig2_gain", "fig2_target", "fig3_gain_ratio",
                  "fig3_target_ratio", "fig4", "fig5", "fig6")


class ConfigError(ValueError):
    """Bad scenario input. `key` is the dotted config field at fault, if
    one is; load_scenario uses it to name the line that set it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def _finite(value):
    """A number, not a bool, that a float holds finitely (so no huge int)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# kind -> what a field of that kind must hold, in words and as a test
_KINDS = {
    "positive": ("finite and positive", lambda v: _finite(v) and v > 0),
    "count": ("a positive whole number", lambda v: _finite(v) and v > 0 and v == int(v)),
    "delay": ("finite and non-negative", lambda v: _finite(v) and v >= 0),
    "protocol": ("one of " + ", ".join(PROTOCOLS), lambda v: v in PROTOCOLS),
}

# Every scenario field by dotted path, with its kind. N stands for a flow
# index and <name> for a controller parameter, which make_controller
# checks. validate, load_scenario and set_param all read this table.
FIELDS = {
    "capacity_bps": "positive",
    "fwd_prop_delay_s": "positive",
    "buffer_pkts": "count",
    "pkt_size_bytes": "count",
    "horizon_s": "positive",
    "flows.N.protocol": "protocol",
    "flows.N.start_at": "delay",
    "flows.N.extra_return_delay_s": "delay",
    "flows.N.params.<name>": "param",
}


@dataclass
class FlowConfig:
    protocol: str
    params: dict = field(default_factory=dict)
    extra_return_delay_s: float = 0.0
    start_at: float = 0.0


@dataclass
class ScenarioConfig:
    capacity_bps: float = 10e6
    fwd_prop_delay_s: float = 0.025
    buffer_pkts: int = 100
    pkt_size_bytes: int = 1500
    horizon_s: float = 120.0
    flows: list = field(default_factory=list)

    def validate(self):
        for path, kind in FIELDS.items():
            if not path.startswith("flows."):
                _check(path, kind, getattr(self, path))
        if not (isinstance(self.flows, (list, tuple))
                and all(isinstance(fc, FlowConfig) for fc in self.flows)):
            raise ConfigError("flows must be a list of flow configs, got %r"
                              % (self.flows,), key="flows")
        if not self.flows:
            raise ConfigError("scenario needs at least one flow")
        for i, fc in enumerate(self.flows):
            for path, kind in FIELDS.items():
                if path.startswith("flows.N.") and kind != "param":
                    name = path[len("flows.N."):]
                    _check("flows.%d.%s" % (i, name), kind, getattr(fc, name))
            if fc.start_at >= self.horizon_s:
                raise ConfigError("flows.%d.start_at: %g is not before the "
                                  "horizon %g" % (i, fc.start_at, self.horizon_s),
                                  key="flows.%d.start_at" % i)
            try:
                self.build_controller(fc)
            except ValueError as exc:
                key = "flows.%d.params" % i
                if isinstance(exc, ParamError):
                    key += "." + exc.param
                raise ConfigError("flows.%d.params: %s" % (i, exc), key=key) from exc
        return self

    def build_controller(self, fc):
        """Flow fc's controller; a T_pct is a share of this buffer's delay."""
        return make_controller(fc.protocol, fc.params, GainTargetCoords.buffer_delay_s(
            self.capacity_bps, self.pkt_size_bytes, self.buffer_pkts))


def _check(path, kind, value):
    need, ok = _KINDS[kind]
    if not ok(value):
        raise ConfigError("%s must be %s, got %r" % (path, need, value), key=path)


def _field(path):
    """Resolve a dotted field path to (kind, flow index or None, field or
    parameter name); ConfigError if the path names no field."""
    parts = path.split(".")
    if len(parts) == 1 and path in FIELDS:
        return FIELDS[path], None, path
    if len(parts) > 2 and parts[0] == "flows":
        try:
            idx = int(parts[1])
        except ValueError:
            idx = -1
        rest = ("params.<name>" if parts[2] == "params" and len(parts) == 4
                else ".".join(parts[2:]))
        if idx >= 0 and "flows.N." + rest in FIELDS:
            return FIELDS["flows.N." + rest], idx, parts[-1]
    raise ConfigError("%r names no scenario field" % path)


def _assign(cfg, path, value, convert=None):
    """Set the field that dotted `path` names to value, or to
    convert(kind, value), in place; return the path with the flow index in
    plain decimal. ConfigError if no field or flow of cfg has that path."""
    kind, idx, name = _field(path)
    if convert is not None:
        value = convert(kind, value)
    if idx is None:
        setattr(cfg, name, value)
        return path
    try:
        fc = cfg.flows[idx]
    except IndexError:
        raise ConfigError("%r: the scenario has no flow %d" % (path, idx)) from None
    if kind == "param":
        fc.params[name] = value
    else:
        setattr(fc, name, value)
    return "flows.%d.%s" % (idx, path.split(".", 2)[2])


# -- config text grammar -------------------------------------------------

def _parse_value(text):
    t = text.strip()
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    for conv in (int, float):
        try:
            return conv(t)
        except ValueError:
            pass
    return t


def _from_text(kind, val):
    """A value parsed from config text as a field of `kind` holds it;
    ValueError for text or a bool where a number belongs and for a
    fractional count, rather than a silent coercion."""
    if kind == "param":
        return val
    if kind == "protocol":
        return str(val)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError("expected a number, got %r" % (val,))
    if kind == "count":
        if isinstance(val, float) and not val.is_integer():
            raise ValueError("expected a whole number, got %r" % (val,))
        return int(val)
    return float(val)


def _line_of(key, lines):
    """Line that set config field `key`, or the first line that set a field
    below it; None if no line did."""
    if key in lines:
        return lines[key]
    below = [n for k, n in lines.items() if k.startswith(key + ".")]
    return min(below) if below else None


def load_scenario(text):
    """Parse and validate a key=value scenario document. Each key is a field
    path, except that the text gives the two delays in ms. Unknown keys are
    rejected; errors carry the offending line number or field name."""
    ms_names = {"fwd_prop_delay_ms": "fwd_prop_delay_s",
                "extra_return_delay_ms": "extra_return_delay_s"}
    cfg = ScenarioConfig(flows=defaultdict(lambda: FlowConfig(protocol="reno")))
    lines = {}  # config field -> line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip()
        path, convert = key, _from_text
        head, dot, name = key.rpartition(".")
        if not head.endswith(".params"):  # a field: text gives its delays in ms
            if name in ms_names.values():
                raise ConfigError("line %d: unknown key %r" % (lineno, key))
            if name in ms_names:
                path = head + dot + ms_names[name]
                convert = lambda kind, v: _from_text(kind, v) / 1000.0
        try:
            lines[_assign(cfg, path, _parse_value(val), convert)] = lineno
        except ConfigError:
            raise ConfigError("line %d: unknown key %r" % (lineno, key)) from None
        except (OverflowError, ValueError) as exc:  # an int too large for a float
            raise ConfigError("line %d: bad value for %r: %s" % (lineno, key, exc))
    indices = sorted(cfg.flows)
    if indices != list(range(len(indices))):
        raise ConfigError("flow indices must be contiguous from 0")
    cfg.flows = [cfg.flows[i] for i in indices]
    try:
        return cfg.validate()
    except ConfigError as exc:
        lineno = _line_of(exc.key, lines) if exc.key else None
        if lineno is None:
            raise
        raise ConfigError("line %d: %s" % (lineno, exc), key=exc.key) from exc


def set_param(cfg, path, value):
    """Set one field, named by its dotted path, on a copy of the config."""
    cfg = copy.deepcopy(cfg)
    _assign(cfg, path, value)
    return cfg


# -- running one scenario ------------------------------------------------

@dataclass
class RunResult:
    report: metrics.MetricsReport
    cwnd_traces: dict          # flow_id -> [(time_s, cwnd)]; {} with traces off
    queue_samples: list        # [(time_s, backlog)] every 100 ms; None with traces off
    run_stats: engine.RunStats


def run_scenario(cfg, traces=False, scenario_id="scenario", extra_params=None,
                 event_log=None):
    """Build the dumbbell, run to the horizon and compute the metric suite.
    With traces on, each flow's cwnd and the link's backlog (waiting
    packets, the transmitting one excluded) are sampled every 100 ms."""
    cfg.validate()
    sim = Simulator(trace=event_log)
    link = BottleneckLink(sim, cfg.capacity_bps, cfg.fwd_prop_delay_s,
                          cfg.buffer_pkts)
    flows = []
    for i, fc in enumerate(cfg.flows):
        ctl = cfg.build_controller(fc)
        flows.append(FlowEndpoint(
            sim, link, flow_id=i, controller=ctl,
            pkt_size_bytes=cfg.pkt_size_bytes,
            return_delay_s=cfg.fwd_prop_delay_s + fc.extra_return_delay_s,
            start_at=fc.start_at))
    horizon_ns = engine.to_ns(cfg.horizon_s)
    for f in flows:
        link.connect(f.flow_id, f.on_data_arrival, f.pkt_size)
        f.horizon_ns = horizon_ns
        f.start()

    cwnd_traces = {f.flow_id: [] for f in flows} if traces else {}
    queue_samples = [] if traces else None

    def sample_tick():
        for f in flows:
            # packet conservation, checked at every sample
            if f.packets_sent != f.delivered_pkts + f.packets_dropped + f.in_network:
                raise AssertionError(
                    "conservation violated for flow %s" % f.flow_id)
            if f.in_network < 0:
                raise AssertionError("negative in-flight for flow %s" % f.flow_id)
        if traces:
            for f in flows:
                cwnd_traces[f.flow_id].append((sim.now, f.cwnd))
            queue_samples.append((sim.now, len(link.queue)))
        if sim.now + SAMPLE_TICK_S <= cfg.horizon_s:
            sim.schedule_after(SAMPLE_TICK_S, engine.METRICS_SAMPLE_TICK,
                               sample_tick, label="sample")

    sim.schedule_at(0.0, engine.METRICS_SAMPLE_TICK, sample_tick, label="sample")
    stats = sim.run_until(cfg.horizon_s)

    counters = [metrics.FlowCounters(
        flow_id=f.flow_id,
        protocol=cfg.flows[i].protocol,
        bytes_delivered=sum(f.window_bytes.values()),
        packets_sent=f.packets_sent,
        packets_dropped=f.packets_dropped,
        window_bytes=f.window_bytes,
    ) for i, f in enumerate(flows)]

    params = {"protocols": "+".join(fc.protocol for fc in cfg.flows)}
    params.update(extra_params or {})
    report = metrics.build_report(
        scenario_id, params, counters, link.backlog_sum,
        link.total_enqueued + link.total_dropped, link.backlog_peak,
        cfg.buffer_pkts, cfg.horizon_s, cfg.capacity_bps)
    return RunResult(report=report, cwnd_traces=cwnd_traces,
                     queue_samples=queue_samples, run_stats=stats)


# -- sweeps --------------------------------------------------------------

@dataclass
class SweepSpec:
    base: ScenarioConfig
    axis: str                  # a field path (see FIELDS), or "flows"
    values: list               # axis values; flow-config lists for "flows"
    repeat: int = 1
    labels: list = None        # optional per-value labels for reports
    traces: bool = False

    def point_config(self, value):
        if self.axis == "flows":
            return replace(self.base, flows=copy.deepcopy(value))
        return set_param(self.base, self.axis, value)


@dataclass
class SweepPoint:
    axis_value: object
    label: str
    result: RunResult


def run_sweep(spec, scenario_prefix="sweep", event_log=None):
    """Validate every point of a sweep, then run each, in order, on its own."""
    if spec.labels is not None and len(spec.labels) != len(spec.values):
        raise ConfigError("labels/values length mismatch")
    labels = spec.labels or [_axis_label(spec.axis, v) for v in spec.values]
    configs = []
    for value, label in zip(spec.values, labels):
        try:
            configs.append(spec.point_config(value).validate())
        except ConfigError as exc:
            raise ConfigError("sweep point %s: %s" % (label, exc), key=exc.key) from exc
    points = []
    for cfg, value, label in zip(configs, spec.values, labels):
        for rep in range(spec.repeat):
            sid = "%s:%s" % (scenario_prefix, label)
            if spec.repeat > 1:
                sid += ":rep%d" % rep
            try:
                result = run_scenario(
                    cfg, traces=spec.traces, scenario_id=sid,
                    extra_params={"axis": spec.axis, "value": label},
                    event_log=event_log)
            except Exception as exc:
                raise RuntimeError("sweep point %s failed: %r" % (label, exc)) from exc
            points.append(SweepPoint(axis_value=value, label=label, result=result))
    return points


def _axis_label(axis, value):
    if axis == "flows":
        return "+".join(fc.protocol for fc in value)
    return "%g" % value if isinstance(value, (int, float)) else str(value)


def sweep_csv(points):
    """One MetricsReport row per sweep point, byte-stable across reruns."""
    lines = [metrics.MetricsReport.CSV_HEADER]
    for pt in points:
        lines.append(pt.result.report.csv_row())
    return "\n".join(lines) + "\n"


def load_sweep(text):
    """Parse a sweep spec document: axis=, values= (comma separated) and
    optional repeat=, on top of an ordinary scenario config. Every point
    is validated before any runs; errors name the line at fault."""
    axis = values = None
    repeat = 1
    values_line = None
    config_lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        key, _, val = raw.strip().partition("=")
        key = key.strip()
        if key not in ("axis", "values", "repeat"):
            config_lines.append(raw)
            continue
        config_lines.append("")  # keeps the scenario lines' numbers
        if key == "axis":
            axis = val.strip()
        elif key == "values":
            values = [_parse_value(v) for v in val.split(",")]
            values_line = lineno
        else:
            try:
                repeat = _from_text("count", _parse_value(val))
            except ValueError as exc:
                raise ConfigError("line %d: bad value for 'repeat': %s" % (lineno, exc))
            if repeat < 1:
                raise ConfigError("line %d: repeat must be at least 1" % lineno)
    if axis is None or not values:
        raise ConfigError("sweep spec needs axis= and values=")
    base = load_scenario("\n".join(config_lines))
    spec = SweepSpec(base=base, axis=axis, values=values, repeat=repeat)
    for value in values:
        try:
            spec.point_config(value).validate()
        except ConfigError as exc:
            raise ConfigError("line %d: %s=%r: %s" % (values_line, axis, value, exc),
                              key=exc.key) from exc
    return spec


# -- experiment catalog --------------------------------------------------

def _flow(protocol):
    if protocol == "ledbat":
        return FlowConfig("ledbat", {"tau_ms": 25.0, "G": 1.0})
    return FlowConfig(protocol)


def expand_experiment(experiment_id, protocol=None):
    """Expand a figure id into a fully determined SweepSpec. Expansion is
    pure: the same id always yields the same spec. fig4 and fig6 need a
    protocol, fig5 takes "reno" for its all-Reno baseline, and the other
    figures take none."""
    if (protocol is not None and experiment_id in EXPERIMENT_IDS
            and experiment_id not in ("fig4", "fig6")
            and (experiment_id, protocol) != ("fig5", "reno")):
        raise ConfigError("%s does not take --protocol %s (fig4 and fig6 need "
                          "one, fig5 takes only reno)" % (experiment_id, protocol))
    if experiment_id in ("fig4", "fig6") and protocol not in PROTOCOLS:
        raise ConfigError("%s needs --protocol (lp|nice|ledbat|reno)" % experiment_id)
    base = ScenarioConfig()
    if experiment_id == "fig1":
        values, labels = [], []
        for lbe in ("lp", "nice", "ledbat"):
            values.append([_flow("reno"), _flow(lbe)])
            labels.append("reno-%s" % lbe)
            values.append([_flow(lbe), _flow(lbe)])
            labels.append("%s-%s" % (lbe, lbe))
        return SweepSpec(base, "flows", values, labels=labels, traces=True)
    if experiment_id == "fig2_gain":
        base.flows = [_flow("reno"), _flow("ledbat")]
        return SweepSpec(base, "flows.1.params.G", [1.0, 2.0, 5.0, 10.0])
    if experiment_id == "fig2_target":
        base.flows = [_flow("reno"),
                      FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0})]
        values = [2, 5, 10, 15, 18, 20, 25, 30, 40, 50, 60, 65, 70, 80,
                  90, 100, 110, 120, 135, 150]
        return SweepSpec(base, "flows.1.params.T_pct", [float(v) for v in values])
    if experiment_id == "fig3_gain_ratio":
        base.flows = [_flow("ledbat"), _flow("ledbat")]
        return SweepSpec(base, "flows.0.params.G", [1.0, 2.0, 5.0, 10.0])
    if experiment_id == "fig3_target_ratio":
        base.flows = [FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0}),
                      FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0})]
        ratios = [1.0, 1.5, 2.0, 4.0, 5.0, 10.0]
        return SweepSpec(base, "flows.0.params.T_pct",
                         [20.0 * r for r in ratios],
                         labels=["ratio=%g" % r for r in ratios])
    if experiment_id == "fig4":  # one reno flow and n of the protocol's
        values = [[_flow("reno")] + [_flow(protocol) for _ in range(n)]
                  for n in range(1, 11)]
        return SweepSpec(base, "flows", values,
                         labels=["N=%d" % n for n in range(1, 11)])
    if experiment_id == "fig5":  # k flows of each of three protocols
        mix = ("reno",) * 3 if protocol == "reno" else ("lp", "ledbat", "nice")
        values = [[_flow(p) for p in mix for _ in range(k)] for k in range(1, 6)]
        return SweepSpec(base, "flows", values,
                         labels=["k=%d" % k for k in range(1, 6)])
    if experiment_id == "fig6":
        base.flows = [_flow(protocol), _flow(protocol)]
        ratios = list(range(1, 11))
        base_rtt = 2.0 * base.fwd_prop_delay_s
        return SweepSpec(base, "flows.0.extra_return_delay_s",
                         [(r - 1) * base_rtt for r in ratios],
                         labels=["rtt_ratio=%d" % r for r in ratios])
    raise ConfigError("unknown experiment id %r (known: %s)"
                      % (experiment_id, ", ".join(EXPERIMENT_IDS)))


# -- plot data and trace emission ----------------------------------------

def write_traces(outdir, cwnd_traces, queue_samples=None, prefix=""):
    """Write `<prefix>flow<i>_cwnd.csv` for each flow and, given a queue
    series, `<prefix>queue.csv` into outdir; return their paths."""
    files = [("flow%d_cwnd.csv" % fid, "time_s,cwnd_pkts\n", "%.3f,%.6f\n", series)
             for fid, series in sorted(cwnd_traces.items())]
    if queue_samples is not None:
        files.append(("queue.csv", "time_s,backlog_pkts\n", "%.6f,%d\n", queue_samples))
    paths = []
    for name, header, row, series in files:
        paths.append(os.path.join(outdir, prefix + name))
        with open(paths[-1], "w") as fh:
            fh.write(header)
            fh.writelines(row % r for r in series)
    return paths


def emit_plot_data(points, figure_id, outdir):
    """Write a per-figure CSV (x axis = swept value, one column per metric)
    plus a companion gnuplot script; for trace experiments, also the
    per-flow (time, cwnd) series."""
    if not points:
        raise ConfigError("no reports to emit")
    os.makedirs(outdir, exist_ok=True)
    written = []

    max_flows = max(len(pt.result.report.per_flow) for pt in points)
    csv_path = os.path.join(outdir, "%s.csv" % figure_id)
    with open(csv_path, "w") as fh:
        cols = ["axis"] + list(metrics.MetricsReport.CSV_COLUMNS[2:])
        cols += ["x%d_bps" % i for i in range(max_flows)]
        fh.write(",".join(cols) + "\n")
        for pt in points:
            r = pt.result.report
            cells = [pt.label] + r.metric_cells() + [""] * (max_flows - len(r.per_flow))
            fh.write(",".join(cells) + "\n")
    written.append(csv_path)

    for pt in points:
        written += write_traces(outdir, pt.result.cwnd_traces,
                                prefix="%s_%s_" % (figure_id, pt.label))

    plt_path = os.path.join(outdir, "%s.plt" % figure_id)
    with open(plt_path, "w") as fh:
        fh.write('set datafile separator ","\n')
        fh.write('set key outside\n')
        fh.write('set title "%s"\n' % figure_id)
        series = ", ".join(
            '"%s.csv" using 0:%d:xtic(1) with linespoints title "%s"'
            % (figure_id, i + 2, name)
            for i, name in enumerate(metrics.MetricsReport.CSV_COLUMNS[2:]))
        fh.write("plot %s\n" % series)
    written.append(plt_path)
    return written
