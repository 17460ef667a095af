"""Scenario catalog and experiment driver: declarative configs that build
the dumbbell, attach flows, run the engine and produce metric reports,
sweep CSVs and cwnd traces.

Config files are flat, line-oriented key=value documents with dotted paths
(e.g. flows.0.protocol=ledbat); the grammar is documented in the README.
"""

import copy
import math
from dataclasses import dataclass, field

from . import engine, metrics
from .controllers import ParamError, make_controller
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
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


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
        for name in ("capacity_bps", "fwd_prop_delay_s", "buffer_pkts",
                     "pkt_size_bytes", "horizon_s"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ConfigError("%s must be finite and positive, got %r"
                                  % (name, value), key=name)
        if not self.flows:
            raise ConfigError("scenario needs at least one flow")
        for i, fc in enumerate(self.flows):
            if fc.protocol not in PROTOCOLS:
                raise ConfigError("flows.%d.protocol: unknown protocol %r"
                                  % (i, fc.protocol), key="flows.%d.protocol" % i)
            for name in ("extra_return_delay_s", "start_at"):
                value = getattr(fc, name)
                if not (_finite(value) and value >= 0):
                    raise ConfigError("flows.%d.%s: delays must be finite and "
                                      "non-negative, got %r" % (i, name, value),
                                      key="flows.%d.%s" % (i, name))
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
        params = dict(fc.params)
        if fc.protocol == "ledbat" and "T_pct" in params:
            params["_scenario"] = (self.capacity_bps, self.pkt_size_bytes,
                                   self.buffer_pkts)
        return make_controller(fc.protocol, params)


# -- config text grammar -------------------------------------------------

# key -> True for a count, False for a real number
_TOP_KEYS = {
    "capacity_bps": False,
    "fwd_prop_delay_ms": False,
    "buffer_pkts": True,
    "pkt_size_bytes": True,
    "horizon_s": False,
}
_FLOW_KEYS = ("protocol", "start_at", "extra_return_delay_ms")


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


def _number(val, count=False):
    """A parsed value as a number; ValueError for text or a bool, and for a
    fractional count, rather than a silent coercion."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError("expected a number, got %r" % (val,))
    if count:
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
    """Parse and validate a key=value scenario document. Unknown keys are
    rejected; errors carry the offending line number or field name."""
    cfg = ScenarioConfig()
    flows = {}
    lines = {}  # config field -> line that set it
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, val = line.partition("=")
        key = key.strip()
        val = _parse_value(val)
        parts = key.split(".")
        try:
            if parts[0] in _TOP_KEYS and len(parts) == 1:
                field = key
                val = _number(val, _TOP_KEYS[key])
                if key == "fwd_prop_delay_ms":
                    field = "fwd_prop_delay_s"
                    val = val / 1000.0
                setattr(cfg, field, val)
            elif parts[0] == "flows" and len(parts) >= 3:
                idx = int(parts[1])
                fc = flows.setdefault(idx, FlowConfig(protocol="reno"))
                field = "flows.%d.%s" % (idx, ".".join(parts[2:]))
                if parts[2] == "params" and len(parts) == 4:
                    fc.params[parts[3]] = val
                elif parts[2] in _FLOW_KEYS and len(parts) == 3:
                    if parts[2] == "extra_return_delay_ms":
                        field = "flows.%d.extra_return_delay_s" % idx
                        fc.extra_return_delay_s = _number(val) / 1000.0
                    elif parts[2] == "start_at":
                        fc.start_at = _number(val)
                    else:
                        fc.protocol = str(val)
                else:
                    raise ConfigError("line %d: unknown key %r" % (lineno, key))
            else:
                raise ConfigError("line %d: unknown key %r" % (lineno, key))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError("line %d: bad value for %r: %s" % (lineno, key, exc))
        lines[field] = lineno
    if flows:
        indices = sorted(flows)
        if indices != list(range(len(indices))):
            raise ConfigError("flow indices must be contiguous from 0")
        cfg.flows = [flows[i] for i in indices]
    try:
        return cfg.validate()
    except ConfigError as exc:
        lineno = _line_of(exc.key, lines) if exc.key else None
        if lineno is None:
            raise
        raise ConfigError("line %d: %s" % (lineno, exc), key=exc.key) from exc


def set_param(cfg, path, value):
    """Set one dotted-path parameter on a copy of the config."""
    cfg = copy.deepcopy(cfg)
    parts = path.split(".")
    if parts[0] == "flows" and len(parts) >= 3:
        try:
            fc = cfg.flows[int(parts[1])]
        except (ValueError, IndexError):
            raise ConfigError("no such flow in axis path %r" % path)
        if parts[2] == "params" and len(parts) == 4:
            fc.params[parts[3]] = value
        elif parts[2] in ("protocol", "start_at", "extra_return_delay_s"):
            setattr(fc, parts[2], value)
        else:
            raise ConfigError("axis path %r does not resolve" % path)
    elif len(parts) == 1 and hasattr(cfg, parts[0]) and parts[0] != "flows":
        setattr(cfg, parts[0], value)
    else:
        raise ConfigError("axis path %r does not resolve" % path)
    return cfg


# -- running one scenario ------------------------------------------------

@dataclass
class RunResult:
    report: metrics.MetricsReport
    cwnd_traces: dict          # flow_id -> [(time_s, cwnd)]
    queue_samples: list        # (time_s, backlog)
    run_stats: engine.RunStats


def run_scenario(cfg, traces=False, scenario_id="scenario", extra_params=None,
                 event_log=None):
    """Build the dumbbell, run to the horizon and compute the metric suite.
    With traces on, per-flow cwnd series are sampled every 100 ms."""
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
    link.on_deliver = lambda p: flows[p.flow_id].on_data_arrival(p)
    for f in flows:
        f.start()

    cwnd_traces = {f.flow_id: [] for f in flows} if traces else {}

    def sample_tick():
        for f in flows:
            # packet conservation, checked at every sample
            if f.packets_sent != f.delivered_pkts + f.packets_dropped + f.in_network:
                raise AssertionError(
                    "conservation violated for flow %s" % f.flow_id)
            if f.in_network < 0:
                raise AssertionError("negative in-flight for flow %s" % f.flow_id)
            if traces:
                cwnd_traces[f.flow_id].append((sim.now, f.cwnd))
        if sim.now + SAMPLE_TICK_S <= cfg.horizon_s:
            sim.schedule_after(SAMPLE_TICK_S, engine.METRICS_SAMPLE_TICK,
                               sample_tick, label="sample")

    sim.schedule_at(0.0, engine.METRICS_SAMPLE_TICK, sample_tick, label="sample")
    stats = sim.run_until(cfg.horizon_s)

    counters = [metrics.FlowCounters(
        flow_id=f.flow_id,
        protocol=cfg.flows[i].protocol,
        bytes_delivered=f.bytes_goodput,
        packets_sent=f.packets_sent,
        packets_dropped=f.packets_dropped,
        deliveries=f.goodput_events,
    ) for i, f in enumerate(flows)]

    params = {"protocols": "+".join(fc.protocol for fc in cfg.flows)}
    params.update(extra_params or {})
    report = metrics.build_report(
        scenario_id, params, counters, link.queue_samples,
        cfg.buffer_pkts, cfg.horizon_s, cfg.capacity_bps)
    return RunResult(report=report, cwnd_traces=cwnd_traces,
                     queue_samples=link.queue_samples, run_stats=stats)


# -- sweeps --------------------------------------------------------------

@dataclass
class SweepSpec:
    base: ScenarioConfig
    axis: str                  # dotted parameter path, or "flows"
    values: list               # axis values; flow-config lists for "flows"
    repeat: int = 1
    labels: list = None        # optional per-value labels for reports
    traces: bool = False

    def point_config(self, value):
        if self.axis == "flows":
            cfg = copy.deepcopy(self.base)
            cfg.flows = copy.deepcopy(value)
            return cfg
        return set_param(self.base, self.axis, value)


@dataclass
class SweepPoint:
    axis_value: object
    label: str
    result: RunResult


def run_sweep(spec, scenario_prefix="sweep", event_log=None):
    """Run every point of a sweep, in order, as fully independent runs."""
    if spec.labels is not None and len(spec.labels) != len(spec.values):
        raise ConfigError("labels/values length mismatch")
    points = []
    for i, value in enumerate(spec.values):
        label = spec.labels[i] if spec.labels else _axis_label(spec.axis, value)
        for rep in range(spec.repeat):
            sid = "%s:%s" % (scenario_prefix, label)
            if spec.repeat > 1:
                sid += ":rep%d" % rep
            try:
                result = run_scenario(
                    spec.point_config(value), traces=spec.traces,
                    scenario_id=sid,
                    extra_params={"axis": spec.axis if spec.axis != "flows" else "flows",
                                  "value": label},
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
    lines = [",".join(metrics.MetricsReport.CSV_COLUMNS) + ",per_flow_throughput_bps..."]
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
                repeat = _number(_parse_value(val), count=True)
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

def _ledbat(tau_ms=25.0, **extra):
    params = {"tau_ms": tau_ms, "G": 1.0}
    params.update(extra)
    return FlowConfig("ledbat", params)


def _flow(protocol):
    if protocol == "ledbat":
        return _ledbat()
    return FlowConfig(protocol)


def expand_experiment(experiment_id, protocol=None):
    """Expand a figure id into a fully determined SweepSpec. Expansion is
    pure: the same id always yields the same spec."""
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
        base.flows = [_flow("reno"), _ledbat()]
        return SweepSpec(base, "flows.1.params.G", [1.0, 2.0, 5.0, 10.0])
    if experiment_id == "fig2_target":
        base.flows = [_flow("reno"),
                      FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0})]
        values = [2, 5, 10, 15, 18, 20, 25, 30, 40, 50, 60, 65, 70, 80,
                  90, 100, 110, 120, 135, 150]
        return SweepSpec(base, "flows.1.params.T_pct", [float(v) for v in values])
    if experiment_id == "fig3_gain_ratio":
        base.flows = [_ledbat(), _ledbat()]
        return SweepSpec(base, "flows.0.params.G", [1.0, 2.0, 5.0, 10.0])
    if experiment_id == "fig3_target_ratio":
        base.flows = [FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0}),
                      FlowConfig("ledbat", {"T_pct": 20.0, "G": 1.0})]
        ratios = [1.0, 1.5, 2.0, 4.0, 5.0, 10.0]
        return SweepSpec(base, "flows.0.params.T_pct",
                         [20.0 * r for r in ratios],
                         labels=["ratio=%g" % r for r in ratios])
    if experiment_id == "fig4":
        if protocol not in PROTOCOLS:
            raise ConfigError("fig4 needs --protocol (lp|nice|ledbat|reno)")
        values, labels = [], []
        for n in range(1, 11):
            if protocol == "reno":
                values.append([_flow("reno") for _ in range(n + 1)])
            else:
                values.append([_flow("reno")] + [_flow(protocol) for _ in range(n)])
            labels.append("N=%d" % n)
        return SweepSpec(base, "flows", values, labels=labels)
    if experiment_id == "fig5":
        values, labels = [], []
        for k in range(1, 6):
            if protocol == "reno":
                values.append([_flow("reno") for _ in range(3 * k)])
            else:
                mix = []
                for proto in ("lp", "ledbat", "nice"):
                    mix.extend(_flow(proto) for _ in range(k))
                values.append(mix)
            labels.append("k=%d" % k)
        return SweepSpec(base, "flows", values, labels=labels)
    if experiment_id == "fig6":
        if protocol not in PROTOCOLS:
            raise ConfigError("fig6 needs --protocol (lp|nice|ledbat|reno)")
        base.flows = [_flow(protocol), _flow(protocol)]
        ratios = list(range(1, 11))
        base_rtt = 2.0 * base.fwd_prop_delay_s
        return SweepSpec(base, "flows.0.extra_return_delay_s",
                         [(r - 1) * base_rtt for r in ratios],
                         labels=["rtt_ratio=%d" % r for r in ratios])
    raise ConfigError("unknown experiment id %r (known: %s)"
                      % (experiment_id, ", ".join(EXPERIMENT_IDS)))


# -- plot data emission --------------------------------------------------

def emit_plot_data(points, figure_id, outdir):
    """Write a per-figure CSV (x axis = swept value, one column per metric)
    plus a companion gnuplot script; for trace experiments, also the
    per-flow (time, cwnd) series."""
    import os

    if not points:
        raise ConfigError("no reports to emit")
    os.makedirs(outdir, exist_ok=True)
    written = []

    max_flows = max(len(pt.result.report.per_flow) for pt in points)
    csv_path = os.path.join(outdir, "%s.csv" % figure_id)
    with open(csv_path, "w") as fh:
        cols = ["axis", "eta", "tcp_pct", "f_lt", "f_st", "b_norm", "p_l"]
        cols += ["x%d_bps" % i for i in range(max_flows)]
        fh.write(",".join(cols) + "\n")
        for pt in points:
            r = pt.result.report
            cells = [pt.label, metrics._fmt(r.eta), metrics._fmt(r.tcp_pct),
                     metrics._fmt(r.f_lt), metrics._fmt(r.f_st),
                     metrics._fmt(r.b_norm), metrics._fmt(r.p_l)]
            rates = [x for _, _, x in r.per_flow]
            cells += [metrics._fmt(x) for x in rates]
            cells += [""] * (max_flows - len(rates))
            fh.write(",".join(cells) + "\n")
    written.append(csv_path)

    for pt in points:
        for fid, series in sorted(pt.result.cwnd_traces.items()):
            tpath = os.path.join(outdir, "%s_%s_flow%d_cwnd.csv"
                                 % (figure_id, pt.label, fid))
            with open(tpath, "w") as fh:
                fh.write("time_s,cwnd_pkts\n")
                for t, w in series:
                    fh.write("%.3f,%.6f\n" % (t, w))
            written.append(tpath)

    plt_path = os.path.join(outdir, "%s.plt" % figure_id)
    with open(plt_path, "w") as fh:
        fh.write('set datafile separator ","\n')
        fh.write('set key outside\n')
        fh.write('set title "%s"\n' % figure_id)
        series = ", ".join(
            '"%s.csv" using 0:%d:xtic(1) with linespoints title "%s"'
            % (figure_id, i + 2, name)
            for i, name in enumerate(("eta", "tcp_pct", "f_lt", "f_st",
                                      "b_norm", "p_l")))
        fh.write("plot %s\n" % series)
    written.append(plt_path)
    return written
