"""Scenario catalog and experiment driver: declarative configs that build
the dumbbell, attach flows, run the engine and produce metric reports,
sweep CSVs and cwnd traces.

Config files are flat, line-oriented key=value documents with dotted paths
(e.g. flows.0.protocol=ledbat); the grammar is documented in the README.
"""

import copy
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, replace

from . import engine, metrics
from .controllers import (LedbatController, LpController, NiceController,
                          RenoController)
from .engine import Simulator
from .network import BottleneckLink
from .transport import FlowEndpoint

SAMPLE_TICK_S = 0.1
SAMPLE_TICK_NS = engine.to_ns(SAMPLE_TICK_S)
INF = float("inf")

# Each protocol's controller parameters: name -> (kind, default). LEDBAT's
# target is tau_ms or T_pct, a percentage of the time the full buffer takes
# to drain, and its gain gamma or G = gamma * tau; make_controller resolves
# each pair, and a default holds only where neither of its pair is given.
PARAMS = {
    "reno": {},
    "lp": {"alpha": ("(0, 1]", 0.125), "delta": ("[0, 1]", 0.15),
           "inference_rtts": ("positive", 3.0)},
    "nice": {"delta": ("[0, 1]", 0.2), "phi": ("[0, 1]", 0.5),
             "history_s": ("positive", 10.0), "increase_rate": ("non-negative", 20.0)},
    "ledbat": {"tau_ms": ("positive", 25.0), "T_pct": ("positive", None),
               "gamma": ("positive", None), "G": ("positive", 1.0),
               "slow_start": ("bool", False)},
}
PROTOCOLS = tuple(PARAMS)

EXPERIMENT_IDS = ("fig1", "fig2_gain", "fig2_target", "fig3_gain_ratio",
                  "fig3_target_ratio", "fig4", "fig5", "fig6")


class ConfigError(ValueError):
    """Bad scenario input. `key` is the dotted config field at fault, if
    one is; load_scenario uses it to name the line that set it."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


def shown(value, fmt=repr):
    """fmt(value), or the digit count of an int too long to print."""
    try:
        return fmt(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(value, int):
            from decimal import Decimal  # only this error path needs it
            return "<int of %d digits>" % (Decimal(value).adjusted() + 1)
        return "<%s holding an int too long to print>" % type(value).__name__


def _finite(value):
    """A number, not a bool, that a float holds finitely (so no huge int)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# The engine keeps time in integer nanoseconds, and each time is judged by
# the count it rounds to (engine.to_ns). A time field, and the time one
# packet takes to serialize, must be at most 2**63 ns (about 292 years, the
# range of a signed 64-bit count), so that none overflows on its way to
# nanoseconds, and at least 1 ns, so that none rounds to 0; a delay may be 0.
MAX_TIME_S = 2 ** 63 / engine.NS_PER_S

# kind -> what a field of that kind must hold, in words and as a test; the
# bounds in seconds come first, so that no huge value overflows in to_ns
_KINDS = {
    "positive": ("finite and positive", lambda v: _finite(v) and v > 0),
    "non-negative": ("finite and non-negative", lambda v: _finite(v) and v >= 0),
    "(0, 1]": ("in (0, 1]", lambda v: _finite(v) and 0 < v <= 1),
    "[0, 1]": ("in [0, 1]", lambda v: _finite(v) and 0 <= v <= 1),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "count": ("a positive whole number", lambda v: _finite(v) and v > 0 and v == int(v)),
    "time": ("at least 1 ns and at most 2**63 ns once rounded to whole ns",
             lambda v: _finite(v) and 0 < v <= MAX_TIME_S and engine.to_ns(v) >= 1),
    "delay": ("0, or at least 1 ns and at most 2**63 ns once rounded to whole ns",
              lambda v: (_finite(v) and v == 0) or _KINDS["time"][1](v)),
    "protocol": ("one of " + ", ".join(PROTOCOLS), lambda v: v in PROTOCOLS),
}

# Every scenario field by dotted path, with its kind. N stands for a flow
# index and <name> for a controller parameter, whose kind PARAMS gives by
# protocol. validate, load_scenario and set_param all read this table.
FIELDS = {
    "capacity_bps": "positive",
    "fwd_prop_delay_s": "time",
    "buffer_pkts": "count",
    "pkt_size_bytes": "count",
    "horizon_s": "time",
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
        self._controllers()
        return self

    def _controllers(self):
        """Validate the config and return fresh controllers for its flows."""
        for path, kind in FIELDS.items():
            if not path.startswith("flows."):
                _check(path, kind, getattr(self, path))
        _check("capacity_bps", "time",
               self.pkt_size_bytes * 8.0 / self.capacity_bps,
               "the serialization time of one %g-byte packet"
               % self.pkt_size_bytes)
        if not _flows(self):
            raise ConfigError("scenario needs at least one flow")
        drain_s = buffer_delay_s(self.capacity_bps, self.pkt_size_bytes, self.buffer_pkts)
        controllers = []
        for i, fc in enumerate(self.flows):
            for path, kind in FIELDS.items():
                if path.startswith("flows.N.") and kind != "param":
                    name = path[len("flows.N."):]
                    _check("flows.%d.%s" % (i, name), kind, getattr(fc, name))
            if engine.to_ns(fc.start_at) >= engine.to_ns(self.horizon_s):
                raise ConfigError("flows.%d.start_at: %g is not before the "
                                  "horizon %g" % (i, fc.start_at, self.horizon_s),
                                  key="flows.%d.start_at" % i)
            controllers.append(make_controller(fc.protocol, fc.params, drain_s,
                                               "flows.%d.params" % i))
            if fc.protocol == "lp":  # no RTT outlasts the run
                _check("flows.%d.params.inference_rtts" % i
                       if "inference_rtts" in fc.params else "horizon_s", "time",
                       controllers[-1].inference_rtts * self.horizon_s,
                       "the longest inference phase of flow %d "
                       "(inference_rtts * horizon_s)" % i)
        return controllers


def _flows(cfg):
    """cfg.flows; ConfigError unless it is a list of flow configs, each
    with a dict of parameters."""
    flows = cfg.flows
    for i, fc in enumerate(flows if isinstance(flows, (list, tuple)) else [None]):
        if not isinstance(fc, FlowConfig):
            raise ConfigError("flows must be a list of flow configs, got %s"
                              % shown(flows), key="flows")
        if not isinstance(fc.params, dict):
            at = "flows.%d.params" % i
            raise ConfigError("%s must be a dict, got %s" % (at, shown(fc.params)),
                              key=at)
    return flows


def _check(path, kind, value, of=None):
    """ConfigError naming field `path` unless value holds as a `kind`;
    `of` says what value is when it is not the field's own."""
    need, ok = _KINDS[kind]
    if not ok(value):
        what = path if of is None else "%s: %s" % (path, of)
        raise ConfigError("%s must be %s, got %s" % (what, need, shown(value)), key=path)


def buffer_delay_s(capacity_bps, pkt_size_bytes, buffer_pkts):
    """Time a full buffer takes to drain; a LEDBAT T_pct is a share of it.
    Infinite, not an OverflowError, for a buffer too large for a float."""
    return float(buffer_pkts) * pkt_size_bytes * 8.0 / capacity_bps


def make_controller(protocol, params=None, buffer_delay_s=None, at="params"):
    """Build a controller from a protocol tag and a dict of parameters (or
    None), checking each as field `at`.<name> of the kind PARAMS gives it; a
    LEDBAT T_pct is a percentage of buffer_delay_s, the time the full buffer
    takes to drain. Bad input raises ConfigError."""
    _check("protocol", "protocol", protocol)
    kinds = PARAMS[protocol]
    given = {} if params is None else params
    if not isinstance(given, dict):
        raise ConfigError("%s must be a dict, got %s" % (at, shown(params)), key=at)
    for name, value in given.items():
        path = "%s.%s" % (at, name)
        if name not in kinds:
            raise ConfigError("%s: %s takes no such parameter" % (path, protocol),
                              key=path)
        _check(path, kinds[name][0], value)
    p = {name: given.get(name, default) for name, (_, default) in kinds.items()}
    if protocol == "reno":
        return RenoController()
    if protocol == "lp":
        return LpController(**p)
    if protocol == "nice":
        return NiceController(**p)
    for one, other in (("tau_ms", "T_pct"), ("gamma", "G")):
        if one in given and other in given:
            raise ConfigError("%s: give %s or %s, not both" % (at, one, other),
                              key="%s.%s" % (at, other))
    target = at + (".T_pct" if "T_pct" in given else ".tau_ms")
    if "T_pct" in given:
        if buffer_delay_s is None:
            raise ConfigError("%s needs bottleneck parameters" % target, key=target)
        tau = p["T_pct"] / 100.0 * buffer_delay_s
    else:
        tau = p["tau_ms"] / 1000.0
    if not 0 < tau < INF:  # a tau_ms can underflow, a huge buffer overflow
        raise ConfigError("%s: ledbat target must be positive and finite" % at,
                          key=target)
    gamma = p["gamma"] if "gamma" in given else p["G"] / tau
    if not gamma < INF:  # G / tau: a given G, or else the target, is at fault
        raise ConfigError("%s: ledbat gain must be finite" % at,
                          key=at + ".G" if "G" in given else target)
    return LedbatController(tau=tau, gamma=gamma, slow_start=p["slow_start"])


def _field(path):
    """Resolve a dotted field path to (kind, flow index or None, field or
    parameter name); ConfigError if the path names no field."""
    parts = path.split(".")
    if len(parts) == 1 and path in FIELDS:
        return FIELDS[path], None, path
    if len(parts) > 2 and parts[0] == "flows":
        try:  # int() alone would take a sign, spaces, _ and any Unicode digit
            idx = int(parts[1]) if parts[1].isascii() and parts[1].isdigit() else -1
        except ValueError:  # more digits than int() converts
            idx = -1
        rest = ("params.<name>" if parts[2] == "params" and len(parts) == 4
                else ".".join(parts[2:]))
        if idx >= 0 and "flows.N." + rest in FIELDS:
            return FIELDS["flows.N." + rest], idx, parts[-1]
    raise ConfigError("%r names no scenario field" % path)


def _assign(cfg, path, value):
    """Set the field that dotted `path` names to value, in place; return
    the path with the flow index in plain decimal. ConfigError if no field
    or flow of cfg has that path, or, before any write to a flow, if cfg's
    flows are not flow configs with dicts of parameters."""
    kind, idx, name = _field(path)
    if idx is None:
        setattr(cfg, name, value)
        return path
    # _parse_scenario's flows: a defaultdict by index until it lists them
    flows = cfg.flows if isinstance(cfg.flows, defaultdict) else _flows(cfg)
    try:
        fc = flows[idx]
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


def _line_of(key, lines):
    """Line that set config field `key`, or the first line that set a field
    below it; None if no line did."""
    if key in lines:
        return lines[key]
    below = [n for k, n in lines.items() if k.startswith(key + ".")]
    return min(below) if below else None


def _entries(text):
    """(line number, key, value text) for each key=value line of config
    text; lines end only at newlines, as cli._read counts them."""
    for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, val = line.partition("=")
        yield lineno, key.strip(), val


def load_scenario(text):
    """Parse and validate a key=value scenario document. Each key is a field
    path, except that the text gives the two delays in ms. Unknown keys are
    rejected; errors carry the offending line number or field name."""
    return _validated(*_parse_scenario(_entries(text)))


def _parse_scenario(entries):
    """The config that _entries set, not yet validated, and the line that set
    each field. A value is what _parse_value gives, for validate to judge;
    only an ms key converts its value, a finite number, to seconds."""
    ms_names = {"fwd_prop_delay_ms": "fwd_prop_delay_s",
                "extra_return_delay_ms": "extra_return_delay_s"}
    cfg = ScenarioConfig(flows=defaultdict(lambda: FlowConfig(protocol="reno")))
    lines = {}  # config field -> line that set it
    for lineno, key, text in entries:
        path, value = key, _parse_value(text)
        head, dot, name = key.rpartition(".")
        if not head.endswith(".params"):  # a field: text gives its delays in ms
            if name in ms_names.values():
                raise ConfigError("line %d: unknown key %r" % (lineno, key))
            if name in ms_names:
                if not _finite(value):
                    raise ConfigError("line %d: bad value for %r: expected a number, "
                                      "got %s" % (lineno, key, shown(value)))
                path = head + dot + ms_names[name]
                value = value / 1000.0
        try:
            lines[_assign(cfg, path, value)] = lineno
        except ConfigError:
            raise ConfigError("line %d: unknown key %r" % (lineno, key)) from None
    indices = sorted(cfg.flows)
    for missing, idx in enumerate(indices):
        if idx != missing:
            raise ConfigError("line %d: flow indices must be contiguous from 0, "
                              "and flow %d is missing"
                              % (_line_of("flows.%d" % idx, lines), missing))
    cfg.flows = [cfg.flows[i] for i in indices]
    return cfg, lines


def _validated(cfg, lines):
    """cfg validated, with an error naming the line that set the field at
    fault."""
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
    """A run's report and engine stats and, with traces on, its 100 ms
    samples as columns: `sample_times` holds each tick's time once, and
    every series holds one value per tick, in the same order."""
    report: metrics.MetricsReport
    sample_times: array        # array('d') of time_s; None with traces off
    cwnd_traces: dict          # flow_id -> array('d') of cwnd; {} with traces off
    queue_samples: array       # array('q') of backlog; None with traces off
    run_stats: engine.RunStats


def run_scenario(cfg, traces=False, scenario_id="scenario", extra_params=None,
                 event_log=None):
    """Build the dumbbell, run to the horizon and compute the metric suite.
    With traces on, each flow's cwnd and the link's backlog (waiting
    packets, the transmitting one excluded) are sampled every 100 ms."""
    controllers = cfg._controllers()
    sim = Simulator(trace=event_log)
    link = BottleneckLink(cfg.capacity_bps, cfg.fwd_prop_delay_s,
                          cfg.buffer_pkts, cfg.pkt_size_bytes)
    horizon_ns = engine.to_ns(cfg.horizon_s)
    flows = []
    for i, (fc, ctl) in enumerate(zip(cfg.flows, controllers)):
        f = FlowEndpoint(sim, link, flow_id=i, controller=ctl,
                         return_delay_s=cfg.fwd_prop_delay_s + fc.extra_return_delay_s,
                         start_at=fc.start_at)
        f.horizon_ns = horizon_ns
        f.start()
        flows.append(f)

    sample_times, queue_samples, cwnd_traces = None, None, {}
    if traces:  # the sampler ticks only to fill these
        sample_times, queue_samples = array("d"), array("q")
        cwnd_traces = {f.flow_id: array("d") for f in flows}

        def sample_tick():
            sample_times.append(sim.now)
            for f in flows:
                cwnd_traces[f.flow_id].append(f.cwnd)
            queue_samples.append(link.backlog(sim.now_ns))
            next_ns = sim.now_ns + SAMPLE_TICK_NS
            if next_ns <= horizon_ns:
                sim.schedule_at_ns(next_ns, engine.METRICS_SAMPLE_TICK,
                                   sample_tick, label="sample")

        sim.schedule_at(0.0, engine.METRICS_SAMPLE_TICK, sample_tick, label="sample")
    stats = sim.run_until(cfg.horizon_s)
    # The books: every pending event is an ack on a flow's return path or a
    # flow's RTO timer, and the link took every packet a flow saw accepted.
    owned = accepted = 0
    for f in flows:
        owned += len(f._acks) + (f._rto_timer is not None)
        accepted += f.packets_sent - f.packets_dropped
    if stats.pending != owned or link.total_enqueued != accepted:
        raise engine.SimulationFault(
            "books do not close: %d events pending, %d owned by flows; the link "
            "took %d packets, the flows count %d accepted"
            % (stats.pending, owned, link.total_enqueued, accepted))
    if traces:  # copies without growth slack: 8 bytes per value
        sample_times, queue_samples = sample_times[:], queue_samples[:]
        cwnd_traces = {fid: col[:] for fid, col in cwnd_traces.items()}

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
    return RunResult(report=report, sample_times=sample_times,
                     cwnd_traces=cwnd_traces, queue_samples=queue_samples,
                     run_stats=stats)


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
    rep: int = None            # the run's index if the spec repeats, else None


def run_sweep(spec, scenario_prefix="sweep", event_log=None):
    """Validate every point of a sweep, then run each, in order, on its own."""
    _check("repeat", "count", spec.repeat)
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
        for rep in range(int(spec.repeat)) if spec.repeat > 1 else [None]:
            sid = "%s:%s" % (scenario_prefix, label)
            if rep is not None:
                sid += ":rep%d" % rep
            try:
                result = run_scenario(
                    cfg, traces=spec.traces, scenario_id=sid,
                    extra_params={"axis": spec.axis, "value": label},
                    event_log=event_log)
            except Exception as exc:
                raise RuntimeError("sweep point %s failed: %r" % (label, exc)) from exc
            points.append(SweepPoint(value, label, result, rep))
    return points


def _axis_label(axis, value):
    if axis == "flows":
        return "+".join(fc.protocol for fc in value)
    if isinstance(value, bool):  # as the config grammar writes it
        return "true" if value else "false"
    if isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
        text = "%g" % value  # unless it would merge two values
        return text if float(text) == value else repr(value)
    return shown(value, str)  # inf and nan print as with %g; a huge int has no %g


def sweep_csv(points):
    """One MetricsReport row per sweep point, byte-stable across reruns."""
    lines = [metrics.MetricsReport.CSV_HEADER]
    for pt in points:
        lines.append(pt.result.report.csv_row())
    return "\n".join(lines) + "\n"


def load_sweep(text):
    """Parse a sweep spec document: axis=, values= (comma separated) and
    optional repeat=, on top of scenario lines, each kept with its number.
    Each of values= is what _parse_value gives, as on a scenario line. Every
    point is validated before any runs; errors name the line at fault. The
    base config is validated only when a point fails, to tell whose line
    that is: a value every point overrides is never run."""
    axis = values = None
    repeat = 1
    config = []  # the scenario's entries, each with its own line number
    for lineno, key, val in _entries(text):
        if key == "axis":
            axis = val.strip()
        elif key == "values":
            values = [_parse_value(v) for v in val.split(",")]
            values_line = lineno
        elif key == "repeat":
            repeat = _parse_value(val)
            try:
                _check("repeat", "count", repeat)
            except ConfigError as exc:
                raise ConfigError("line %d: %s" % (lineno, exc)) from None
        else:
            config.append((lineno, key, val))
    if axis is None or not values:
        raise ConfigError("sweep spec needs axis= and values=")
    base, lines = _parse_scenario(config)
    spec = SweepSpec(base=base, axis=axis, values=values, repeat=repeat)
    for value in values:
        try:
            spec.point_config(value).validate()
        except ConfigError as exc:
            _validated(base, lines)
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

def write_traces(outdir, sample_times, cwnd_traces, queue_samples=None,
                 prefix=""):
    """Write `<prefix>flow<i>_cwnd.csv` for each flow and, given a queue
    series, `<prefix>queue.csv` into outdir, one row per sample time;
    return their paths."""
    files = [("flow%d_cwnd.csv" % fid, "time_s,cwnd_pkts\n", "%.3f,%.6f\n", series)
             for fid, series in sorted(cwnd_traces.items())]
    if queue_samples is not None:
        files.append(("queue.csv", "time_s,backlog_pkts\n", "%.6f,%d\n", queue_samples))
    paths = []
    for name, header, row, series in files:
        paths.append(os.path.join(outdir, prefix + name))
        with open(paths[-1], "w") as fh:
            fh.write(header)
            fh.writelines(row % r for r in zip(sample_times, series))
    return paths


def emit_plot_data(points, figure_id, outdir):
    """Write a per-figure CSV (one row per run, named as its trace files
    are; one column per metric) plus a companion gnuplot script; for trace
    experiments, also the per-flow (time, cwnd) series."""
    if not points:
        raise ConfigError("no reports to emit")
    os.makedirs(outdir, exist_ok=True)
    written = []

    runs = [pt.label if pt.rep is None else "%s_rep%d" % (pt.label, pt.rep)
            for pt in points]
    max_flows = max(len(pt.result.report.per_flow) for pt in points)
    csv_path = os.path.join(outdir, "%s.csv" % figure_id)
    with open(csv_path, "w") as fh:
        cols = ["axis"] + list(metrics.MetricsReport.CSV_COLUMNS[2:])
        cols += ["x%d_bps" % i for i in range(max_flows)]
        fh.write(",".join(cols) + "\n")
        for pt, run in zip(points, runs):
            r = pt.result.report
            cells = [run] + r.metric_cells() + [""] * (max_flows - len(r.per_flow))
            fh.write(",".join(cells) + "\n")
    written.append(csv_path)

    for pt, run in zip(points, runs):
        written += write_traces(outdir, pt.result.sample_times,
                                pt.result.cwnd_traces,
                                prefix="%s_%s_" % (figure_id, run))

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
