"""Scenario grammar, sweep driver, experiment catalog expansion and CLI
front-end tests. Full-length catalog runs live in the acceptance suite;
everything here uses short horizons."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbesim import cli, harness
from lbesim.harness import (ConfigError, FlowConfig, ScenarioConfig,
                            SweepSpec, expand_experiment, load_scenario,
                            load_sweep, run_scenario, run_sweep, set_param,
                            sweep_csv)

GOOD_CONFIG = """
# a reno flow against a delay-target flow
capacity_bps=10000000
fwd_prop_delay_ms=25
buffer_pkts=100
pkt_size_bytes=1500
horizon_s=2
flows.0.protocol=reno
flows.1.protocol=ledbat
flows.1.params.tau_ms=25
flows.1.start_at=0.5
flows.1.extra_return_delay_ms=50
"""


# -- grammar -------------------------------------------------------------

def test_load_scenario_happy_path():
    cfg = load_scenario(GOOD_CONFIG)
    assert cfg.capacity_bps == 10e6
    assert cfg.fwd_prop_delay_s == pytest.approx(0.025)
    assert cfg.horizon_s == 2.0
    assert [f.protocol for f in cfg.flows] == ["reno", "ledbat"]
    assert cfg.flows[1].params == {"tau_ms": 25}
    assert cfg.flows[1].start_at == 0.5
    assert cfg.flows[1].extra_return_delay_s == pytest.approx(0.05)


def test_load_scenario_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        load_scenario("horizon_s=1\nthis is not a key value pair\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario("unknown_key=3\nflows.0.protocol=reno\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario("flows.0.bogus=3\nflows.0.protocol=reno\n")


def test_load_scenario_rejects_gappy_flow_indices():
    with pytest.raises(ConfigError, match="contiguous"):
        load_scenario("flows.0.protocol=reno\nflows.2.protocol=reno\n")


def test_load_scenario_rejects_unknown_protocol():
    with pytest.raises(ConfigError, match="flows.0.protocol"):
        load_scenario("flows.0.protocol=cubic\n")


def test_load_scenario_rejects_bad_controller_params():
    text = ("flows.0.protocol=ledbat\n"
            "flows.0.params.tau_ms=25\n"
            "flows.0.params.T_pct=20\n")
    with pytest.raises(ConfigError, match="flows.0.params"):
        load_scenario(text)


@pytest.mark.parametrize("text, line, field", [
    ("flows.0.protocol=ledbat\nflows.0.params.tau_ms=abc\n", 2, "tau_ms"),
    ("capacity_bps=nan\nflows.0.protocol=reno\n", 1, "capacity_bps"),
    ("flows.0.protocol=reno\nhorizon_s=inf\n", 2, "horizon_s"),
    ("flows.0.protocol=ledbat\nflows.0.params.slow_start=maybe\n", 2, "slow_start"),
    ("flows.0.protocol=lp\nflows.0.params.alpha=-5\n", 2, "alpha"),
    ("flows.0.protocol=nice\nflows.0.params.floor=0\n", 2, "floor"),
    ("horizon_s=5\nflows.0.protocol=reno\nflows.0.start_at=5\n", 3, "start_at"),
    ("flows.0.protocol=ledbat\nflows.0.params.tau_ms=5e-324\n", 2, "target"),
    ("buffer_pkts=2.5\nflows.0.protocol=reno\n", 1, "buffer_pkts"),
    ("flows.0.protocol=reno\nflows.0.extra_return_delay_ms=true\n", 2,
     "extra_return_delay_ms"),
    ("flows.0.protocol=ledbat\nflows.0.params._scenario=5\n", 2, "_scenario"),
], ids=["param-not-a-number", "nan-capacity", "infinite-horizon",
        "non-boolean-slow-start", "negative-lp-alpha", "zero-nice-floor",
        "start-at-horizon", "underflowing-target", "fractional-buffer",
        "boolean-delay", "hidden-scenario-param"])
def test_load_scenario_rejects_bad_values_with_line(text, line, field):
    with pytest.raises(ConfigError, match="line %d: .*%s" % (line, field)):
        load_scenario(text)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(capacity_bps=float("nan"), flows=[FlowConfig("reno")]),
    ScenarioConfig(horizon_s=float("inf"), flows=[FlowConfig("reno")]),
    ScenarioConfig(flows=[FlowConfig("reno", start_at=float("nan"))]),
    ScenarioConfig(flows=[FlowConfig("ledbat", {"tau_ms": "25"})]),
], ids=["nan-capacity", "infinite-horizon", "nan-start", "string-param"])
def test_validate_rejects_non_finite_and_mistyped_values(cfg):
    with pytest.raises(ConfigError):
        cfg.validate()


_DOC_KEYS = ["capacity_bps", "fwd_prop_delay_ms", "buffer_pkts",
             "pkt_size_bytes", "horizon_s", "flows.0.protocol",
             "flows.0.start_at", "flows.0.extra_return_delay_ms",
             "flows.0.params.tau_ms", "flows.0.params.T_pct", "flows.0.params.G",
             "flows.0.params.gamma", "flows.0.params.slow_start",
             "flows.0.params.alpha", "flows.0.params.floor", "flows.1.protocol",
             "flows.x.protocol", "bogus"]
_DOC_VALUES = st.one_of(
    st.sampled_from(["reno", "lp", "nice", "ledbat", "cubic", "true", "maybe",
                     "nan", "inf", "abc", "", "0", "-5", "1e309", "5e-324"]),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(str),
    st.floats().map(repr))


@given(st.lists(st.tuples(st.sampled_from(_DOC_KEYS), _DOC_VALUES), max_size=8))
def test_any_document_loads_or_raises_config_error(pairs):
    try:
        cfg = load_scenario("\n".join("%s=%s" % kv for kv in pairs))
    except ConfigError:
        return
    assert cfg.flows


@pytest.mark.parametrize("field, value", [
    ("buffer_pkts", 2.5), ("pkt_size_bytes", 1500.5)])
def test_validate_rejects_fractional_counts(field, value):
    # the link would truncate them while the metrics divide by the raw value
    cfg = ScenarioConfig(flows=[FlowConfig("reno")], **{field: value})
    with pytest.raises(ConfigError, match="whole number") as err:
        cfg.validate()
    assert err.value.key == field
    ScenarioConfig(flows=[FlowConfig("reno")], **{field: 2.0}).validate()


@pytest.mark.parametrize("flows", ["reno", ["reno"], None],
                         ids=["string", "list-of-strings", "none"])
def test_validate_rejects_flows_that_are_not_flow_configs(flows):
    with pytest.raises(ConfigError, match="flow configs") as err:
        ScenarioConfig(flows=flows).validate()
    assert err.value.key == "flows"


def test_load_scenario_needs_flows():
    with pytest.raises(ConfigError, match="at least one flow"):
        load_scenario("horizon_s=5\n")


def test_validate_rejects_non_positive_values():
    with pytest.raises(ConfigError, match="horizon_s"):
        ScenarioConfig(horizon_s=0.0,
                       flows=[FlowConfig("reno")]).validate()
    cfg = ScenarioConfig(flows=[FlowConfig("reno", start_at=-1.0)])
    with pytest.raises(ConfigError, match="non-negative"):
        cfg.validate()


def test_target_fraction_uses_scenario_bottleneck():
    cfg = load_scenario("flows.0.protocol=ledbat\nflows.0.params.T_pct=20\n")
    ctl = cfg.build_controller(cfg.flows[0])
    assert ctl.tau == pytest.approx(0.024)  # 20% of the 120 ms buffer delay


def test_set_param_paths():
    cfg = ScenarioConfig(flows=[FlowConfig("ledbat", {"tau_ms": 25.0})])
    cfg2 = set_param(cfg, "flows.0.params.tau_ms", 50.0)
    assert cfg.flows[0].params["tau_ms"] == 25.0  # original untouched
    assert cfg2.flows[0].params["tau_ms"] == 50.0
    cfg3 = set_param(cfg, "horizon_s", 7.0)
    assert cfg3.horizon_s == 7.0
    with pytest.raises(ConfigError):
        set_param(cfg, "flows.5.params.tau_ms", 1.0)
    with pytest.raises(ConfigError):
        set_param(cfg, "no.such.path", 1.0)


_BASE = ("horizon_s=10\nflows.0.protocol=reno\nflows.1.protocol=ledbat\n"
         "flows.1.params.tau_ms=25\n")
# config text key, the field path it sets (whose delays are in seconds where
# the key's are in ms) and values valid in _BASE
_TEXT_FIELDS = [
    ("capacity_bps", "capacity_bps", st.floats(1e3, 1e9)),
    ("fwd_prop_delay_ms", "fwd_prop_delay_s", st.floats(0.1, 500.0)),
    ("buffer_pkts", "buffer_pkts", st.integers(1, 1000)),
    ("pkt_size_bytes", "pkt_size_bytes", st.integers(40, 9000)),
    ("horizon_s", "horizon_s", st.floats(10.0, 1e4)),
    ("flows.0.protocol", "flows.0.protocol", st.sampled_from(harness.PROTOCOLS)),
    ("flows.1.start_at", "flows.1.start_at", st.floats(0.0, 9.0)),
    ("flows.0.extra_return_delay_ms", "flows.0.extra_return_delay_s",
     st.floats(0.0, 500.0)),
    ("flows.1.params.tau_ms", "flows.1.params.tau_ms", st.floats(0.1, 200.0)),
    ("flows.1.params.G", "flows.1.params.G", st.floats(0.01, 100.0)),
    ("flows.1.params.gamma", "flows.1.params.gamma", st.floats(0.1, 1e3)),
    ("flows.1.params.slow_start", "flows.1.params.slow_start", st.booleans()),
]


def _as_text(value):
    return str(value).lower() if isinstance(value, bool) else str(value)


@given(st.sampled_from(_TEXT_FIELDS).flatmap(
           lambda f: st.tuples(st.just(f), f[2])),
       st.sampled_from(["validate", "build_controller", "__class__",
                        "__dict__", "__init__", "flows.0.__class__"]))
def test_scenario_lines_and_sweep_axes_resolve_the_same_fields(case, not_a_field):
    (key, path, _), value = case
    base = load_scenario(_BASE)
    from_line = load_scenario(_BASE + "%s=%s\n" % (key, _as_text(value)))
    in_ms = key.endswith("delay_ms")
    from_axis = set_param(base, path, value / 1000.0 if in_ms else value)
    assert from_line == from_axis
    assert from_axis.validate() == from_line
    # a sweep axis sets fields only, never any other attribute
    with pytest.raises(ConfigError, match="names no scenario field"):
        set_param(base, not_a_field, value)
    assert load_scenario(_BASE) == base


# -- running -------------------------------------------------------------

def short_cfg(*protocols, horizon=2.0):
    return ScenarioConfig(horizon_s=horizon,
                          flows=[FlowConfig(p) for p in protocols])


def test_run_scenario_produces_full_report():
    result = run_scenario(short_cfg("reno", "reno"), scenario_id="two-reno")
    r = result.report
    assert r.scenario_id == "two-reno"
    assert 0.0 < r.eta <= 1.001
    assert r.tcp_pct == pytest.approx(1.0)
    assert r.f_lt is not None and 0.5 <= r.f_lt <= 1.0
    assert 0.0 <= r.b_norm <= 1.0
    assert 0.0 <= r.p_l <= 1.0
    assert len(r.per_flow) == 2
    assert result.run_stats.events_processed > 0
    # traces are off by default, and no per-packet series is kept
    assert result.cwnd_traces == {}
    assert result.queue_samples is None


def test_run_scenario_traces_sample_every_100ms():
    result = run_scenario(short_cfg("reno", horizon=1.0), traces=True)
    series = result.cwnd_traces[0]
    assert len(series) == 11  # 0.0 .. 1.0 inclusive
    assert [t for t, _ in series] == pytest.approx([0.1 * i for i in range(11)])
    # the backlog is sampled by the same tick: waiting packets only
    assert [t for t, _ in result.queue_samples] == [t for t, _ in series]
    assert all(type(b) is int and 0 <= b <= 100 for _, b in result.queue_samples)


def test_run_sweep_orders_points_and_labels():
    base = ScenarioConfig(horizon_s=1.0,
                          flows=[FlowConfig("ledbat", {"tau_ms": 25.0})])
    spec = SweepSpec(base, "flows.0.params.tau_ms", [10.0, 25.0])
    points = run_sweep(spec, scenario_prefix="p")
    assert [pt.label for pt in points] == ["10", "25"]
    assert points[0].result.report.scenario_id == "p:10"
    csv = sweep_csv(points)
    assert csv.splitlines()[0].startswith("scenario_id,params,eta")
    assert len(csv.splitlines()) == 3


def test_run_sweep_label_mismatch_raises():
    base = short_cfg("reno", horizon=1.0)
    spec = SweepSpec(base, "horizon_s", [1.0, 2.0], labels=["only-one"])
    with pytest.raises(ConfigError):
        run_sweep(spec)


def test_run_sweep_rejects_a_bad_point_before_any_run(monkeypatch):
    base = ScenarioConfig(horizon_s=1.0,
                          flows=[FlowConfig("ledbat", {"tau_ms": 25.0})])
    spec = SweepSpec(base, "flows.0.params.tau_ms", [25.0, -1.0])
    runs = []
    monkeypatch.setattr(harness, "run_scenario",
                        lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="sweep point -1: .*tau_ms"):
        run_sweep(spec)
    assert runs == []


def test_run_sweep_builds_each_point_once_and_runs_that_config(monkeypatch):
    spec = SweepSpec(short_cfg("reno", horizon=1.0), "horizon_s", [1.0, 2.0],
                     repeat=2)
    built, ran = [], []
    point_config = SweepSpec.point_config
    monkeypatch.setattr(SweepSpec, "point_config",
                        lambda self, value: built.append(point_config(self, value))
                        or built[-1])
    monkeypatch.setattr(harness, "run_scenario",
                        lambda cfg, **kwargs: ran.append(cfg))
    run_sweep(spec)
    assert [cfg.horizon_s for cfg in built] == [1.0, 2.0]
    assert [id(cfg) for cfg in ran] == [id(built[0])] * 2 + [id(built[1])] * 2


def test_run_sweep_repeat_marks_reps():
    base = short_cfg("reno", horizon=1.0)
    spec = SweepSpec(base, "horizon_s", [1.0], repeat=2)
    points = run_sweep(spec, scenario_prefix="p")
    assert [pt.result.report.scenario_id for pt in points] == \
        ["p:1:rep0", "p:1:rep1"]


def test_load_sweep_round_trip():
    text = ("axis=flows.0.params.tau_ms\nvalues=10,25\n"
            "horizon_s=1\nflows.0.protocol=ledbat\n")
    spec = load_sweep(text)
    assert spec.axis == "flows.0.params.tau_ms"
    assert spec.values == [10, 25]
    assert spec.base.horizon_s == 1.0


def test_load_sweep_requires_axis_and_values():
    with pytest.raises(ConfigError):
        load_sweep("horizon_s=1\nflows.0.protocol=reno\n")


def test_load_sweep_rejects_unresolvable_axis():
    with pytest.raises(ConfigError):
        load_sweep("axis=flows.3.params.x\nvalues=1,2\n"
                   "flows.0.protocol=reno\n")


@pytest.mark.parametrize("text, match", [
    ("axis=flows.0.params.tau_ms\nvalues=10,abc\nflows.0.protocol=ledbat\n",
     "line 2: .*tau_ms"),
    ("axis=horizon_s\nvalues=1,nan\nflows.0.protocol=reno\n", "line 2: .*horizon_s"),
    ("axis=horizon_s\nvalues=1\nrepeat=two\nflows.0.protocol=reno\n",
     "line 3: .*repeat"),
    ("axis=horizon_s\nvalues=1\nrepeat=0\nflows.0.protocol=reno\n",
     "line 3: .*repeat"),
    ("axis=horizon_s\nvalues=1\nflows.0.protocol=cubic\n", "line 3: .*protocol"),
], ids=["bad-param-value", "nan-horizon", "text-repeat", "zero-repeat",
        "scenario-line-number"])
def test_load_sweep_rejects_bad_input_before_any_run(text, match):
    with pytest.raises(ConfigError, match=match):
        load_sweep(text)


def test_load_sweep_rejects_fractional_buffer_on_values_line():
    with pytest.raises(ConfigError, match="line 3: buffer_pkts=2.5: .*whole"):
        load_sweep("horizon_s=1\naxis=buffer_pkts\nvalues=2,2.5\n"
                   "flows.0.protocol=reno\n")


def test_cli_sweep_over_flows_is_a_usage_error(tmp_path, capsys):
    # a values= line holds scalars, never the flow lists axis=flows needs
    spec = write(tmp_path, "sweep.cfg", "horizon_s=1\naxis=flows\n"
                 "values=reno\nflows.0.protocol=reno\n")
    assert cli.main(["sweep", spec]) == 2
    err = capsys.readouterr().err
    assert "line 3: flows='reno'" in err
    assert "internal error" not in err


@pytest.mark.parametrize("axis, values", [
    ("validate", "1,2"), ("__class__", "1,2"), ("flows.-1.protocol", "reno,lp"),
], ids=["method", "dunder", "negative-flow-index"])
def test_cli_sweep_axis_that_names_no_field_is_a_usage_error(tmp_path, capsys,
                                                              axis, values):
    spec = write(tmp_path, "sweep.cfg", "horizon_s=1\naxis=%s\nvalues=%s\n"
                 "flows.0.protocol=reno\nflows.1.protocol=reno\n" % (axis, values))
    out = tmp_path / "out"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "line 3: %s=" % axis in err
    assert "names no scenario field" in err
    assert "internal error" not in err
    assert not out.exists()


_HUGE = "1" + "0" * 400  # an int too large for a float


@pytest.mark.parametrize("command, text, match", [
    ("run", "flows.0.protocol=reno\ncapacity_bps=%s\n" % _HUGE,
     "line 2: bad value for 'capacity_bps'"),
    ("run", "flows.0.protocol=ledbat\nflows.0.params.tau_ms=%s\n" % _HUGE,
     "line 2: flows.0.params: tau_ms must be"),
    ("sweep", "axis=horizon_s\nvalues=1,%s\nflows.0.protocol=reno\n" % _HUGE,
     "line 2: horizon_s=%s: horizon_s must be" % _HUGE),
], ids=["scenario-field", "controller-param", "sweep-value"])
def test_cli_int_too_large_for_a_float_is_a_usage_error(tmp_path, capsys,
                                                       command, text, match):
    cfg = write(tmp_path, "huge.cfg", text)
    assert cli.main([command, cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert match in err
    assert "internal error" not in err


def test_cli_sweep_bad_value_is_a_usage_error(tmp_path, capsys):
    spec = write(tmp_path, "sweep.cfg", "axis=flows.0.params.tau_ms\n"
                 "values=10,abc\nflows.0.protocol=ledbat\n")
    assert cli.main(["sweep", spec]) == 2
    assert "line 2" in capsys.readouterr().err


# -- catalog expansion ---------------------------------------------------

def test_catalog_pairings_for_trace_study():
    spec = expand_experiment("fig1")
    assert spec.labels == ["reno-lp", "lp-lp", "reno-nice", "nice-nice",
                           "reno-ledbat", "ledbat-ledbat"]
    assert spec.traces
    assert [f.protocol for f in spec.values[0]] == ["reno", "lp"]


def test_catalog_gain_and_target_sweeps():
    spec = expand_experiment("fig2_gain")
    assert spec.axis == "flows.1.params.G"
    assert spec.values == [1.0, 2.0, 5.0, 10.0]
    spec = expand_experiment("fig2_target")
    assert spec.axis == "flows.1.params.T_pct"
    assert len(spec.values) == 20
    assert spec.values[0] == 2.0 and spec.values[-1] == 150.0


def test_catalog_asymmetry_sweeps():
    spec = expand_experiment("fig3_target_ratio")
    assert spec.labels == ["ratio=1", "ratio=1.5", "ratio=2", "ratio=4",
                           "ratio=5", "ratio=10"]
    assert spec.values[3] == pytest.approx(80.0)  # 4x the 20% baseline
    spec = expand_experiment("fig3_gain_ratio")
    assert spec.axis == "flows.0.params.G"


def test_catalog_flock_sizes():
    spec = expand_experiment("fig4", protocol="ledbat")
    assert spec.labels == ["N=%d" % n for n in range(1, 11)]
    # one reno plus N background flows
    assert [f.protocol for f in spec.values[9]] == ["reno"] + ["ledbat"] * 10
    reno = expand_experiment("fig4", protocol="reno")
    assert [f.protocol for f in reno.values[9]] == ["reno"] * 11
    with pytest.raises(ConfigError):
        expand_experiment("fig4")


def test_catalog_mixed_flocks():
    spec = expand_experiment("fig5")
    assert spec.labels == ["k=%d" % k for k in range(1, 6)]
    assert [f.protocol for f in spec.values[1]] == \
        ["lp", "lp", "ledbat", "ledbat", "nice", "nice"]
    reno = expand_experiment("fig5", protocol="reno")
    assert len(reno.values[4]) == 15


def test_catalog_rtt_asymmetry():
    spec = expand_experiment("fig6", protocol="nice")
    assert spec.axis == "flows.0.extra_return_delay_s"
    # rtt ratio r adds (r-1) extra base RTTs on flow 0's return path
    assert spec.values == pytest.approx([(r - 1) * 0.05 for r in range(1, 11)])
    assert spec.labels[-1] == "rtt_ratio=10"
    with pytest.raises(ConfigError):
        expand_experiment("fig6")


@pytest.mark.parametrize("experiment, protocol", [
    ("fig1", "lp"), ("fig2_gain", "nice"), ("fig2_target", "reno"),
    ("fig3_gain_ratio", "ledbat"), ("fig3_target_ratio", "lp"),
    ("fig5", "lp"), ("fig5", "nice"), ("fig5", "ledbat")])
def test_experiment_rejects_a_protocol_it_ignores(experiment, protocol,
                                                  tmp_path, capsys):
    with pytest.raises(ConfigError, match="does not take --protocol %s" % protocol):
        expand_experiment(experiment, protocol=protocol)
    out = tmp_path / "out"
    assert cli.main(["experiment", experiment, "--protocol", protocol,
                     "--out", str(out)]) == 2
    assert "does not take" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_experiment_id():
    with pytest.raises(ConfigError, match="unknown experiment id"):
        expand_experiment("fig99")


def test_expansion_is_pure():
    a = expand_experiment("fig2_target")
    b = expand_experiment("fig2_target")
    assert a.values == b.values and a.axis == b.axis


# -- CLI -----------------------------------------------------------------

def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


RUN_CONFIG = ("horizon_s=2\nflows.0.protocol=reno\n"
              "flows.1.protocol=ledbat\nflows.1.params.tau_ms=25\n")


def test_cli_run_writes_report_and_traces(tmp_path):
    cfg = write(tmp_path, "scenario.cfg", RUN_CONFIG)
    out = tmp_path / "out"
    rc = cli.main(["run", cfg, "--out", str(out), "--traces", "--seed", "7"])
    assert rc == 0
    report = (out / "report.csv").read_text()
    assert report.splitlines()[0].startswith("scenario_id,params,eta")
    assert len(report.splitlines()) == 2
    assert (out / "flow0_cwnd.csv").exists()
    assert (out / "flow1_cwnd.csv").exists()
    # the backlog is sampled next to cwnd: one queue row per cwnd row
    queue = (out / "queue.csv").read_text().splitlines()
    assert len(queue) == len((out / "flow0_cwnd.csv").read_text().splitlines())


def test_cli_run_to_stdout(tmp_path, capsys):
    cfg = write(tmp_path, "scenario.cfg", RUN_CONFIG)
    assert cli.main(["run", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("scenario.cfg,")


def test_cli_run_event_log(tmp_path):
    cfg = write(tmp_path, "scenario.cfg",
                "horizon_s=0.2\nflows.0.protocol=reno\n")
    log = tmp_path / "events.log"
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"),
                     "--event-log", str(log)]) == 0
    events = [l.split() for l in log.read_text().splitlines()]
    assert events and all(len(e) == 3 for e in events)
    assert ["0.000000000", "FlowStart", "start-flow0"] in events
    # the 100 ms metrics sampler is the only MetricsSampleTick
    assert {e[2] for e in events if e[1] == "MetricsSampleTick"} == {"sample"}


def test_cli_missing_config_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "lbesim:" in capsys.readouterr().err


def test_cli_bad_config_reports_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "garbage\n")
    assert cli.main(["run", cfg]) == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    spec = write(tmp_path, "sweep.cfg",
                 "axis=flows.0.params.tau_ms\nvalues=10,25\n"
                 "horizon_s=1\nflows.0.protocol=ledbat\n")
    out = tmp_path / "out"
    assert cli.main(["sweep", spec, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_sweep_event_log(tmp_path):
    spec = write(tmp_path, "sweep.cfg",
                 "axis=flows.0.params.tau_ms\nvalues=10,25\n"
                 "horizon_s=0.2\nflows.0.protocol=ledbat\n")
    log = tmp_path / "events.log"
    assert cli.main(["sweep", spec, "--out", str(tmp_path / "o"),
                     "--event-log", str(log)]) == 0
    lines = log.read_text().splitlines()
    # one run after the other in one file, each restarting at t = 0
    starts = [i for i, l in enumerate(lines)
              if l == "0.000000000 FlowStart start-flow0"]
    assert len(starts) == 2 and 0 < starts[1] < len(lines) - 1
    assert float(lines[starts[1] - 1].split()[0]) > 0.0


@pytest.mark.parametrize("command, text", [
    ("run", "horizon_s=0.2\nflows.0.protocol=bogus\n"),
    ("sweep", "axis=flows.0.params.tau_ms\nvalues=10,-1\n"
              "horizon_s=0.2\nflows.0.protocol=ledbat\n"),
])
def test_cli_config_error_leaves_event_log_untouched(tmp_path, capsys,
                                                     command, text):
    cfg = write(tmp_path, "bad.cfg", text)
    log = tmp_path / "events.log"
    log.write_text("0.000000000 FlowStart start-flow0\n")
    assert cli.main([command, cfg, "--out", str(tmp_path / "o"),
                     "--event-log", str(log)]) == 2
    assert "line" in capsys.readouterr().err
    assert log.read_text() == "0.000000000 FlowStart start-flow0\n"


def test_cli_experiment_requires_protocol_when_needed(capsys):
    assert cli.main(["experiment", "fig4"]) == 2
    assert "protocol" in capsys.readouterr().err
