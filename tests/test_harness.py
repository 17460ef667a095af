"""Scenario grammar, sweep driver, experiment catalog expansion and CLI
front-end tests. Full-length catalog runs live in the acceptance suite;
everything here uses short horizons."""

import os
import re
import subprocess
import sys
from array import array

import pytest
from conftest import readme_example
from hypothesis import example, given
from hypothesis import strategies as st

from lbesim import cli, harness
from lbesim.harness import (ConfigError, FlowConfig, ScenarioConfig,
                            SweepSpec, emit_plot_data, expand_experiment,
                            load_scenario, load_sweep, run_scenario, run_sweep,
                            set_param, sweep_csv, write_traces)

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


@pytest.mark.parametrize("text, line, missing", [
    ("horizon_s=2\nflows.0.protocol=reno\nflows.2.protocol=lp\n", 3, 1),
    # flow 2 is the first past the gap, and its first line is line 4
    ("flows.3.protocol=lp\nflows.0.protocol=reno\nhorizon_s=2\n"
     "flows.2.params.alpha=0.5\nflows.2.protocol=lp\n", 4, 1),
    ("flows.1.protocol=reno\n", 1, 0),
], ids=["one-gap", "first-flow-past-the-gap", "no-flow-0"])
def test_gap_in_flow_numbering_names_the_first_line_past_it(text, line, missing):
    with pytest.raises(ConfigError, match=r"^line %d: flow indices must be contiguous "
                       "from 0, and flow %d is missing$" % (line, missing)):
        load_scenario(text)


# Not a flow index, which is plain ASCII digits: int() reads each of these
# but the last, which has more digits than it converts, as a number
_NOT_AN_INDEX = ["+0", "-0", " 1", "1 ", "\u0661", "1_0", "1" * 5000]


@pytest.mark.parametrize("index", _NOT_AN_INDEX,
                         ids=["plus", "minus", "space-before", "space-after",
                              "arabic-indic-digit", "underscore", "too-many-digits"])
def test_flow_index_is_plain_ascii_digits(index):
    text = "horizon_s=2\nflows.0.protocol=reno\nflows.1.protocol=reno\n"
    with pytest.raises(ConfigError, match=r"^line 4: unknown key 'flows\.%s\.protocol'$"
                       % re.escape(index)):
        load_scenario(text + "flows.%s.protocol=lp\n" % index)
    with pytest.raises(ConfigError, match="names no scenario field"):
        set_param(load_scenario(text), "flows.%s.protocol" % index, "lp")


def test_flow_index_may_have_leading_zeros_and_is_named_in_plain_decimal():
    text = "horizon_s=2\nflows.0.protocol=reno\nflows.1.protocol=reno\n"
    assert load_scenario(text + "flows.01.protocol=lp\n").flows[1].protocol == "lp"
    assert set_param(load_scenario(text), "flows.01.protocol", "lp").flows[1].protocol == "lp"
    with pytest.raises(ConfigError, match=r"^line 4: flows\.1\.params\.bogus: "):
        load_scenario(text + "flows.001.params.bogus=1\n")


_UNKNOWN_PARAM = ("horizon_s=2\nflows.0.protocol=lp\nflows.0.params.alpha=0.5\n"
                  "flows.0.params.bogus=1\n")


def test_unknown_controller_parameter_names_its_own_line(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"^line 4: flows\.0\.params\.bogus: lp "
                       "takes no such parameter$"):
        load_scenario(_UNKNOWN_PARAM)
    spec = write(tmp_path, "sweep.cfg", "axis=horizon_s\nvalues=2\n" + _UNKNOWN_PARAM)
    assert cli.main(["sweep", spec]) == 2
    assert capsys.readouterr().err == \
        "lbesim: line 6: flows.0.params.bogus: lp takes no such parameter\n"


def test_load_scenario_rejects_unknown_protocol():
    with pytest.raises(ConfigError, match="flows.0.protocol"):
        load_scenario("flows.0.protocol=cubic\n")


def test_load_scenario_rejects_bad_controller_params():
    text = ("flows.0.protocol=ledbat\n"
            "flows.0.params.tau_ms=25\n"
            "flows.0.params.T_pct=20\n")
    with pytest.raises(ConfigError, match="flows.0.params"):
        load_scenario(text)


_LEDBAT = "horizon_s=2\nflows.0.protocol=ledbat\n"


@pytest.mark.parametrize("params, line, message", [
    ("G=1\ntau_ms=25\nT_pct=20", 5, "give tau_ms or T_pct, not both"),
    ("tau_ms=25\nG=1\ngamma=2", 4, "give gamma or G, not both"),
    ("G=1\ntau_ms=5e-324", 4, "ledbat target must be positive and finite"),
    ("G=1\nT_pct=5e-324", 4, "ledbat target must be positive and finite"),
    ("tau_ms=1e-300\nG=1e300", 4, "ledbat gain must be finite"),
    # no G is given: the default G over the target is at fault, on its line
    ("slow_start=true\ntau_ms=1e-320", 4, "ledbat gain must be finite"),
], ids=["both-targets", "both-gains", "underflowing-tau", "underflowing-T_pct",
        "overflowing-gain-of-G", "overflowing-gain-of-the-target"])
def test_ledbat_resolution_errors_name_a_line_of_the_parameters_at_fault(
        params, line, message):
    text = _LEDBAT + "".join("flows.0.params.%s\n" % p for p in params.split("\n"))
    with pytest.raises(ConfigError, match=r"^line %d: flows\.0\.params: %s$"
                       % (line, message)):
        load_scenario(text)


@pytest.mark.parametrize("params", [5, "ab", None, [("alpha", 0.5)]],
                         ids=["int", "string", "none", "list-of-pairs"])
def test_flow_params_must_be_a_dict(params):
    cfg = ScenarioConfig(flows=[FlowConfig("reno"), FlowConfig("lp", params=params)])
    with pytest.raises(ConfigError, match=r"^flows\.1\.params must be a dict, "
                       "got %s$" % re.escape(repr(params))) as err:
        cfg.validate()
    assert err.value.key == "flows.1.params"
    if params is None:  # make_controller takes None for no parameters
        assert harness.make_controller("lp", params).alpha == 0.125
        return
    with pytest.raises(ConfigError, match=r"^at must be a dict, got ") as err:
        harness.make_controller("lp", params, None, "at")
    assert err.value.key == "at"


@pytest.mark.parametrize("flows, path, message, key", [
    ([FlowConfig("lp", params=None)], "flows.0.params.alpha",
     "flows.0.params must be a dict, got None", "flows.0.params"),
    ([FlowConfig("lp", params=(1,))], "flows.0.params.alpha",
     "flows.0.params must be a dict, got (1,)", "flows.0.params"),
    (None, "flows.0.params.alpha",
     "flows must be a list of flow configs, got None", "flows"),
    (None, "flows.0.protocol",
     "flows must be a list of flow configs, got None", "flows"),
    (["reno"], "flows.0.params.alpha",
     "flows must be a list of flow configs, got ['reno']", "flows"),
    (["reno"], "flows.0.protocol",
     "flows must be a list of flow configs, got ['reno']", "flows"),
], ids=["none-params", "tuple-params", "none-flows-param", "none-flows-protocol",
        "string-flows-param", "string-flows-protocol"])
def test_assign_checks_the_shape_of_the_flows_before_it_writes(flows, path,
                                                               message, key):
    base = ScenarioConfig(flows=flows)
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)) as err:
        set_param(base, path, 0.5)
    assert err.value.key == key
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        base.validate()  # the message validate gives
    with pytest.raises(ConfigError, match="^sweep point 0.5: %s$" % re.escape(message)):
        run_sweep(SweepSpec(base, path, [0.5]))


@pytest.mark.parametrize("field, text, rule, got", [
    ("buffer_pkts", "2.5", "a positive whole number", "2.5"),
    ("buffer_pkts", "true", "a positive whole number", "True"),
    ("capacity_bps", "abc", "finite and positive", "'abc'"),
    ("capacity_bps", "1" + "0" * 400, "finite and positive", "1" + "0" * 400),
    ("horizon_s", "true", "at least 1 ns and at most 2**63 ns once rounded to "
     "whole ns", "True"),
], ids=["fractional-count", "boolean-count", "text-number", "huge-int",
        "boolean-time"])
def test_a_bad_value_gets_one_message_on_a_line_and_in_values(field, text, rule, got):
    message = re.escape("%s must be %s, got %s" % (field, rule, got))
    with pytest.raises(ConfigError, match="^line 2: %s$" % message):
        load_scenario("flows.0.protocol=reno\n%s=%s\n" % (field, text))
    with pytest.raises(ConfigError, match="^line 2: %s=.*: %s$" % (field, message)):
        load_sweep("axis=%s\nvalues=%s\nflows.0.protocol=reno\n" % (field, text))


@pytest.mark.parametrize("text, line, field", [
    ("flows.0.protocol=ledbat\nflows.0.params.tau_ms=abc\n", 2, "tau_ms"),
    ("capacity_bps=nan\nflows.0.protocol=reno\n", 1, "capacity_bps"),
    ("flows.0.protocol=reno\nhorizon_s=inf\n", 2, "horizon_s"),
    ("flows.0.protocol=ledbat\nflows.0.params.slow_start=maybe\n", 2, "slow_start"),
    ("flows.0.protocol=lp\nflows.0.params.alpha=-5\n", 2, "alpha"),
    ("flows.0.protocol=nice\nflows.0.params.floor=0\n", 2, "floor"),
    ("horizon_s=5\nflows.0.protocol=reno\nflows.0.start_at=5\n", 3, "start_at"),
    # 4,999,999,999.6 ns rounds to the horizon's nanosecond
    ("horizon_s=5\nflows.0.protocol=reno\nflows.0.start_at=4.9999999996\n", 3,
     "start_at"),
    ("flows.0.protocol=ledbat\nflows.0.params.tau_ms=5e-324\n", 2, "target"),
    ("buffer_pkts=2.5\nflows.0.protocol=reno\n", 1, "buffer_pkts"),
    ("flows.0.protocol=reno\nflows.0.extra_return_delay_ms=true\n", 2,
     "extra_return_delay_ms"),
    ("flows.0.protocol=ledbat\nflows.0.params._scenario=5\n", 2, "_scenario"),
    ("buffer_pkts=10000000\nflows.0.protocol=ledbat\nflows.0.params.T_pct=1e308\n",
     3, "target must be positive and finite"),
    # buffer_pkts * pkt_size_bytes * 8 is past the largest float
    ("buffer_pkts=1.2e305\nflows.0.protocol=ledbat\nflows.0.params.T_pct=50\n",
     3, "target must be positive and finite"),
], ids=["param-not-a-number", "nan-capacity", "infinite-horizon",
        "non-boolean-slow-start", "negative-lp-alpha", "zero-nice-floor",
        "start-at-horizon", "start-rounding-to-horizon", "underflowing-target",
        "fractional-buffer", "boolean-delay", "hidden-scenario-param", "overflowing-target",
        "target-of-a-buffer-too-large-for-a-float"])
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
@example([("buffer_pkts", "1.1984620899082106e+305"), ("flows.0.protocol", "reno")])
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
    with pytest.raises(ConfigError,
                       match=r"^flows\.0\.start_at must be 0, or at least 1 ns"):
        cfg.validate()


def test_target_fraction_uses_scenario_bottleneck():
    cfg = load_scenario("flows.0.protocol=ledbat\nflows.0.params.T_pct=20\n")
    [ctl] = cfg._controllers()
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
    # a delay is 0 or rounds to at least 1 ns
    ("flows.1.start_at", "flows.1.start_at", st.just(0.0) | st.floats(1e-9, 9.0)),
    ("flows.0.extra_return_delay_ms", "flows.0.extra_return_delay_s",
     st.just(0.0) | st.floats(1e-6, 500.0)),
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
    assert result.sample_times is None
    assert result.cwnd_traces == {}
    assert result.queue_samples is None


def test_run_scenario_traces_sample_every_100ms():
    result = run_scenario(short_cfg("reno", horizon=1.0), traces=True)
    times, series = result.sample_times, result.cwnd_traces[0]
    assert len(series) == len(times) == 11  # 0.0 .. 1.0 inclusive
    assert list(times) == pytest.approx([0.1 * i for i in range(11)])
    # the backlog is sampled by the same tick: waiting packets only
    assert len(result.queue_samples) == len(times)
    assert all(type(b) is int and 0 <= b <= 100 for b in result.queue_samples)


@pytest.mark.parametrize("horizon", [0.3, 1.2, 16.2])
def test_sampler_ticks_at_the_horizon(horizon):
    # a float sum 0.2 + 0.1 > 0.3 must not drop the tick at the horizon
    result = run_scenario(short_cfg("reno", horizon=horizon), traces=True)
    ticks = round(horizon * 10) + 1
    assert list(result.sample_times) == [i / 10 for i in range(ticks)]
    assert result.sample_times[-1] == horizon


def test_traces_add_only_the_sample_ticks():
    # a lossy 3-flow run: the sampler ticks only with traces on, and adds
    # nothing but its own events
    cfg = ScenarioConfig(horizon_s=5.0, buffer_pkts=10, flows=[
        FlowConfig("reno"), FlowConfig("ledbat", {"tau_ms": 25.0}),
        FlowConfig("nice")])
    on, off = run_scenario(cfg, traces=True), run_scenario(cfg)
    assert on.report.p_l > 0
    assert on.report.csv_row() == off.report.csv_row()
    ticks = round(cfg.horizon_s / 0.1) + 1
    assert len(on.sample_times) == ticks == 51
    assert on.run_stats.events_processed - off.run_stats.events_processed == ticks


def _held_bytes(obj):
    """Bytes that obj and, for a list or tuple, what it holds take."""
    items = obj if isinstance(obj, (list, tuple)) else ()
    return sys.getsizeof(obj) + sum(_held_bytes(x) for x in items)


def test_trace_samples_are_typed_columns_on_one_time_column(tmp_path):
    flows = 2
    result = run_scenario(short_cfg("reno", "ledbat", horizon=10.0), traces=True)
    times = result.sample_times
    columns = [times, result.queue_samples] + list(result.cwnd_traces.values())
    assert len(columns) == flows + 2
    for column in columns:
        assert type(column) is array and column.itemsize == 8
        assert len(column) == len(times) == 101
    # every value unboxed: at most 8 bytes per series and tick, beyond
    # what each empty column takes
    held = sum(_held_bytes(c) - _held_bytes(c[:0]) for c in columns)
    assert held <= 8 * (flows + 2) * len(times)
    # the files are the (t, v) pairs formatted row by row
    paths = write_traces(str(tmp_path), times, result.cwnd_traces,
                         result.queue_samples)
    expected = [("time_s,cwnd_pkts\n", "%.3f,%.6f\n", result.cwnd_traces[0]),
                ("time_s,cwnd_pkts\n", "%.3f,%.6f\n", result.cwnd_traces[1]),
                ("time_s,backlog_pkts\n", "%.6f,%d\n", result.queue_samples)]
    for path, (header, row, column) in zip(paths, expected):
        pairs = [(times[i], column[i]) for i in range(len(times))]
        with open(path, "rb") as fh:
            assert fh.read() == (header + "".join(row % p for p in pairs)).encode()


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


def test_close_sweep_values_keep_distinct_labels():
    # %g would print both as 0.1; a label %g rounds is the value's repr
    spec = SweepSpec(short_cfg("reno", horizon=0.2), "fwd_prop_delay_s",
                     [0.1, 0.1000001, 0.025])
    points = run_sweep(spec, scenario_prefix="p")
    assert [pt.result.report.scenario_id for pt in points] == \
        ["p:0.1", "p:0.1000001", "p:0.025"]


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


@pytest.mark.parametrize("repeat", [0, -3, True, 2.5, "2"])
def test_run_sweep_checks_repeat_as_a_count_before_any_run(monkeypatch, repeat):
    spec = SweepSpec(short_cfg("reno", horizon=1.0), "horizon_s", [1.0], repeat=repeat)
    runs = []
    monkeypatch.setattr(harness, "run_scenario",
                        lambda *a, **kw: runs.append(a))
    with pytest.raises(ConfigError, match="^repeat must be a positive whole number, "
                       "got %s$" % re.escape(repr(repeat))):
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


def test_run_sweep_value_too_large_for_a_float_is_a_config_error():
    spec = SweepSpec(short_cfg("reno", horizon=1.0), "horizon_s", [10**400])
    with pytest.raises(ConfigError, match="sweep point 10{400}: horizon_s must be"):
        run_sweep(spec)


_LONG = 10**5000  # an int past Python's 4,300-digit printing limit


@pytest.mark.parametrize("call, match", [
    (lambda: ScenarioConfig(horizon_s=_LONG, flows=[FlowConfig("reno")]).validate(),
     r"^horizon_s must be at least 1 ns and at most 2\*\*63 ns once rounded to "
     "whole ns, got <int of 5001 digits>$"),
    (lambda: run_sweep(SweepSpec(short_cfg("reno", horizon=1.0), "horizon_s",
                                 [-_LONG])),
     "^sweep point <int of 5001 digits>: horizon_s must be"),
    (lambda: ScenarioConfig(flows=[FlowConfig("lp", {"alpha": _LONG})]).validate(),
     r"^flows\.0\.params\.alpha must be in \(0, 1\], got <int of 5001 digits>$"),
    (lambda: ScenarioConfig(flows=[FlowConfig("reno", {"x": _LONG})]).validate(),
     r"^flows\.0\.params\.x: reno takes no such parameter$"),
    (lambda: ScenarioConfig(flows=[_LONG]).validate(),
     "^flows must be a list of flow configs, got <list holding an int too long"),
], ids=["scenario-field", "sweep-value", "controller-param", "reno-params",
        "flows"])
def test_int_too_long_to_print_is_a_config_error_naming_the_field(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_run_sweep_builds_each_controller_once_per_run(monkeypatch):
    # one 2-flow fig2_gain point: validation builds both controllers once,
    # and each run builds its own
    spec = expand_experiment("fig2_gain")
    spec.base.horizon_s = 1.0
    spec.values = spec.values[:1]
    built = []
    make_controller = harness.make_controller
    monkeypatch.setattr(harness, "make_controller",
                        lambda *a: built.append(make_controller(*a)) or built[-1])
    run_sweep(spec)
    assert len(built) == 4
    spec.repeat = 2
    built.clear()
    run_sweep(spec)
    assert len(built) == 6
    assert len({id(ctl) for ctl in built}) == 6  # fresh for every run


def test_cli_sweep_builds_no_controllers_for_the_base_config(tmp_path, monkeypatch):
    # one 2-flow point: loading the spec validates it once, run_sweep
    # validates it again before any run, and the run builds its own; the
    # base config alone is never validated
    spec = write(tmp_path, "sweep.cfg",
                 "axis=flows.1.params.tau_ms\nvalues=25\nhorizon_s=0.5\n"
                 "flows.0.protocol=reno\nflows.1.protocol=ledbat\n")
    built = []
    make_controller = harness.make_controller
    monkeypatch.setattr(harness, "make_controller",
                        lambda *a: built.append(make_controller(*a)) or built[-1])
    assert cli.main(["sweep", spec, "--out", str(tmp_path / "out")]) == 0
    assert len(built) == 6


def test_run_sweep_repeat_marks_reps():
    base = short_cfg("reno", horizon=1.0)
    spec = SweepSpec(base, "horizon_s", [1.0], repeat=2)
    points = run_sweep(spec, scenario_prefix="p")
    assert [pt.result.report.scenario_id for pt in points] == \
        ["p:1:rep0", "p:1:rep1"]


def test_repeated_runs_write_their_own_trace_files(tmp_path):
    # two fig1 pairings, each run twice: 8 trace files, the CSV and the script
    spec = expand_experiment("fig1")
    spec.base.horizon_s = 0.5
    spec.values, spec.labels, spec.repeat = spec.values[:2], spec.labels[:2], 2
    written = emit_plot_data(run_sweep(spec, scenario_prefix="fig1"), "fig1",
                             str(tmp_path))
    assert len(written) == len(set(written)) == 10
    assert sorted(os.path.basename(p) for p in written) == sorted(os.listdir(tmp_path))
    assert {"fig1_reno-lp_rep0_flow1_cwnd.csv",
            "fig1_lp-lp_rep1_flow0_cwnd.csv"} <= set(os.listdir(tmp_path))
    # each row of the figure CSV starts with the run name its files carry
    rows = (tmp_path / "fig1.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        "reno-lp_rep0", "reno-lp_rep1", "lp-lp_rep0", "lp-lp_rep1"]


def test_boolean_sweep_values_print_as_the_grammar_writes_them():
    spec = load_sweep("axis=flows.1.params.slow_start\nvalues=true,false\n"
                      "horizon_s=0.5\nflows.0.protocol=reno\nflows.1.protocol=ledbat\n")
    points = run_sweep(spec, scenario_prefix="s")
    assert [pt.label for pt in points] == ["true", "false"]
    rows = sweep_csv(points).splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["s:true", "axis=flows.1.params.slow_start;protocols=reno+ledbat;value=true"],
        ["s:false", "axis=flows.1.params.slow_start;protocols=reno+ledbat;value=false"]]


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
     "^line 3: repeat must be a positive whole number, got 0$"),
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
     "line 2: capacity_bps must be finite and positive"),
    ("run", "flows.0.protocol=ledbat\nflows.0.params.tau_ms=%s\n" % _HUGE,
     "line 2: flows.0.params.tau_ms must be"),
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


@pytest.mark.parametrize("command, text", [
    ("run", b"horizon_s=2\n# \xff\nflows.0.protocol=reno\n"),
    ("sweep", b"axis=horizon_s\nvalues=1,2\xe9\nflows.0.protocol=reno\n"),
], ids=["run", "sweep"])
def test_cli_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys,
                                                    command, text):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(text)
    log = tmp_path / "events.log"
    log.write_text("kept\n")
    assert cli.main([command, str(cfg), "--event-log", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("lbesim: line 2: not UTF-8 text")
    assert "internal error" not in err
    assert log.read_text() == "kept\n"  # bad input wipes no log


# str.splitlines() breaks lines at each of these too; cli._read counts
# lines by "\n" alone, and so must the config parsers.
_NOT_NEWLINES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_config_lines_break_only_at_newlines(tmp_path, capsys, command):
    head = "axis=horizon_s\nvalues=2\n" if command == "sweep" else ""
    for char in _NOT_NEWLINES:
        # a CRLF line end still counts as one
        text = head + "# a%sb\r\nhorizon_s=2\nflows.0.protocol=reno\nbogus=1\n" % char
        cfg = tmp_path / "breaks.cfg"
        cfg.write_bytes(text.encode("utf-8"))
        assert cli.main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("lbesim: line %d: unknown key 'bogus'"
                              % text.count("\n")), (char, err)


def test_cli_reads_config_files_as_utf8(tmp_path, capsys):
    cfg = tmp_path / "utf8.cfg"
    cfg.write_bytes("# d\u00e9bit\n".encode("utf-8") + RUN_CONFIG.encode())
    assert cli.main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith("scenario_id,")


# One line of the README example changed so that a time would overflow on
# its way to integer nanoseconds: (key, value, the field the error names).
_OVERFLOWS = [
    ("horizon_s", "1e300", "horizon_s"),
    ("capacity_bps", "1e-300", "capacity_bps"),  # via its serialization time
    ("fwd_prop_delay_ms", "1e305", "fwd_prop_delay_s"),
    ("flows.1.extra_return_delay_ms", "1e305", "flows.1.extra_return_delay_s"),
]


@pytest.mark.parametrize("key, value, field", _OVERFLOWS,
                         ids=[key for key, _, _ in _OVERFLOWS])
def test_cli_time_too_long_for_nanoseconds_is_a_usage_error(tmp_path, capsys,
                                                           key, value, field):
    lines = readme_example().splitlines()
    [i] = [n for n, line in enumerate(lines) if line.startswith(key + "=")]
    lines[i] = "%s=%s" % (key, value)
    cfg = write(tmp_path, "overflow.cfg", "\n".join(lines) + "\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "line %d: %s" % (i + 1, field) in err
    assert "at most 2**63 ns" in err
    assert "internal error" not in err


# One line of the README example changed so that a positive time rounds to
# 0 ns: the serialization time (0.12 ns at 100 Tbit/s), the horizon, and
# the two delays, which may be 0 but not round to it.
_UNDERFLOWS = [
    ("capacity_bps", "1e14", "capacity_bps: the serialization time"),
    ("horizon_s", "1e-12", "horizon_s"),
    ("flows.1.start_at", "1e-12", "flows.1.start_at"),
    ("flows.1.extra_return_delay_ms", "1e-7", "flows.1.extra_return_delay_s"),
]


@pytest.mark.parametrize("key, value, field", _UNDERFLOWS,
                         ids=[key for key, _, _ in _UNDERFLOWS])
def test_cli_time_that_rounds_to_0_ns_is_a_usage_error(tmp_path, capsys,
                                                       key, value, field):
    lines = readme_example().splitlines()
    [i] = [n for n, line in enumerate(lines) if line.startswith(key + "=")]
    lines[i] = "%s=%s" % (key, value)
    cfg = write(tmp_path, "underflow.cfg", "\n".join(lines) + "\n")
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "line %d: %s" % (i + 1, field) in err
    assert "at least 1 ns" in err
    assert "internal error" not in err


def test_times_of_1_ns_validate_and_shorter_ones_do_not():
    ScenarioConfig(horizon_s=1e-9, fwd_prop_delay_s=1e-9,
                   capacity_bps=1500 * 8 / 1e-9,
                   flows=[FlowConfig("reno")]).validate()
    # judged by the nanoseconds they round to: 1e-6 ms is 9.999999999999999e-10 s
    cfg = load_scenario("fwd_prop_delay_ms=1e-6\nflows.0.protocol=reno\n"
                        "flows.0.start_at=0.6e-9\nflows.0.extra_return_delay_ms=1e-6\n")
    assert [harness.engine.to_ns(t) for t in (cfg.fwd_prop_delay_s, cfg.flows[0].start_at,
                                              cfg.flows[0].extra_return_delay_s)] == [1, 1, 1]
    for cfg, field in (
            (ScenarioConfig(horizon_s=0.4e-9, flows=[FlowConfig("reno")]), "horizon_s"),
            (ScenarioConfig(fwd_prop_delay_s=1e-12, flows=[FlowConfig("reno")]),
             "fwd_prop_delay_s"),
            (ScenarioConfig(capacity_bps=1500 * 8 / 0.4e-9,
                            flows=[FlowConfig("reno")]), "capacity_bps"),
            (ScenarioConfig(flows=[FlowConfig("reno", start_at=0.4e-9)]),
             "flows.0.start_at"),
            (ScenarioConfig(flows=[FlowConfig("reno", extra_return_delay_s=1e-12)]),
             "flows.0.extra_return_delay_s")):
        with pytest.raises(ConfigError, match="^%s.* at least 1 ns" % field) as exc:
            cfg.validate()
        assert exc.value.key == field


@pytest.mark.parametrize("cfg, field", [
    (ScenarioConfig(horizon_s=1e300, flows=[FlowConfig("reno")]), "horizon_s"),
    (ScenarioConfig(capacity_bps=1e-300, flows=[FlowConfig("reno")]), "capacity_bps"),
    (ScenarioConfig(pkt_size_bytes=10**300, flows=[FlowConfig("reno")]), "capacity_bps"),
    (ScenarioConfig(fwd_prop_delay_s=1e302, flows=[FlowConfig("reno")]), "fwd_prop_delay_s"),
    (ScenarioConfig(flows=[FlowConfig("reno"),
                           FlowConfig("ledbat", extra_return_delay_s=1e302)]),
     "flows.1.extra_return_delay_s"),
], ids=["horizon", "capacity", "packet-size", "propagation", "return-delay"])
def test_validate_rejects_times_too_long_for_nanoseconds(cfg, field):
    with pytest.raises(ConfigError, match="^%s" % re.escape(field)) as exc:
        cfg.validate()
    assert exc.value.key == field


def test_times_up_to_the_bound_validate_and_convert_to_nanoseconds():
    top = harness.MAX_TIME_S
    assert harness.engine.to_ns(top) == 2 ** 63
    ScenarioConfig(horizon_s=top, fwd_prop_delay_s=top,
                   capacity_bps=1500 * 8 / top,
                   flows=[FlowConfig("reno", extra_return_delay_s=top)]).validate()


def test_cli_lp_inference_phase_too_long_for_nanoseconds_is_a_usage_error(
        tmp_path, capsys):
    # an inference phase lasts inference_rtts smoothed RTTs; with 1e308
    # its end overflowed integer nanoseconds at the first LP backoff
    text = readme_example()
    for old, new in (("horizon_s=120", "horizon_s=20"),
                     ("flows.1.protocol=ledbat", "flows.1.protocol=lp"),
                     ("flows.1.params.tau_ms=25", "flows.1.params.inference_rtts=1e308")):
        assert old + "\n" in text
        text = text.replace(old + "\n", new + "\n")
    lines = text.splitlines()
    cfg = write(tmp_path, "lp.cfg", text)
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    line = lines.index("flows.1.params.inference_rtts=1e308") + 1
    assert "line %d: flows.1.params.inference_rtts" % line in err
    assert "at most 2**63 ns" in err
    assert "internal error" not in err


def test_lp_inference_rtts_is_bounded_by_the_horizon():
    def cfg(horizon, **params):
        return ScenarioConfig(horizon_s=horizon, flows=[
            FlowConfig("reno"), FlowConfig("lp", params)])
    # no RTT outlasts the run, so inference_rtts * horizon_s bounds the phase
    cfg(1.0, inference_rtts=harness.MAX_TIME_S).validate()
    cfg(3e9).validate()  # the default 3 RTTs
    for horizon, params, key in (
            (20.0, {"inference_rtts": 1e308}, "flows.1.params.inference_rtts"),
            (120.0, {"inference_rtts": 1e9}, "flows.1.params.inference_rtts"),
            (1.0, {"inference_rtts": 2 * harness.MAX_TIME_S}, "flows.1.params.inference_rtts"),
            # and at least 1 ns: 1.2e-10 s would round to 0
            (120.0, {"inference_rtts": 1e-12}, "flows.1.params.inference_rtts"),
            (5e9, {}, "horizon_s")):  # the default, so the horizon is at fault
        with pytest.raises(ConfigError, match="^%s: the longest inference phase "
                           "of flow 1 " % re.escape(key)) as exc:
            cfg(horizon, **params).validate()
        assert exc.value.key == key


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
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o"), "--traces",
                     "--event-log", str(log)]) == 0
    events = [l.split() for l in log.read_text().splitlines()]
    assert events and all(len(e) == 3 for e in events)
    assert ["0.000000000", "FlowStart", "start-flow0"] in events
    # the 100 ms metrics sampler is the only MetricsSampleTick
    assert {e[2] for e in events if e[1] == "MetricsSampleTick"} == {"sample"}
    # and it ticks only with traces on
    assert cli.main(["run", cfg, "--out", str(tmp_path / "p"),
                     "--event-log", str(log)]) == 0
    assert "MetricsSampleTick" not in log.read_text()


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


def test_cli_runs_the_readme_example_without_numpy(tmp_path):
    cfg = write(tmp_path, "readme.cfg", readme_example())
    src = os.path.dirname(os.path.dirname(harness.__file__))
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            "sys.argv = ['lbesim', 'run', %r]; "
            "runpy.run_module('lbesim.cli', run_name='__main__')" % cfg)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == harness.metrics.MetricsReport.CSV_HEADER
    assert len(proc.stdout.splitlines()) == 2
