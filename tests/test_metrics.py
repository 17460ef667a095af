"""Metric function unit tests: Jain index anchors and invariances,
efficiency bounds, TCP breakdown, windowed fairness, queue occupancy and
loss rate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbesim.metrics import (FlowCounters, MetricsReport, build_report,
                            efficiency, flow_throughput, jain_index,
                            loss_rate, queue_occupancy, short_term_fairness,
                            tcp_breakdown)


def fc(proto="reno", mbytes=10.0, sent=1000, dropped=0, fid=0, window_bytes=None):
    return FlowCounters(flow_id=fid, protocol=proto,
                        bytes_delivered=int(mbytes * 1e6), packets_sent=sent,
                        packets_dropped=dropped, window_bytes=dict(window_bytes or {}))


# -- Jain index ----------------------------------------------------------

def test_jain_equal_shares_is_one():
    assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jain_monopoly_of_two_is_half():
    assert jain_index([7.5, 0.0]) == pytest.approx(0.5)


def test_jain_monopoly_of_n_is_one_over_n():
    for n in (2, 4, 10):
        assert jain_index([3.0] + [0.0] * (n - 1)) == pytest.approx(1.0 / n)


def test_jain_all_zero_is_undefined():
    assert jain_index([0.0, 0.0]) is None


def test_jain_rejects_bad_input():
    with pytest.raises(ValueError):
        jain_index([])
    with pytest.raises(ValueError):
        jain_index([1.0, -0.5])


@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-3, max_value=1e9)),
                min_size=1, max_size=20),
       st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_jain_scale_invariance_and_bounds(rates, k):
    j = jain_index(rates)
    if j is None:
        assert all(r == 0.0 for r in rates)
        return
    assert 1.0 / len(rates) - 1e-9 <= j <= 1.0 + 1e-9
    scaled = jain_index([k * r for r in rates])
    assert scaled == pytest.approx(j, rel=1e-6)


# -- throughput and efficiency -------------------------------------------

def test_flow_throughput_is_bits_per_second():
    assert flow_throughput(fc(mbytes=15.0), 120.0) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        flow_throughput(fc(), 0.0)


def test_efficiency_sums_flows_against_capacity():
    flows = [fc(mbytes=75.0), fc(mbytes=60.0)]
    assert efficiency(flows, 120.0, 10e6) == pytest.approx(0.9)
    with pytest.raises(ValueError):
        efficiency(flows, 120.0, 0.0)


def test_efficiency_above_one_is_an_accounting_bug():
    with pytest.raises(ValueError):
        efficiency([fc(mbytes=200.0)], 120.0, 10e6)


# -- TCP breakdown -------------------------------------------------------

def test_tcp_breakdown_share():
    flows = [fc("reno", mbytes=90.0), fc("ledbat", mbytes=10.0, fid=1)]
    assert tcp_breakdown(flows, 120.0) == pytest.approx(0.9)


def test_tcp_breakdown_none_without_reno():
    flows = [fc("ledbat", 10.0), fc("nice", 10.0, fid=1)]
    assert tcp_breakdown(flows, 120.0) is None


def test_tcp_breakdown_none_when_nothing_delivered():
    flows = [fc("reno", 0.0), fc("ledbat", 0.0, fid=1)]
    assert tcp_breakdown(flows, 120.0) is None


# -- short-term fairness -------------------------------------------------

def test_short_term_fairness_over_alternating_windows():
    # each one-second window carries exactly one of the two flows
    d0 = {0: 1000}
    d1 = {1: 1000}
    mean, mn, series = short_term_fairness([d0, d1], horizon_s=2.0)
    assert [t for t, _ in series] == [0.0, 1.0]
    assert mean == pytest.approx(0.5)
    assert mn == pytest.approx(0.5)


def test_short_term_fairness_equal_traffic_is_one():
    d = {0: 500, 1: 500}
    mean, mn, series = short_term_fairness([d, dict(d)], horizon_s=2.0)
    assert mean == pytest.approx(1.0) and mn == pytest.approx(1.0)


def test_short_term_fairness_quiet_windows_are_skipped():
    d0 = {0: 1000}
    mean, mn, series = short_term_fairness([d0, {}], horizon_s=5.0)
    assert len(series) == 1  # four of the five windows carried nothing


def test_short_term_fairness_counts_bytes_at_the_horizon_in_the_last_window():
    # a delivery at t == horizon lands in bin 2 of a 2-window horizon
    mean, mn, series = short_term_fairness([{2: 1000}, {1: 1000}], horizon_s=2.0)
    assert [t for t, _ in series] == [1.0]
    assert mean == pytest.approx(1.0)


def test_short_term_fairness_no_traffic():
    mean, mn, series = short_term_fairness([{}, {}], horizon_s=2.0)
    assert mean is None and mn is None and series == []


def test_short_term_fairness_bad_window():
    with pytest.raises(ValueError):
        short_term_fairness([{}], horizon_s=0.0)


# -- queue occupancy and loss rate ---------------------------------------

def test_queue_occupancy_mean_over_buffer():
    # samples 0, 50 and 100
    assert queue_occupancy(150, 3, 100, 100) == pytest.approx(0.5)


def test_queue_occupancy_rejects_out_of_range():
    with pytest.raises(ValueError):
        queue_occupancy(101, 1, 101, 100)   # peak above the buffer
    with pytest.raises(ValueError):
        queue_occupancy(-1, 1, -1, 100)     # negative backlog
    with pytest.raises(ValueError):
        queue_occupancy(300, 2, 100, 100)   # sum above peak * count
    with pytest.raises(ValueError):
        queue_occupancy(0, 0, 0, 100)       # no samples


@given(st.integers(min_value=1, max_value=10**6).flatmap(
    lambda b: st.tuples(st.just(b), st.lists(st.integers(0, b), min_size=1,
                                             max_size=500))))
def test_queue_occupancy_equals_float_mean_of_the_series(case):
    buffer_pkts, depths = case
    expected = float(np.mean(np.asarray(depths, dtype=float))) / buffer_pkts
    got = queue_occupancy(sum(depths), len(depths), max(depths), buffer_pkts)
    assert got == expected  # bit for bit, not approximately


def test_loss_rate_across_flows():
    flows = [fc(sent=900, dropped=9), fc(sent=100, dropped=1, fid=1)]
    assert loss_rate(flows) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        loss_rate([fc(sent=0)])


# -- report assembly and CSV ---------------------------------------------

def test_build_report_and_csv_row():
    flows = [fc("reno", mbytes=90.0, sent=900, dropped=9,
                window_bytes={0: int(90e6)}),
             fc("ledbat", mbytes=30.0, sent=300, dropped=0, fid=1,
                window_bytes={0: int(30e6)})]
    report = build_report("sid", {"b": 2, "a": 1}, flows,
                          20, 1, 20, 100, 120.0, 10e6)
    assert report.eta == pytest.approx(0.8)
    assert report.tcp_pct == pytest.approx(0.75)
    assert report.f_lt == pytest.approx(jain_index([6e6, 2e6]))
    assert report.b_norm == pytest.approx(0.2)
    assert report.p_l == pytest.approx(9.0 / 1200.0)
    row = report.csv_row()
    cells = row.split(",")
    assert cells[0] == "sid"
    assert cells[1] == "a=1;b=2"  # params serialized in sorted order
    assert len(cells) == len(MetricsReport.CSV_COLUMNS) + 2  # + 2 flows


def test_csv_row_renders_none_as_empty_cell():
    flows = [fc("ledbat", mbytes=30.0, window_bytes={0: int(30e6)})]
    report = build_report("sid", {}, flows, 0, 1, 0, 100, 120.0, 10e6)
    assert report.tcp_pct is None
    cells = report.csv_row().split(",")
    assert cells[3] == ""  # tcp_pct column


def test_csv_floats_use_stable_formatting():
    flows = [fc("reno", mbytes=15.0, window_bytes={0: int(15e6)})]
    report = build_report("sid", {}, flows, 0, 1, 0, 100, 120.0, 10e6)
    cells = report.csv_row().split(",")
    assert cells[2] == "%.10g" % report.eta
