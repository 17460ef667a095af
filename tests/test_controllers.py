"""Controller unit tests against independently computed oracles: the delay
filters, threshold tests, the linear delay-target step, the LP phase
machine, the NICE halving gate and the gain/target coordinate mapping."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lbesim.controllers import (GainTargetCoords, LedbatController,
                                LpController, NiceController, RenoController,
                                SlidingExtrema, ledbat_offset,
                                lp_early_congestion, lp_update_delay,
                                make_controller)
from lbesim.engine import Simulator

INF = float("inf")


class StubFlow:
    """Bare attribute bag standing in for a FlowEndpoint."""

    def __init__(self, cwnd=10.0, ssthresh=2.0, sim=None):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.sim = sim or Simulator()
        self.srtt = 0.05
        self.flow_id = 0
        self.snd_next = 0
        self.snd_una = 0


# -- delay filter oracles ------------------------------------------------

def test_lp_update_delay_oracle_100_random_inputs():
    rng = random.Random(7)
    for _ in range(100):
        prev = None if rng.random() < 0.2 else rng.uniform(0.01, 0.2)
        dmin = rng.uniform(0.005, 0.05)
        dmax = dmin + rng.uniform(0.0, 0.2)
        d = rng.uniform(0.001, 0.3)
        alpha = rng.uniform(0.01, 1.0)
        ewma, mn, mx = lp_update_delay(prev, dmin, dmax, d, alpha)
        expected = d if prev is None else (1.0 - alpha) * prev + alpha * d
        assert ewma == pytest.approx(expected)
        assert mn == min(dmin, d)
        assert mx == max(dmax, d)


def test_lp_early_congestion_oracle_100_random_inputs():
    rng = random.Random(8)
    for _ in range(100):
        dmin = rng.uniform(0.005, 0.05)
        dmax = dmin + rng.uniform(0.0, 0.2)
        ewma = rng.uniform(0.0, 0.3)
        delta = rng.uniform(0.0, 1.0)
        got = lp_early_congestion(ewma, dmin, dmax, delta)
        assert got == (ewma > dmin + (dmax - dmin) * delta)


def test_ledbat_offset_oracle_100_random_inputs():
    rng = random.Random(9)
    for _ in range(100):
        tau = rng.uniform(0.001, 0.12)
        dmin = rng.uniform(0.01, 0.05)
        d = dmin + rng.uniform(0.0, 0.2)
        assert ledbat_offset(tau, d, dmin) == pytest.approx(tau - (d - dmin))


def test_nice_mark_threshold_oracle_100_random_inputs():
    rng = random.Random(10)
    for _ in range(100):
        delta = rng.uniform(0.0, 1.0)
        ctl = NiceController(delta=delta)
        ctl.rtt_min = rng.uniform(0.01, 0.1)
        ctl.rtt_max = ctl.rtt_min + rng.uniform(0.0, 0.3)
        expected = ctl.rtt_min + (ctl.rtt_max - ctl.rtt_min) * delta
        assert ctl.mark_threshold() == pytest.approx(expected)


def test_ledbat_step_oracle_100_random_inputs():
    rng = random.Random(11)
    for _ in range(100):
        tau = rng.uniform(0.005, 0.1)
        gamma = rng.uniform(1.0, 20.0) / tau
        ctl = LedbatController(tau=tau, gamma=gamma)
        dmin = rng.uniform(0.02, 0.05)
        ctl.d_min = dmin
        c = rng.uniform(1.0, 60.0)
        flow = StubFlow(cwnd=c)
        d = rng.uniform(0.01, 0.3)
        ctl.on_ack(flow, d + 0.025, d)
        dmin2 = min(dmin, d)
        step = min(gamma * (tau - (d - dmin2)), 1.0)  # ramp capped at 1/RTT
        assert flow.cwnd == pytest.approx(max(c + step / c, 1.0))
        assert ctl.d_min == dmin2


# -- sliding extrema window ----------------------------------------------

@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=3.0,
                                    allow_nan=False),
                          st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False)),
                min_size=1, max_size=80))
def test_sliding_extrema_matches_naive_oracle(steps):
    window_s, bucket_s = 5.0, 1.0
    ext = SlidingExtrema(window_s, bucket_s)
    naive = []  # (bucket_index, value)
    t = 0.0
    for dt, v in steps:
        t += dt
        ext.add(t, v)
        k = int(t / bucket_s)
        naive.append((k, v))
        live = [x for kk, x in naive if kk > k - int(window_s / bucket_s)]
        assert ext.min == min(live)
        assert ext.max == max(live)


@st.composite
def extrema_runs(draw):
    """Window and bucket sizes, then (time, value) steps at non-decreasing
    times; a bucket's worth of gap and a repeated value are both likely."""
    bucket_s = draw(st.sampled_from([0.05, 0.25, 1.0, 2.5]))
    window_s = bucket_s * draw(st.integers(min_value=1, max_value=6)) \
        + draw(st.sampled_from([0.0, bucket_s / 3.0]))
    dt = st.one_of(st.just(0.0), st.floats(0.0, bucket_s),
                   st.floats(0.0, 3.0 * window_s))
    value = st.one_of(st.sampled_from([0.01, 0.05, 0.2]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    return window_s, bucket_s, draw(st.lists(st.tuples(dt, value),
                                             min_size=1, max_size=60))


@example((1.0, 1.0, [(0.0, 0.5), (0.0, 9.0), (0.0, -9.0), (0.2, 1.0),
                     (1.0, 0.7)]))  # the bucket holding both extremes leaves
@given(extrema_runs())
def test_sliding_extrema_caches_brute_force_extrema(run):
    window_s, bucket_s, steps = run
    ext = SlidingExtrema(window_s, bucket_s)
    n_buckets = max(int(window_s / bucket_s), 1)
    seen = []  # (bucket_index, value)
    t = 0.0
    for dt, v in steps:
        t += dt
        ext.add(t, v)
        k = int(t / bucket_s)
        seen.append((k, v))
        live = [x for kk, x in seen if kk > k - n_buckets]
        assert (ext.min, ext.max) == (min(live), max(live))
        # the cache agrees with a scan of the buckets it keeps
        assert ext.min == min(b[1] for b in ext._buckets)
        assert ext.max == max(b[2] for b in ext._buckets)


def test_sliding_extrema_forgets_old_values():
    ext = SlidingExtrema(window_s=3.0, bucket_s=1.0)
    ext.add(0.0, 0.010)
    ext.add(5.0, 0.080)  # the early minimum has aged out of the window
    assert ext.min == 0.080
    ext.add(5.5, 0.060)
    assert ext.min == 0.060
    assert ext.max == 0.080


def test_sliding_extrema_rejects_bad_window():
    with pytest.raises(ValueError):
        SlidingExtrema(window_s=0.0)
    with pytest.raises(ValueError):
        SlidingExtrema(window_s=1.0, bucket_s=-1.0)


# -- Reno ----------------------------------------------------------------

def test_reno_slow_start_and_congestion_avoidance():
    ctl = RenoController()
    flow = StubFlow(cwnd=2.0, ssthresh=4.0)
    ctl.on_ack(flow, 0.05, 0.026)
    assert flow.cwnd == 3.0  # slow start: +1 per ack
    flow.cwnd = 8.0
    ctl.on_ack(flow, 0.05, 0.026)
    assert flow.cwnd == pytest.approx(8.0 + 1.0 / 8.0)
    ctl.on_loss(flow, "dupack")
    assert flow.ssthresh == pytest.approx((8.0 + 1.0 / 8.0) / 2.0)
    assert flow.cwnd == flow.ssthresh
    assert ctl.inflate_on_dupack


# -- LP phase machine ----------------------------------------------------

def drive_lp_until(ctl, flow, owd, predicate, limit=500):
    for _ in range(limit):
        ctl.on_ack(flow, owd + 0.025, owd)
        if predicate():
            return True
    return False


def test_lp_indication_halves_and_freezes_then_collapses():
    ctl = LpController(alpha=0.25)
    flow = StubFlow(cwnd=16.0, ssthresh=2.0)
    # establish a quiet baseline, then raise the one-way delay
    ctl.on_ack(flow, 0.055, 0.030)
    assert ctl.phase == "normal"
    before = None

    def entered_inference():
        return ctl.phase == "inference"

    # the smoothed delay crosses the threshold exactly once: halve + freeze
    for _ in range(100):
        before = flow.cwnd
        ctl.on_ack(flow, 0.075, 0.050)
        if entered_inference():
            break
    assert ctl.phase == "inference"
    assert flow.cwnd == pytest.approx(max(before / 2.0, 2.0))
    assert not ctl.armed
    frozen = flow.cwnd
    # sustained high delay is the same episode: the window stays frozen
    for _ in range(5):
        ctl.on_ack(flow, 0.075, 0.050)
    assert flow.cwnd == frozen and ctl.phase == "inference"
    # delay de-asserts (re-arms the detector), then re-asserts while still
    # inferring: persistent congestion collapses to the minimum window
    assert drive_lp_until(ctl, flow, 0.001, lambda: ctl.armed)
    assert ctl.phase == "inference"
    assert drive_lp_until(ctl, flow, 0.300, lambda: flow.cwnd == 1.0, limit=5)
    assert flow.cwnd == 1.0 and flow.ssthresh == 2.0
    assert ctl.phase == "normal"


def test_lp_inference_phase_times_out():
    sim = Simulator()
    ctl = LpController()
    flow = StubFlow(cwnd=10.0, ssthresh=2.0, sim=sim)
    ctl._react(flow, 0.05)
    assert ctl.phase == "inference"
    sim.run_until(3.0 * flow.srtt + 0.01)
    assert ctl.phase == "normal"


def test_lp_loss_rearms_detector_and_reacts():
    ctl = LpController()
    flow = StubFlow(cwnd=12.0, ssthresh=2.0)
    ctl.armed = False
    ctl.on_loss(flow, "dupack")
    assert ctl.armed
    assert flow.cwnd == 6.0
    assert ctl.phase == "inference"
    # a second loss while inferring means persistent congestion
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 1.0 and flow.ssthresh == 2.0
    assert ctl.phase == "normal"


def test_lp_timeout_exits_inference():
    ctl = LpController()
    flow = StubFlow(cwnd=10.0, ssthresh=2.0)
    ctl._react(flow, 0.05)
    ctl.on_loss(flow, "timeout")
    assert ctl.phase == "normal"


def test_lp_grows_like_reno_when_uncongested():
    ctl = LpController()
    flow = StubFlow(cwnd=4.0, ssthresh=8.0)
    ctl.on_ack(flow, 0.055, 0.030)
    assert flow.cwnd == 5.0  # slow start below ssthresh
    flow.cwnd, flow.ssthresh = 8.0, 8.0
    ctl.on_ack(flow, 0.055, 0.030)
    assert flow.cwnd == pytest.approx(8.0 + 1.0 / 8.0)


# -- NICE halving gate ---------------------------------------------------

def test_nice_halves_only_when_marked_and_backlogged():
    ctl = NiceController()
    ctl.in_slow_start = False
    ctl.base_rtt = 0.05
    flow = StubFlow(cwnd=10.0)
    # majority marked and a Vegas backlog beyond beta_v: multiplicative cut
    ctl.marked, ctl.total = 8, 10
    ctl._close_epoch(flow, rtt=0.1)  # diff = 10*(1-0.5) = 5 >= beta_v
    assert flow.cwnd == 5.0
    assert ctl.marked == 0 and ctl.total == 0


def test_nice_marked_but_small_backlog_follows_vegas_rules():
    ctl = NiceController()
    ctl.in_slow_start = False
    ctl.base_rtt = 0.05
    flow = StubFlow(cwnd=2.0)
    ctl.marked, ctl.total = 9, 10
    ctl._close_epoch(flow, rtt=0.06)  # diff = 2*(1-5/6) = 0.33 < alpha_v
    # below-band growth: increase_rate (20/s) over the 60 ms epoch
    assert flow.cwnd == pytest.approx(2.0 + 20.0 * 0.06)


def test_nice_vegas_decrease_without_marks():
    ctl = NiceController()
    ctl.in_slow_start = False
    ctl.base_rtt = 0.05
    flow = StubFlow(cwnd=10.0)
    ctl.marked, ctl.total = 1, 10
    ctl._close_epoch(flow, rtt=0.1)  # diff = 5 > beta_v, minority marked
    assert flow.cwnd == 9.0


def test_nice_window_floor():
    ctl = NiceController(floor=1.0 / 48.0)
    flow = StubFlow(cwnd=1.0 / 40.0)
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 1.0 / 48.0
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 1.0 / 48.0  # never below one packet per 48 RTTs


def test_nice_loss_resets_epoch_and_exits_slow_start():
    ctl = NiceController()
    flow = StubFlow(cwnd=8.0)
    ctl.marked, ctl.total = 3, 7
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 4.0
    assert ctl.marked == 0 and ctl.total == 0
    assert not ctl.in_slow_start


def test_nice_slow_start_exits_on_marked_ack():
    ctl = NiceController()
    flow = StubFlow(cwnd=4.0)
    flow.snd_next = 10
    ctl.on_ack(flow, 0.050, 0.026)
    assert ctl.in_slow_start and flow.cwnd == 5.0
    # a marked ack (delay beyond the min/max-range threshold) ends the
    # exponential phase at once, before a long-RTT epoch can overshoot
    ctl.on_ack(flow, 0.200, 0.176)
    assert not ctl.in_slow_start and flow.cwnd == 5.0


def test_nice_base_rtt_is_all_time_minimum():
    ctl = NiceController()
    flow = StubFlow(cwnd=2.0)
    flow.snd_next = 5
    ctl.on_ack(flow, 0.050, 0.026)
    ctl.on_ack(flow, 0.120, 0.096)
    assert ctl.base_rtt == 0.050
    # the marking extrema, in contrast, live in the sliding window
    assert ctl.rtt_min == 0.050 and ctl.rtt_max == 0.120


# -- LEDBAT behaviour ----------------------------------------------------

def test_ledbat_converges_on_target_sign():
    ctl = LedbatController(tau=0.025)
    flow = StubFlow(cwnd=10.0)
    ctl.on_ack(flow, 0.05, 0.026)  # first sample sets the base
    assert ctl.d_min == 0.026
    grown = flow.cwnd
    assert grown > 10.0  # below target: grow
    ctl.on_ack(flow, 0.1, 0.026 + 0.060)  # far above target
    assert flow.cwnd < grown  # above target: shrink


def test_ledbat_halves_once_on_loss_and_keeps_base_delay():
    ctl = LedbatController(tau=0.025)
    ctl.d_min = 0.026
    flow = StubFlow(cwnd=9.0)
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 4.5
    assert ctl.d_min == 0.026
    flow.cwnd = 1.5
    ctl.on_loss(flow, "dupack")
    assert flow.cwnd == 1.0  # never below one packet


def test_ledbat_cwnd_floor_is_one_packet():
    ctl = LedbatController(tau=0.025)
    ctl.d_min = 0.026
    flow = StubFlow(cwnd=1.0)
    ctl.on_ack(flow, 0.3, 0.250)  # way above target
    assert flow.cwnd == 1.0


def test_ledbat_optional_slow_start_stops_at_target():
    ctl = LedbatController(tau=0.025, slow_start=True)
    flow = StubFlow(cwnd=2.0, ssthresh=100.0)
    ctl.on_ack(flow, 0.05, 0.026)
    assert flow.cwnd == 3.0  # exponential while below target
    ctl.on_ack(flow, 0.1, 0.080)  # queue above target: exits
    assert not ctl.in_slow_start


# -- inline filters against their reference helpers ---------------------

class HelperLp(LpController):
    """on_ack as a fold over lp_update_delay and lp_early_congestion."""

    def on_ack(self, flow, rtt, owd):
        self.d_ewma, self.d_min, self.d_max = lp_update_delay(
            self.d_ewma, self.d_min, self.d_max, owd, self.alpha)
        level = lp_early_congestion(self.d_ewma, self.d_min, self.d_max,
                                    self.delta)
        indication = level and self.armed
        self.armed = not level
        if self.phase == "inference":
            if indication:
                self._collapse(flow)
            return
        if indication:
            self._react(flow, rtt)
        elif flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
        else:
            flow.cwnd += 1.0 / flow.cwnd


class HelperLedbat(LedbatController):
    """on_ack as a fold over ledbat_offset, min and max."""

    def on_ack(self, flow, rtt, owd):
        self.d_min = min(self.d_min, owd)
        off = ledbat_offset(self.tau, owd, self.d_min)
        if self.in_slow_start and off > 0 and flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
            return
        self.in_slow_start = False
        step = min(self.gamma * off, 1.0)
        flow.cwnd = max(flow.cwnd + step / flow.cwnd, 1.0)


class HelperNice(NiceController):
    """on_ack as a fold over mark_threshold, min and max."""

    def on_ack(self, flow, rtt, owd):
        self._window.add(flow.sim.now, rtt)
        self.base_rtt = min(self.base_rtt, rtt)
        self.rtt_min = self._window.min
        self.rtt_max = self._window.max
        self.total += 1
        marked = rtt > self.mark_threshold()
        if marked:
            self.marked += 1
        if self.in_slow_start:
            if marked:
                self.in_slow_start = False
            else:
                flow.cwnd += 1.0
        if self._epoch_end_seq is None:
            self._epoch_end_seq = flow.snd_next - 1
        elif flow.snd_una > self._epoch_end_seq:
            self._close_epoch(flow, rtt)


def controller_state(ctl, flow):
    """Everything on_ack may change, as a tuple; a pending timer counts by
    its key, the NICE window by its buckets and extrema."""
    state = dict(vars(ctl))
    handle = state.pop("_inference_handle", None)
    window = state.pop("_window", None)
    return (sorted(state.items()),
            None if handle is None else (handle[0], handle[1]),
            None if window is None else
            ([tuple(b) for b in window._buckets], window.min, window.max),
            flow.cwnd, flow.ssthresh)


# Delays from a small set make ties (a delay equal to a kept extremum, a
# smoothed delay equal to its threshold) and signed zeros likely.
_delays = st.one_of(st.sampled_from([0.0, -0.0, 0.01, 0.025, 0.05, 0.1]),
                    st.floats(0.0, 0.5))


@st.composite
def ack_runs(draw):
    """A protocol, controller parameters, and a run of (time step, owd,
    return delay, seq advance, event) steps, the event an ack or, now and
    then, a loss."""
    def pick(*values):
        return draw(st.sampled_from(values))

    proto = pick("lp", "ledbat", "nice")
    if proto == "lp":
        params = dict(alpha=pick(0.125, 0.5, 1.0), delta=pick(0.0, 0.15, 1.0),
                      inference_rtts=pick(0.5, 3.0))
    elif proto == "ledbat":
        params = dict(tau=pick(0.005, 0.025, 0.1), gamma=pick(10.0, 40.0, 400.0),
                      slow_start=pick(False, True))
    else:
        params = dict(delta=pick(0.0, 0.2, 1.0), phi=pick(0.0, 0.5),
                      history_s=pick(0.5, 10.0))
    returns = st.one_of(st.sampled_from([0.01, 0.025]), st.floats(1e-3, 0.5))
    event = st.sampled_from(["ack"] * 8 + ["dupack", "timeout"])
    steps = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.01, 0.3]), _delays,
                                    returns, st.integers(0, 3), event),
                          min_size=1, max_size=60))
    return proto, params, steps


_HELPER_CLASSES = {"lp": (LpController, HelperLp),
                   "ledbat": (LedbatController, HelperLedbat),
                   "nice": (NiceController, HelperNice)}


@example(("lp", {}, [(0.0, 0.0, 0.01, 1, "ack"), (0.0, -0.0, 0.01, 1, "ack")]))
@example(("ledbat", {}, [(0.0, -0.0, 0.01, 1, "ack"), (0.0, 0.0, 0.01, 1, "ack")]))
@example(("nice", {}, [(0.0, 0.03, 0.02, 1, "ack")] * 3))
@given(ack_runs())
def test_inline_on_ack_equals_fold_over_helpers(run):
    proto, params, steps = run
    sides = [(cls(**params), StubFlow(cwnd=1.0, ssthresh=2.0 ** 30))
             for cls in _HELPER_CLASSES[proto]]
    t = 0.0
    for dt, owd, ret, advance, event in steps:
        t += dt
        for ctl, flow in sides:
            flow.sim.run_until(t)
            if event == "ack":
                # the endpoint moves snd_una before it calls on_ack
                flow.snd_una += 1
                flow.snd_next = flow.snd_una + advance
                ctl.on_ack(flow, owd + ret, owd)
            else:
                ctl.on_loss(flow, event)
        got, want = (controller_state(ctl, flow) for ctl, flow in sides)
        assert got == want
        # == cannot tell 0.0 from -0.0; the repr can
        assert repr(got) == repr(want)


# -- gain/target coordinates ---------------------------------------------

def test_buffer_delay_for_default_bottleneck():
    # 100 packets of 1500 B at 10 Mbit/s take 120 ms to drain
    assert GainTargetCoords.buffer_delay_s(10e6, 1500, 100) == pytest.approx(0.12)


def test_target_fraction_maps_to_delay():
    gamma, tau = GainTargetCoords(G=1.0, T=0.20).to_params(10e6, 1500, 100)
    assert tau == pytest.approx(0.024)
    assert gamma * tau == pytest.approx(1.0)
    _, tau_full = GainTargetCoords(G=1.0, T=1.0).to_params(10e6, 1500, 100)
    assert tau_full == pytest.approx(0.12)


def test_default_parameters_sit_at_unit_gain():
    coords = GainTargetCoords.from_params(40.0, 0.025, 10e6, 1500, 100)
    assert coords.G == pytest.approx(1.0)
    assert coords.T == pytest.approx(0.025 / 0.12)


def test_coordinate_round_trip():
    coords = GainTargetCoords(G=5.0, T=0.4)
    gamma, tau = coords.to_params(10e6, 1500, 100)
    back = GainTargetCoords.from_params(gamma, tau, 10e6, 1500, 100)
    assert back.G == pytest.approx(5.0)
    assert back.T == pytest.approx(0.4)


def test_non_positive_coordinates_rejected():
    with pytest.raises(ValueError):
        GainTargetCoords(G=0.0, T=0.2).to_params(10e6, 1500, 100)
    with pytest.raises(ValueError):
        GainTargetCoords(G=1.0, T=-0.1).to_params(10e6, 1500, 100)


def test_fixed_point_backlog_for_default_target():
    # a 25 ms standing queue at 10 Mbit/s is tau*C/(8*S) = 20.83 packets,
    # i.e. about 21% of the 100-packet buffer
    backlog = 0.025 * 10e6 / (8.0 * 1500)
    assert backlog == pytest.approx(20.833, abs=1e-3)
    assert backlog / 100.0 == pytest.approx(0.208, abs=1e-3)


def test_bandwidth_delay_product_anchor():
    # 10 Mbit/s * 50 ms RTT / 1500 B packets = 41.67 packets in flight
    assert 10e6 * 0.05 / (8.0 * 1500) == pytest.approx(41.667, abs=1e-3)


# -- factory -------------------------------------------------------------

def test_make_controller_defaults():
    assert isinstance(make_controller("reno"), RenoController)
    lp = make_controller("lp")
    assert (lp.alpha, lp.delta, lp.inference_rtts) == (0.125, 0.15, 3.0)
    nice = make_controller("nice")
    assert (nice.delta, nice.phi) == (0.2, 0.5)
    assert nice.floor == pytest.approx(1.0 / 48.0)
    led = make_controller("ledbat")
    assert led.tau == pytest.approx(0.025)
    assert led.gamma * led.tau == pytest.approx(1.0)


def test_make_controller_ledbat_gain_target_forms():
    led = make_controller("ledbat", {"tau_ms": 50.0, "G": 2.0})
    assert led.tau == pytest.approx(0.05)
    assert led.gamma == pytest.approx(2.0 / 0.05)
    led = make_controller("ledbat", {"T_pct": 20.0, "G": 1.0},
                          buffer_delay_s=0.12)
    assert led.tau == pytest.approx(0.024)


def test_make_controller_rejections():
    with pytest.raises(ValueError):
        make_controller("reno", {"alpha": 1})
    with pytest.raises(ValueError):
        make_controller("lp", {"bogus": 1})
    with pytest.raises(ValueError):
        make_controller("nice", {"gamma": 1})
    with pytest.raises(ValueError):
        make_controller("ledbat", {"tau_ms": 25, "T_pct": 20})
    with pytest.raises(ValueError):
        make_controller("ledbat", {"gamma": 40, "G": 1})
    with pytest.raises(ValueError):
        make_controller("ledbat", {"T_pct": 20})  # needs bottleneck params
    with pytest.raises(ValueError):
        make_controller("ledbat", {"tau_ms": 0})
    with pytest.raises(ValueError):
        make_controller("vegas")
