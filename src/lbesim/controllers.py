"""Congestion controllers: the Reno baseline plus the three lower-than
best-effort schemes (TCP-LP, TCP-NICE, LEDBAT).

All controllers implement the same contract: the endpoint calls
on_ack(flow, rtt, owd) for every new cumulative ack, with the RTT and
one-way-delay samples of the acked data packet, and on_loss() when a loss
is detected. Controllers mutate flow.cwnd (and flow.ssthresh where
relevant); the endpoint owns retransmission, timers and window clocking.

on_ack runs on every ack, so the LP, LEDBAT and NICE filters are written
out inline there, with the same float operations and with comparisons in
place of min() and max(). The functions lp_update_delay,
lp_early_congestion, ledbat_offset and NiceController.mark_threshold stay as
the references those methods are tested against.
A LEDBAT target given as T_pct is resolved against the buffer delay that
ScenarioConfig.build_controller passes to make_controller.
"""

import sys
from collections import deque
from dataclasses import dataclass

from . import engine

INF = float("inf")


class SlidingExtrema:
    """Running min/max of a signal over a sliding time window, tracked in
    coarse buckets. An all-time minimum latches onto the cold-start value
    and never recovers once a loss-based competitor keeps a standing queue;
    a bounded history keeps the extrema tracking current conditions."""

    def __init__(self, window_s=10.0, bucket_s=1.0):
        if window_s <= 0 or bucket_s <= 0:
            raise ValueError("window and bucket must be positive")
        self.bucket_s = bucket_s
        self.n_buckets = max(int(window_s / bucket_s), 1)
        self._buckets = deque()  # [bucket_index, min, max]
        # extrema over the retained buckets; INF and -INF while empty
        self.min = INF
        self.max = -INF

    def add(self, t, v):
        k = int(t / self.bucket_s)
        buckets = self._buckets
        if buckets and buckets[-1][0] == k:
            last = buckets[-1]
            if v < last[1]:
                last[1] = v
                if v < self.min:
                    self.min = v
            elif v > last[2]:
                last[2] = v
                if v > self.max:
                    self.max = v
        else:  # a bucket opens and old ones may leave: rescan
            buckets.append([k, v, v])
            while buckets[0][0] <= k - self.n_buckets:
                buckets.popleft()
            self.min = min(b[1] for b in buckets)
            self.max = max(b[2] for b in buckets)


class Controller:
    protocol = "base"
    # Reno-style fast-recovery window inflation; delay-based schemes keep
    # the plain halving instead.
    inflate_on_dupack = False
    floor = 1.0

    def on_ack(self, flow, rtt, owd):
        raise NotImplementedError

    def on_loss(self, flow, kind):
        raise NotImplementedError


class RenoController(Controller):
    """Standard TCP Reno: slow start, additive increase, halving on loss."""

    protocol = "reno"
    inflate_on_dupack = True

    def on_ack(self, flow, rtt, owd):
        if flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
        else:
            flow.cwnd += 1.0 / flow.cwnd

    def on_loss(self, flow, kind):
        if kind == "dupack":
            flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
            flow.cwnd = flow.ssthresh
        # timeout mechanics (cwnd=1, ssthresh, backoff) live in the endpoint


def lp_update_delay(d_ewma, d_min, d_max, d, alpha):
    """One EWMA step over the one-way delay plus running extrema.
    First sample initializes the average. LpController.on_ack does the same
    inline; this is the reference it is tested against."""
    if d_ewma is None:
        d_ewma = d
    else:
        d_ewma = (1.0 - alpha) * d_ewma + alpha * d
    return d_ewma, min(d_min, d), max(d_max, d)


def lp_early_congestion(d_ewma, d_min, d_max, delta):
    """Delay-threshold early congestion test (strict inequality); the
    reference for the inline test in LpController.on_ack."""
    return d_ewma > d_min + (d_max - d_min) * delta


class LpController(Controller):
    """TCP-LP: Reno dynamics gated by a smoothed one-way-delay threshold.

    An early congestion indication is the *crossing* of the threshold, not
    the level: once the controller has reacted it stays quiet until the
    smoothed delay falls back below the threshold and re-arms the detector
    (a level trigger would re-fire on every ack of a sustained episode and
    pin the window at its minimum). Packet losses count as indications too
    and re-arm the detector, so each loss episode is reacted to afresh.

    On an indication the window is halved and frozen for an inference
    period; a further indication during that period collapses cwnd to the
    minimum window, after which the flow rebuilds additively.
    """

    protocol = "lp"
    inflate_on_dupack = False

    def __init__(self, alpha=0.125, delta=0.15, inference_rtts=3.0):
        self.alpha = alpha
        self.delta = delta
        self.inference_rtts = inference_rtts
        self.d_ewma = None
        self.d_min = INF
        self.d_max = -INF
        self.phase = "normal"
        self.armed = True
        self._inference_handle = None

    def on_ack(self, flow, rtt, owd):
        # lp_update_delay and lp_early_congestion, inline: the same float
        # operations, with min/max as the comparisons they make
        d_ewma = self.d_ewma
        if d_ewma is None:
            d_ewma = owd
        else:
            d_ewma = (1.0 - self.alpha) * d_ewma + self.alpha * owd
        self.d_ewma = d_ewma
        d_min = self.d_min
        if owd < d_min:
            d_min = self.d_min = owd
        d_max = self.d_max
        if owd > d_max:
            d_max = self.d_max = owd
        level = d_ewma > d_min + (d_max - d_min) * self.delta
        indication = level and self.armed
        self.armed = not level
        if self.phase == "inference":
            if indication:
                self._collapse(flow)
            return  # window frozen while inferring
        if indication:
            self._react(flow, rtt)
        elif flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
        else:
            flow.cwnd += 1.0 / flow.cwnd

    def _react(self, flow, rtt):
        """Halve the window and freeze it while watching for persistence."""
        flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
        flow.cwnd = max(flow.ssthresh, 1.0)
        self.phase = "inference"
        duration = self.inference_rtts * (flow.srtt if flow.srtt else rtt)
        self._inference_handle = flow.sim.schedule_after(
            duration, engine.INFERENCE_PHASE_END, self._inference_end,
            label="flow%s" % flow.flow_id)

    def _collapse(self, flow):
        """Persistent congestion: drop to the minimum window and rebuild
        additively rather than bursting straight back into the episode."""
        flow.ssthresh = 2.0
        flow.cwnd = 1.0
        self._exit_inference(flow)

    def _inference_end(self):
        self._inference_handle = None
        self.phase = "normal"

    def _exit_inference(self, flow):
        if self._inference_handle is not None:
            flow.sim.cancel(self._inference_handle)
            self._inference_handle = None
        self.phase = "normal"

    def on_loss(self, flow, kind):
        self.armed = True  # a loss opens a fresh congestion episode
        if kind == "dupack":
            if self.phase == "inference":
                self._collapse(flow)
            else:
                self._react(flow, flow.srtt if flow.srtt else 0.05)
        else:
            self._exit_inference(flow)  # timeout mechanics live in the endpoint


class NiceController(Controller):
    """TCP-NICE: Vegas window dynamics plus per-RTT halving when the
    majority of packets in an RTT see a delay beyond the min/max-range
    threshold. cwnd may drop below one packet down to a configurable floor
    (one packet every 1/floor RTTs).

    The marking threshold is computed over a sliding delay history so it
    tracks current conditions rather than latching onto the cold-start
    minimum. The halving additionally requires the flow's own standing
    queue (the Vegas diff) to exceed beta_v: a flow already below its
    Vegas band is not the cause of the marked delays and backs off via
    the Vegas rules instead of collapsing to the floor.

    Two rules keep the scheme RTT-fair. Slow start exits on the first
    *marked* ack rather than at the end of the epoch: over a long RTT a
    full epoch of unchecked doubling overshoots the buffer by hundreds of
    packets before any feedback arrives. And the below-band additive
    increase is clocked in real time (increase_rate packets per second,
    applied per epoch) rather than per RTT, so a long-RTT flow ramps
    toward its Vegas band as fast as a short-RTT one instead of needing
    the whole run to converge."""

    protocol = "nice"

    def __init__(self, delta=0.2, phi=0.5, floor=1.0 / 48.0,
                 alpha_v=1.0, beta_v=3.0, history_s=10.0,
                 increase_rate=20.0):
        self.delta = delta
        self.phi = phi
        self.floor = floor
        self.alpha_v = alpha_v
        self.beta_v = beta_v
        self.increase_rate = increase_rate
        self._window = SlidingExtrema(history_s)
        self.base_rtt = INF  # all-time minimum: the propagation reference
        self.rtt_min = INF
        self.rtt_max = -INF
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = None
        self.in_slow_start = True

    def mark_threshold(self):
        """Delay above which an ack is marked; on_ack computes it inline."""
        return self.rtt_min + (self.rtt_max - self.rtt_min) * self.delta

    def on_ack(self, flow, rtt, owd):
        window = self._window
        window.add(flow.sim.now, rtt)
        if rtt < self.base_rtt:
            self.base_rtt = rtt
        rtt_min = self.rtt_min = window.min
        rtt_max = self.rtt_max = window.max
        self.total += 1
        marked = rtt > rtt_min + (rtt_max - rtt_min) * self.delta  # mark_threshold
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

    def _close_epoch(self, flow, rtt):
        # Vegas: expected minus actual rate, in packets of own backlog
        diff = flow.cwnd * (1.0 - self.base_rtt / rtt)
        if (self.total and self.marked / self.total > self.phi
                and diff >= self.beta_v):
            flow.cwnd = max(flow.cwnd / 2.0, self.floor)
            self.in_slow_start = False
        elif self.in_slow_start:
            if diff > self.alpha_v:
                self.in_slow_start = False
        elif diff < self.alpha_v:
            flow.cwnd += self.increase_rate * rtt
        elif diff > self.beta_v:
            flow.cwnd = max(flow.cwnd - 1.0, self.floor)
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = flow.snd_next - 1

    def on_loss(self, flow, kind):
        if kind == "dupack":
            flow.cwnd = max(flow.cwnd / 2.0, self.floor)
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = None
        self.in_slow_start = False


def ledbat_offset(tau, d, d_min):
    """Distance from the target queuing delay: tau - (d - d_min); the
    reference for the inline offset in LedbatController.on_ack."""
    return tau - (d - d_min)


class LedbatController(Controller):
    """LEDBAT: linear controller steering the queuing delay (one-way delay
    above the running base delay) toward a fixed target."""

    protocol = "ledbat"

    def __init__(self, tau=0.025, gamma=None, slow_start=False):
        self.tau = tau
        self.gamma = gamma if gamma is not None else 1.0 / tau
        self.d_min = INF
        self.in_slow_start = slow_start

    def on_ack(self, flow, rtt, owd):
        d_min = self.d_min
        if owd < d_min:
            d_min = self.d_min = owd
        off = self.tau - (owd - d_min)  # ledbat_offset
        if self.in_slow_start and off > 0 and flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
            return
        self.in_slow_start = False
        # Growth cap: never ramp up faster than one packet per RTT;
        # decreases are not capped. As off <= tau, gamma*off <= G, so the
        # cap binds only at G > 1. There it keeps flows of unequal gains
        # fair: without it fig3_gain_ratio's f_lt falls to 0.862 at gain
        # ratio 2 and 0.943 at 5, below ACCEPTANCE 05's 0.95.
        step = self.gamma * off
        if step > 1.0:
            step = 1.0
        cwnd = flow.cwnd
        cwnd += step / cwnd
        flow.cwnd = 1.0 if cwnd < 1.0 else cwnd

    def on_loss(self, flow, kind):
        if kind == "dupack":
            flow.cwnd = max(flow.cwnd / 2.0, 1.0)
        # base delay d_min is retained across losses
        self.in_slow_start = False


@dataclass
class GainTargetCoords:
    """Dimensionless LEDBAT parameter coordinates: G = gamma*tau and
    T = target expressed as a fraction of the buffer's worth of delay."""

    G: float
    T: float

    @staticmethod
    def buffer_delay_s(capacity_bps, pkt_size_bytes, buffer_pkts):
        return buffer_pkts * pkt_size_bytes * 8.0 / capacity_bps

    def to_params(self, capacity_bps, pkt_size_bytes, buffer_pkts):
        """Return (gamma, tau) for a concrete bottleneck."""
        if self.G <= 0 or self.T <= 0:
            raise ValueError("G and T must be positive")
        tau = self.T * self.buffer_delay_s(capacity_bps, pkt_size_bytes, buffer_pkts)
        return self.G / tau, tau

    @classmethod
    def from_params(cls, gamma, tau, capacity_bps, pkt_size_bytes, buffer_pkts):
        full = cls.buffer_delay_s(capacity_bps, pkt_size_bytes, buffer_pkts)
        return cls(G=gamma * tau, T=tau / full)


class ParamError(ValueError):
    """A controller parameter of the wrong type or out of range; `param`
    names it."""

    def __init__(self, param, problem):
        super().__init__("%s %s" % (param, problem))
        self.param = param


def _param(params, name, default, low, high=INF, low_open=True):
    """Pop a numeric parameter and check that it is finite and in its range,
    open at `low` unless low_open is False and closed at a finite `high`.
    An absent parameter without a default gives None."""
    value = params.pop(name, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParamError(name, "must be a number, got %r" % (value,))
    above_low = low < value if low_open else low <= value
    # a float holds it finitely: not NaN, infinite or an int too large
    if not (abs(value) <= sys.float_info.max and above_low and value <= high):
        raise ParamError(name, "must be in %s%g, %g%s, got %r"
                         % ("(" if low_open else "[", low, high,
                            "]" if high < INF else ")", value))
    return value


def make_controller(protocol, params=None, buffer_delay_s=None):
    """Build a controller from a protocol tag and a parameter mapping; a
    LEDBAT T_pct is a percentage of buffer_delay_s, the time the full
    buffer takes to drain. Bad parameters raise ParamError."""
    params = dict(params or {})
    if protocol == "reno":
        if params:
            raise ValueError("reno takes no parameters: %r" % params)
        return RenoController()
    if protocol == "lp":
        return LpController(
            alpha=_param(params, "alpha", 0.125, 0.0, 1.0),
            delta=_param(params, "delta", 0.15, 0.0, 1.0, low_open=False),
            inference_rtts=_param(params, "inference_rtts", 3.0, 0.0),
            **_reject_left(params, "lp"))
    if protocol == "nice":
        return NiceController(
            delta=_param(params, "delta", 0.2, 0.0, 1.0, low_open=False),
            phi=_param(params, "phi", 0.5, 0.0, 1.0, low_open=False),
            floor=_param(params, "floor", 1.0 / 48.0, 0.0, 1.0),
            history_s=_param(params, "history_s", 10.0, 0.0),
            increase_rate=_param(params, "increase_rate", 20.0, 0.0, low_open=False),
            **_reject_left(params, "nice"))
    if protocol == "ledbat":
        return _make_ledbat(params, buffer_delay_s)
    raise ValueError("unknown protocol %r" % protocol)


def _reject_left(params, proto):
    if params:
        raise ValueError("unknown %s parameters: %s" % (proto, sorted(params)))
    return {}


def _make_ledbat(params, buffer_delay_s):
    tau_ms = _param(params, "tau_ms", None, 0.0)
    t_pct = _param(params, "T_pct", None, 0.0)
    gamma = _param(params, "gamma", None, 0.0)
    g = _param(params, "G", None, 0.0)
    slow_start = params.pop("slow_start", False)
    if not isinstance(slow_start, bool):
        raise ParamError("slow_start", "must be true or false, got %r" % (slow_start,))
    _reject_left(params, "ledbat")
    if tau_ms is not None and t_pct is not None:
        raise ValueError("give ledbat.tau_ms or ledbat.T_pct, not both")
    if gamma is not None and g is not None:
        raise ValueError("give ledbat.gamma or ledbat.G, not both")
    if t_pct is not None:
        if buffer_delay_s is None:
            raise ValueError("T_pct needs bottleneck parameters")
        tau = t_pct / 100.0 * buffer_delay_s  # as GainTargetCoords.to_params
    else:
        tau = (tau_ms if tau_ms is not None else 25.0) / 1000.0
    if not tau > 0:  # a positive tau_ms can underflow
        raise ValueError("ledbat target must be positive")
    if gamma is None:
        gamma = (g if g is not None else 1.0) / tau
    if not gamma < INF:
        raise ValueError("ledbat gain must be finite")
    return LedbatController(tau=tau, gamma=gamma, slow_start=slow_start)
