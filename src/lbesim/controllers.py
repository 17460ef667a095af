"""Congestion controllers: the Reno baseline plus the three lower-than
best-effort schemes (TCP-LP, TCP-NICE, LEDBAT).

All controllers implement the same contract: the endpoint calls on_ack()
for every new cumulative ack (carrying the one-way-delay and RTT samples of
the acked data packet) and on_loss() when a loss is detected. Controllers
mutate flow.cwnd (and flow.ssthresh where relevant); the endpoint owns
retransmission, timers and window clocking.
"""

import math
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
        self._buckets = deque()  # (bucket_index, min, max)

    def add(self, t, v):
        k = int(t / self.bucket_s)
        if self._buckets and self._buckets[-1][0] == k:
            _, mn, mx = self._buckets[-1]
            self._buckets[-1] = (k, min(mn, v), max(mx, v))
        else:
            self._buckets.append((k, v, v))
            while self._buckets[0][0] <= k - self.n_buckets:
                self._buckets.popleft()

    @property
    def min(self):
        return min(b[1] for b in self._buckets)

    @property
    def max(self):
        return max(b[2] for b in self._buckets)


class AckSample:
    __slots__ = ("rtt", "owd")

    def __init__(self, rtt, owd):
        self.rtt = rtt
        self.owd = owd


class Controller:
    protocol = "base"
    # Reno-style fast-recovery window inflation; delay-based schemes keep
    # the plain halving instead.
    inflate_on_dupack = False
    floor = 1.0

    def on_ack(self, flow, sample):
        raise NotImplementedError

    def on_loss(self, flow, kind):
        raise NotImplementedError


class RenoController(Controller):
    """Standard TCP Reno: slow start, additive increase, halving on loss."""

    protocol = "reno"
    inflate_on_dupack = True

    def on_ack(self, flow, sample):
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
    First sample initializes the average."""
    if d_ewma is None:
        d_ewma = d
    else:
        d_ewma = (1.0 - alpha) * d_ewma + alpha * d
    return d_ewma, min(d_min, d), max(d_max, d)


def lp_early_congestion(d_ewma, d_min, d_max, delta):
    """Delay-threshold early congestion test (strict inequality)."""
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

    def on_ack(self, flow, sample):
        self.d_ewma, self.d_min, self.d_max = lp_update_delay(
            self.d_ewma, self.d_min, self.d_max, sample.owd, self.alpha)
        level = lp_early_congestion(self.d_ewma, self.d_min, self.d_max, self.delta)
        indication = level and self.armed
        self.armed = not level
        if self.phase == "inference":
            if indication:
                self._collapse(flow)
            return  # window frozen while inferring
        if indication:
            self._react(flow, sample.rtt)
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
        return self.rtt_min + (self.rtt_max - self.rtt_min) * self.delta

    def on_ack(self, flow, sample):
        rtt = sample.rtt
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
    """Distance from the target queuing delay: tau - (d - d_min)."""
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

    def on_ack(self, flow, sample):
        d = sample.owd
        self.d_min = min(self.d_min, d)
        off = ledbat_offset(self.tau, d, self.d_min)
        if self.in_slow_start and off > 0 and flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
            return
        self.in_slow_start = False
        # TCP-friendliness cap: never ramp up faster than one packet per
        # RTT, whatever the gain; decreases are not capped. This keeps the
        # start-up split between concurrent flows independent of gain.
        step = min(self.gamma * off, 1.0)
        flow.cwnd = max(flow.cwnd + step / flow.cwnd, 1.0)

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
    if not (math.isfinite(value) and above_low and value <= high):
        raise ParamError(name, "must be in %s%g, %g%s, got %r"
                         % ("(" if low_open else "[", low, high,
                            "]" if high < INF else ")", value))
    return value


def make_controller(protocol, params=None):
    """Build a controller from a protocol tag and a parameter mapping.
    Parameters of the wrong type or out of range raise ParamError."""
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
        return _make_ledbat(params)
    raise ValueError("unknown protocol %r" % protocol)


def _reject_left(params, proto):
    if params:
        raise ValueError("unknown %s parameters: %s" % (proto, sorted(params)))
    return {}


def _make_ledbat(params):
    tau_ms = _param(params, "tau_ms", None, 0.0)
    t_pct = _param(params, "T_pct", None, 0.0)
    gamma = _param(params, "gamma", None, 0.0)
    g = _param(params, "G", None, 0.0)
    slow_start = params.pop("slow_start", False)
    if not isinstance(slow_start, bool):
        raise ParamError("slow_start", "must be true or false, got %r" % (slow_start,))
    scen = params.pop("_scenario", None)  # (capacity_bps, pkt_size, buffer)
    _reject_left(params, "ledbat")
    if tau_ms is not None and t_pct is not None:
        raise ValueError("give ledbat.tau_ms or ledbat.T_pct, not both")
    if gamma is not None and g is not None:
        raise ValueError("give ledbat.gamma or ledbat.G, not both")
    if t_pct is not None:
        if scen is None:
            raise ValueError("T_pct needs bottleneck parameters")
        tau = GainTargetCoords(G=1.0, T=t_pct / 100.0).to_params(*scen)[1]
    else:
        tau = (tau_ms if tau_ms is not None else 25.0) / 1000.0
    if not tau > 0:  # a positive tau_ms can underflow
        raise ValueError("ledbat target must be positive")
    if gamma is None:
        gamma = (g if g is not None else 1.0) / tau
    if not gamma < INF:
        raise ValueError("ledbat gain must be finite")
    return LedbatController(tau=tau, gamma=gamma, slow_start=slow_start)
