"""Congestion controllers: the Reno baseline plus the three lower-than
best-effort schemes (TCP-LP, TCP-NICE, LEDBAT).

All controllers implement the same contract: the endpoint calls
on_ack(flow, rtt, owd) for every new cumulative ack, with the RTT and
one-way-delay samples of the acked data packet, and on_loss(flow, kind)
on a "dupack" or "timeout" loss. Controllers mutate flow.cwnd (and
flow.ssthresh where relevant) and schedule no event; the endpoint owns
retransmission, timers and window clocking. inflate_on_dupack asks it for
Reno's fast-recovery window inflation; the delay-based schemes keep the
plain halving.

on_ack runs on every ack, so the LP, LEDBAT and NICE filters are written
out inline there, with comparisons in place of min() and max(). The tests
hold each filter's closed form (tests/oracles.py) and check that on_ack
leaves the state it gives, to the last bit.
harness checks each controller's parameters (its PARAMS table) and builds
the controllers (harness.make_controller); there a LEDBAT target given as
T_pct is resolved against the time the full buffer takes to drain.
"""

from collections import deque

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


class RenoController:
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


class LpController:
    """TCP-LP: Reno dynamics gated by a smoothed one-way-delay threshold.

    An early congestion indication is the *crossing* of the threshold, not
    the level: once the controller has reacted it stays quiet until the
    smoothed delay falls back below the threshold and re-arms the detector
    (a level trigger would re-fire on every ack of a sustained episode and
    pin the window at its minimum). Packet losses count as indications too
    and re-arm the detector, so each loss episode is reacted to afresh.

    On an indication the window is halved and frozen for an inference
    period; a further indication during that period collapses cwnd to the
    minimum window, after which the flow rebuilds additively. The period
    is a deadline, not an event: the window stays frozen while the clock
    is before inference_end_ns (-1 outside it).
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
        self.armed = True
        self.inference_end_ns = -1

    def on_ack(self, flow, rtt, owd):
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
        if flow.sim.now_ns < self.inference_end_ns:
            if indication:
                self._collapse(flow)
            return  # window frozen while inferring
        if indication:
            self._react(flow)
        elif flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
        else:
            flow.cwnd += 1.0 / flow.cwnd

    def _react(self, flow):
        """Halve the window and freeze it for inference_rtts smoothed RTTs."""
        flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
        flow.cwnd = max(flow.ssthresh, 1.0)
        duration = self.inference_rtts * flow.srtt
        self.inference_end_ns = flow.sim.now_ns + engine.to_ns(duration)

    def _collapse(self, flow):
        """Persistent congestion: drop to the minimum window and rebuild
        additively rather than bursting straight back into the episode."""
        flow.ssthresh = 2.0
        flow.cwnd = 1.0
        self.inference_end_ns = -1

    def on_loss(self, flow, kind):
        self.armed = True  # a loss opens a fresh congestion episode
        if kind == "dupack":
            if flow.sim.now_ns < self.inference_end_ns:
                self._collapse(flow)
            else:
                self._react(flow)
        else:
            self.inference_end_ns = -1  # timeout mechanics live in the endpoint


class NiceController:
    """TCP-NICE: Vegas window dynamics plus per-RTT halving when the
    majority of packets in an RTT see a delay beyond the min/max-range
    threshold. cwnd floors at one packet, as every controller's does (TCP
    Nice lets it fall to 1/48: one packet every 48 RTTs).

    The marking threshold is computed over a sliding delay history so it
    tracks current conditions rather than latching onto the cold-start
    minimum. The halving additionally requires the flow's own standing
    queue (the Vegas diff) to exceed beta_v: a flow already below its
    Vegas band is not the cause of the marked delays and backs off via
    the Vegas rules instead of collapsing to one packet.

    Two rules keep the scheme RTT-fair. Slow start exits on the first
    *marked* ack rather than at the end of the epoch: over a long RTT a
    full epoch of unchecked doubling overshoots the buffer by hundreds of
    packets before any feedback arrives. And the below-band additive
    increase is clocked in real time (increase_rate packets per second,
    applied per epoch) rather than per RTT, so a long-RTT flow ramps
    toward its Vegas band as fast as a short-RTT one instead of needing
    the whole run to converge."""

    protocol = "nice"
    inflate_on_dupack = False
    alpha_v = 1.0  # the Vegas band, in packets of the flow's own backlog
    beta_v = 3.0

    def __init__(self, delta=0.2, phi=0.5, history_s=10.0, increase_rate=20.0):
        self.delta = delta
        self.phi = phi
        self.increase_rate = increase_rate
        self._window = SlidingExtrema(history_s)
        self.base_rtt = INF  # all-time minimum: the propagation reference
        self.rtt_min = INF
        self.rtt_max = -INF
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = None
        self.in_slow_start = True

    def on_ack(self, flow, rtt, owd):
        window = self._window
        window.add(flow.sim.now, rtt)
        if rtt < self.base_rtt:
            self.base_rtt = rtt
        rtt_min = self.rtt_min = window.min
        rtt_max = self.rtt_max = window.max
        self.total += 1
        marked = rtt > rtt_min + (rtt_max - rtt_min) * self.delta
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
            flow.cwnd = max(flow.cwnd / 2.0, 1.0)
            self.in_slow_start = False
        elif self.in_slow_start:
            if diff > self.alpha_v:
                self.in_slow_start = False
        elif diff < self.alpha_v:
            flow.cwnd += self.increase_rate * rtt
        elif diff > self.beta_v:
            flow.cwnd = max(flow.cwnd - 1.0, 1.0)
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = flow.snd_next - 1

    def on_loss(self, flow, kind):
        if kind == "dupack":
            flow.cwnd = max(flow.cwnd / 2.0, 1.0)
        self.marked = 0
        self.total = 0
        self._epoch_end_seq = None
        self.in_slow_start = False


class LedbatController:
    """LEDBAT: linear controller steering the queuing delay (one-way delay
    above the running base delay) toward a fixed target."""

    protocol = "ledbat"
    inflate_on_dupack = False

    def __init__(self, tau=0.025, gamma=None, slow_start=False):
        self.tau = tau
        self.gamma = gamma if gamma is not None else 1.0 / tau
        self.d_min = INF
        self.in_slow_start = slow_start

    def on_ack(self, flow, rtt, owd):
        d_min = self.d_min
        if owd < d_min:
            d_min = self.d_min = owd
        off = self.tau - (owd - d_min)  # distance from the target delay
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

