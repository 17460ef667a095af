"""Sender/receiver endpoint: windowed transmission of a backlogged source,
cumulative acks carrying delay measurements, dupack/timeout loss detection,
and the controller plug-in point.

One FlowEndpoint object holds both ends of a flow: data packets go through
the bottleneck link, acks come back over the delay-only return path. There
are no delayed acks (the delay estimators are fed packet-by-packet) and the
receiver window is infinite.
"""

import math
from collections import defaultdict, deque

from . import engine
from .metrics import WINDOW_S
from .network import return_path_send

MIN_RTO = 0.2
INITIAL_RTO = 1.0
MAX_RTO_BACKOFF = 64
INITIAL_SSTHRESH = float(2 ** 30)


class ProtocolFault(RuntimeError):
    """An ack acknowledged data that was never sent; the run is aborted."""


class FlowEndpoint:
    """Both ends of one flow. `horizon_ns` is the end of the run, if the
    caller sets it: the receiver ignores packets that would arrive after
    it, as a run stopped there never sees them."""

    def __init__(self, sim, link, flow_id, controller, pkt_size_bytes=1500,
                 return_delay_s=0.025, start_at=0.0):
        self.sim = sim
        self.link = link
        self.flow_id = flow_id
        self.controller = controller
        self.pkt_size = pkt_size_bytes
        self.return_delay_s = return_delay_s
        self.start_at = start_at
        self._return_ns = engine.to_ns(return_delay_s)
        self.label = "flow%s" % flow_id
        self._ack_label = "ack-flow%s" % flow_id
        # event handlers, bound once rather than at every schedule
        self._ack_handler = self._ack_arrive
        self._rto_handler = self._on_rto

        self.cwnd = 1.0
        self.ssthresh = INITIAL_SSTHRESH
        self.snd_next = 0  # next new sequence number to send
        self.snd_una = 0   # lowest unacknowledged sequence number
        self.rtx_next = 0  # go-back-N resend pointer after a timeout
        self.dupacks = 0
        self.in_recovery = False
        self.fractional_credit = 0.0
        self._credit_timer = None

        self.srtt = None
        self.rttvar = None
        self.rto = INITIAL_RTO
        self.rto_backoff = 1
        self._rto_timer = None  # one per flow, moved by every new ack

        # receiver side
        self.horizon_ns = math.inf
        self.rx_next = 0
        self.rx_ooo = set()
        self._acks = deque()  # (ack_no, owd, echo_sent_at) on the return path

        # accounting
        self.packets_sent = 0      # into the link, retransmissions included
        self.packets_dropped = 0   # tail-dropped at the bottleneck buffer
        self.delivered_pkts = 0    # arrivals at the receiver, dupes included
        self.window_bytes = defaultdict(int)  # WINDOW_S window -> new in-order bytes
        self.in_network = 0        # accepted but not yet delivered

    @property
    def in_flight(self):
        return self.snd_next - self.snd_una

    def window(self):
        return math.floor(self.cwnd + self.fractional_credit)

    def start(self):
        self.sim.schedule_at(self.start_at, engine.FLOW_START,
                             self.try_send, label="start-" + self.label)

    # -- sending ---------------------------------------------------------

    def try_send(self):
        """Emit data while the window allows; the source is backlogged and
        never runs out of data. After a timeout the un-acked region is
        resent go-back-N style before any new data goes out."""
        sent = 0
        window = math.floor(self.cwnd + self.fractional_credit)
        while True:
            if self.rtx_next < self.snd_next:
                if self.rtx_next - self.snd_una >= window:
                    break
                self._emit(self.rtx_next)
                self.rtx_next += 1
            else:
                if self.snd_next - self.snd_una >= window:  # in flight
                    break
                self._emit(self.snd_next)
                self.snd_next += 1
                self.rtx_next = self.snd_next
            sent += 1
            if self.cwnd < 1.0:
                # a sub-packet window spends one unit of accumulated credit
                self.fractional_credit = max(self.fractional_credit - 1.0, 0.0)
                window = math.floor(self.cwnd + self.fractional_credit)
        if sent and self._credit_timer is not None:
            self.sim.cancel(self._credit_timer)
            self._credit_timer = None
        return sent

    def _emit(self, seq):
        self.packets_sent += 1
        if self.link.enqueue((self.flow_id, seq, self.sim.now)):
            self.in_network += 1
        else:
            self.packets_dropped += 1  # silent: sender learns via dupacks/RTO
        if self._rto_timer is None:
            self._arm_rto()

    def _maybe_schedule_credit_tick(self):
        """With cwnd < 1 and nothing in flight there are no acks to clock the
        sender, so credit accrues on a timer: +cwnd per (s)RTT until one full
        packet of allowance is available."""
        if (self.cwnd < 1.0 and self.in_flight == 0
                and self.window() < 1
                and self._credit_timer is None):
            interval = self.srtt if self.srtt else self.rto
            self._credit_timer = self.sim.schedule_after(
                interval, engine.CREDIT_TICK, self._credit_tick,
                label="credit-" + self.label)

    def _credit_tick(self):
        self._credit_timer = None
        if self.in_flight == 0 and self.cwnd < 1.0:
            self.fractional_credit += self.cwnd
            self.try_send()
        self._maybe_schedule_credit_tick()

    # -- receiver side ---------------------------------------------------

    def on_data_arrival(self, p, at_ns):
        """Receiver: accept a data packet (flow_id, seq, sent_at) that
        arrives at at_ns and ack it at once, echoing the sender timestamp
        and the measured one-way delay. The link calls this when the packet
        finishes serializing, before at_ns; the ack still leaves at at_ns
        (see return_path_send)."""
        if at_ns > self.horizon_ns:
            return
        _, seq, sent_at = p
        self.delivered_pkts += 1
        self.in_network -= 1
        advanced = 0
        if seq == self.rx_next:
            self.rx_next += 1
            advanced = 1
            while self.rx_next in self.rx_ooo:
                self.rx_ooo.discard(self.rx_next)
                self.rx_next += 1
                advanced += 1
        elif seq > self.rx_next:
            self.rx_ooo.add(seq)
        now = at_ns / engine.NS_PER_S
        if advanced:
            self.window_bytes[int(now / WINDOW_S)] += advanced * self.pkt_size
        self._acks.append((self.rx_next, now - sent_at, sent_at))
        return_path_send(self.sim, at_ns, self._return_ns, self._ack_handler,
                         self._ack_label)

    def _ack_arrive(self):
        # acks of one flow share one return delay, so they land in the
        # order they were sent
        self.on_ack_arrival(*self._acks.popleft())

    # -- ack processing --------------------------------------------------

    def on_ack_arrival(self, ack_no, owd, echo_sent_at):
        if ack_no > self.snd_next:
            raise ProtocolFault(
                "flow %s acked seq %d beyond highest sent %d"
                % (self.flow_id, ack_no, self.snd_next))
        rtt = self.sim.now - echo_sent_at
        srtt = self.srtt
        if srtt is None:  # RFC 6298 estimator
            self.srtt, self.rttvar = rtt, rtt / 2.0
        else:
            err = srtt - rtt if srtt > rtt else rtt - srtt  # abs(srtt - rtt)
            self.rttvar = 0.75 * self.rttvar + 0.25 * err
            self.srtt = 0.875 * srtt + 0.125 * rtt
        rto = self.srtt + 4.0 * self.rttvar
        self.rto = rto if rto > MIN_RTO else MIN_RTO
        if ack_no > self.snd_una:
            self.snd_una = ack_no
            if ack_no > self.rtx_next:
                self.rtx_next = ack_no
            self.dupacks = 0
            self.rto_backoff = 1
            if self.in_recovery:
                self.cwnd = self.ssthresh  # deflate on leaving fast recovery
                self.in_recovery = False
            if self.snd_next > ack_no:  # data still in flight
                self._arm_rto()
            elif self._rto_timer is not None:
                self.sim.cancel(self._rto_timer)
                self._rto_timer = None
            self.controller.on_ack(self, rtt, owd)
            if self.cwnd < 1.0:
                self.fractional_credit += self.cwnd
                self.try_send()
                self._maybe_schedule_credit_tick()
            else:
                self.fractional_credit = 0.0
                self.try_send()
        elif ack_no == self.snd_una and self.snd_next > ack_no:  # in flight
            self.dupacks += 1
            if self.dupacks == 3:
                self.controller.on_loss(self, "dupack")
                if self.controller.inflate_on_dupack:
                    self.in_recovery = True
                    self.cwnd += 3.0
                self._emit(self.snd_una)  # fast retransmit
            elif self.dupacks > 3 and self.in_recovery:
                self.cwnd += 1.0
                self.try_send()

    # -- timers ----------------------------------------------------------

    def _arm_rto(self):
        """Set the retransmission deadline to now + rto * backoff. A pending
        timer is moved, not replaced (see Simulator.reschedule)."""
        sim = self.sim
        self._rto_timer = sim.reschedule(
            self._rto_timer,
            sim.now_ns + round(self.rto * self.rto_backoff * engine.NS_PER_S),
            engine.RTO_TIMER, self._rto_handler, self.label)

    def _on_rto(self):
        self._rto_timer = None
        if self.in_flight == 0:
            return
        self.ssthresh = max(self.in_flight / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dupacks = 0
        self.controller.on_loss(self, "timeout")
        self.rto_backoff = min(self.rto_backoff * 2, MAX_RTO_BACKOFF)
        self.rtx_next = self.snd_una
        self.try_send()
