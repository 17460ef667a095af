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
    caller sets it: the sender hands its receiver no packet that would
    arrive after it, as a run stopped there never sees them."""

    __slots__ = (
        "sim", "link", "flow_id", "controller", "start_at", "_return_ns",
        "label", "_ack_label", "_ack_handler", "_rto_handler", "cwnd",
        "ssthresh", "snd_next", "snd_una", "rtx_next", "dupacks", "in_recovery",
        "srtt", "rttvar", "rto", "rto_backoff", "_rto_timer", "horizon_ns",
        "rx_next", "rx_ooo", "_acks", "packets_sent", "packets_dropped",
        "delivered_pkts", "window_bytes")

    def __init__(self, sim, link, flow_id, controller, return_delay_s=0.025,
                 start_at=0.0):
        self.sim = sim
        self.link = link
        self.flow_id = flow_id
        self.controller = controller
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
        self.rtx_next = 0  # next to send; behind snd_next in a go-back-N resend
        self.dupacks = 0
        self.in_recovery = False

        self.srtt = None
        self.rttvar = None
        self.rto = INITIAL_RTO
        self.rto_backoff = 1
        self._rto_timer = None  # one per flow, from its start to the horizon

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

    @property
    def in_flight(self):
        return self.snd_next - self.snd_una

    @property
    def in_network(self):
        """Accepted packets that arrive after the horizon, so are never received."""
        return self.packets_sent - self.packets_dropped - self.delivered_pkts

    def start(self):
        self.sim.schedule_at(self.start_at, engine.FLOW_START,
                             self._start, label="start-" + self.label)

    def _start(self):
        self._arm_rto()
        self.try_send()

    # -- sending ---------------------------------------------------------

    def try_send(self, resend=None):
        """Emit data while the window, floor(cwnd) packets, allows; the
        source is backlogged and never runs out of data. After a timeout
        rtx_next steps go-back-N through the un-acked region before any new
        data goes out. A fast retransmit passes `resend`, the sequence
        number to send: that one packet goes out whatever the window, and
        nothing else does.

        Each packet is offered to the link here, and one that arrives by
        the horizon goes to on_data_arrival at once."""
        enqueue = self.link.enqueue
        now_ns = self.sim.now_ns
        now = self.sim.now
        window = math.floor(self.cwnd)
        seq = resend
        while True:
            if seq is None:
                # rtx_next <= snd_next: the sends, an ack's raise to ack_no
                # and the RTO's reset to snd_una all keep it
                seq = self.rtx_next
                if seq - self.snd_una >= window:  # in flight
                    break
                self.rtx_next = seq + 1
                if seq == self.snd_next:  # new data
                    self.snd_next = seq + 1
            self.packets_sent += 1
            arrive_ns = enqueue(now_ns)
            if arrive_ns is None:
                self.packets_dropped += 1  # silent: sender learns via dupacks/RTO
            elif arrive_ns <= self.horizon_ns:
                self.on_data_arrival(seq, now, arrive_ns)
            if resend is not None:
                break
            seq = None

    # -- receiver side ---------------------------------------------------

    def on_data_arrival(self, seq, sent_at, at_ns):
        """Receiver: accept packet seq, sent at sent_at, that arrives at
        at_ns and ack it then, echoing the sender timestamp and the measured
        one-way delay. try_send calls this when the link accepts the packet,
        so it runs ahead of at_ns; the ack still leaves at at_ns, counted as
        the last thing scheduled then (see return_path_send)."""
        self.delivered_pkts += 1
        advanced = 0
        if seq == self.rx_next:
            self.rx_next += 1
            advanced = 1
            if self.rx_ooo:  # no probe while nothing waits out of order
                while self.rx_next in self.rx_ooo:
                    self.rx_ooo.discard(self.rx_next)
                    self.rx_next += 1
                    advanced += 1
        elif seq > self.rx_next:
            self.rx_ooo.add(seq)
        now = at_ns / engine.NS_PER_S
        if advanced:
            self.window_bytes[int(now / WINDOW_S)] += advanced * self.link.pkt_size
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
        sim = self.sim
        rtt = sim.now - echo_sent_at
        srtt = self.srtt
        if srtt is None:  # RFC 6298 estimator
            self.srtt, self.rttvar = rtt, rtt / 2.0
        else:
            err = srtt - rtt if srtt > rtt else rtt - srtt  # abs(srtt - rtt)
            self.rttvar = 0.75 * self.rttvar + 0.25 * err
            self.srtt = 0.875 * srtt + 0.125 * rtt
        rto = self.srtt + 4.0 * self.rttvar
        if rto < MIN_RTO:
            rto = MIN_RTO
        self.rto = rto
        if ack_no > self.snd_una:
            self.snd_una = ack_no
            if ack_no > self.rtx_next:
                self.rtx_next = ack_no
            self.dupacks = 0
            self.rto_backoff = 1
            if self.in_recovery:
                self.cwnd = self.ssthresh  # deflate on leaving fast recovery
                self.in_recovery = False
            # _arm_rto's deadline at backoff 1; an empty pipe refills below
            self._rto_timer = sim.reschedule(
                self._rto_timer, sim.now_ns + round(rto * engine.NS_PER_S),
                engine.RTO_TIMER, self._rto_handler, self.label)
            self.controller.on_ack(self, rtt, owd)
            self.try_send()
        elif ack_no == self.snd_una and self.snd_next > ack_no:  # in flight
            self.dupacks += 1
            if self.dupacks == 3:
                self.controller.on_loss(self, "dupack")
                if self.controller.inflate_on_dupack:
                    self.in_recovery = True
                    self.cwnd += 3.0
                self.try_send(self.snd_una)  # fast retransmit
            elif self.dupacks > 3 and self.in_recovery:
                self.cwnd += 1.0
                self.try_send()

    # -- timers ----------------------------------------------------------

    def _arm_rto(self):
        """Arm the flow's one RTO timer at now + rto * backoff, at its start
        and at each firing; acks move it in between, and nothing cancels it."""
        sim = self.sim
        self._rto_timer = sim.schedule_at_ns(
            sim.now_ns + round(self.rto * self.rto_backoff * engine.NS_PER_S),
            engine.RTO_TIMER, self._rto_handler, self.label)

    def _on_rto(self):
        """Collapse the window, double the backoff, re-arm and resend go-back-N
        from snd_una. With nothing in flight, as in no scenario run, do nothing."""
        if self.in_flight == 0:
            return
        self.ssthresh = max(self.in_flight / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dupacks = 0
        self.controller.on_loss(self, "timeout")
        self.rto_backoff = min(self.rto_backoff * 2, MAX_RTO_BACKOFF)
        self._arm_rto()
        self.rtx_next = self.snd_una
        self.try_send()
