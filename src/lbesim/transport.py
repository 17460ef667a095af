"""Sender/receiver endpoint: windowed transmission of a backlogged source,
cumulative acks carrying delay measurements, dupack/timeout loss detection,
and the controller plug-in point.

One FlowEndpoint object holds both ends of a flow: data packets go through
the bottleneck link, acks come back over the delay-only return path. There
are no delayed acks (the delay estimators are fed packet-by-packet) and the
receiver window is infinite.
"""

import math

from . import engine
from .controllers import AckSample
from .network import ACK_BYTES, Packet, return_path_send

MIN_RTO = 0.2
INITIAL_RTO = 1.0
MAX_RTO_BACKOFF = 64
INITIAL_SSTHRESH = float(2 ** 30)


class ProtocolFault(RuntimeError):
    """An ack acknowledged data that was never sent; the run is aborted."""


class FlowEndpoint:
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
        self.rx_next = 0
        self.rx_ooo = set()

        # accounting
        self.packets_sent = 0      # into the link, retransmissions included
        self.packets_dropped = 0   # tail-dropped at the bottleneck buffer
        self.delivered_pkts = 0    # arrivals at the receiver, dupes included
        self.bytes_goodput = 0     # new in-order bytes accepted
        self.goodput_events = []   # (time_s, bytes) for windowed metrics
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
        while True:
            if self.rtx_next < self.snd_next:
                if self.rtx_next - self.snd_una >= self.window():
                    break
                self._emit(self.rtx_next)
                self.rtx_next += 1
            else:
                if self.in_flight >= self.window():
                    break
                self._emit(self.snd_next)
                self.snd_next += 1
                self.rtx_next = self.snd_next
            sent += 1
            if self.cwnd < 1.0:
                # a sub-packet window spends one unit of accumulated credit
                self.fractional_credit = max(self.fractional_credit - 1.0, 0.0)
        if sent and self._credit_timer is not None:
            self.sim.cancel(self._credit_timer)
            self._credit_timer = None
        return sent

    def _emit(self, seq):
        p = Packet(self.flow_id, seq, self.pkt_size, self.sim.now)
        self.packets_sent += 1
        if self.link.enqueue(p):
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

    def on_data_arrival(self, p):
        """Receiver: accept a data packet and immediately ack it, echoing the
        sender timestamp and the measured one-way delay."""
        self.delivered_pkts += 1
        self.in_network -= 1
        advanced = 0
        if p.seq == self.rx_next:
            self.rx_next += 1
            advanced = 1
            while self.rx_next in self.rx_ooo:
                self.rx_ooo.discard(self.rx_next)
                self.rx_next += 1
                advanced += 1
        elif p.seq > self.rx_next:
            self.rx_ooo.add(p.seq)
        now = self.sim.now
        if advanced:
            nbytes = advanced * self.pkt_size
            self.bytes_goodput += nbytes
            self.goodput_events.append((now, nbytes))
        ack = Packet(self.flow_id, p.seq, ACK_BYTES, now, True, self.rx_next,
                     now - p.sent_at, p.sent_at)
        return_path_send(self.sim, ack, self._return_ns, self.on_ack_arrival,
                         self._ack_label)

    # -- ack processing --------------------------------------------------

    def on_ack_arrival(self, a):
        if a.ack_no > self.snd_next:
            raise ProtocolFault(
                "flow %s acked seq %d beyond highest sent %d"
                % (self.flow_id, a.ack_no, self.snd_next))
        rtt = self.sim.now - a.echo_sent_at
        self._update_rto_estimator(rtt)
        if a.ack_no > self.snd_una:
            self.snd_una = a.ack_no
            self.rtx_next = max(self.rtx_next, a.ack_no)
            self.dupacks = 0
            self.rto_backoff = 1
            if self.in_recovery:
                self.cwnd = self.ssthresh  # deflate on leaving fast recovery
                self.in_recovery = False
            self._rearm_rto()
            self.controller.on_ack(self, AckSample(rtt, a.measured_owd))
            if self.cwnd < 1.0:
                self.fractional_credit += self.cwnd
            else:
                self.fractional_credit = 0.0
            self.try_send()
            self._maybe_schedule_credit_tick()
        elif a.ack_no == self.snd_una and self.in_flight > 0:
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

    def _update_rto_estimator(self, rtt):
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = max(self.srtt + 4.0 * self.rttvar, MIN_RTO)

    def _arm_rto(self):
        """Set the retransmission deadline to now + rto * backoff. A pending
        timer is moved, not replaced (see Simulator.reschedule)."""
        sim = self.sim
        self._rto_timer = sim.reschedule(
            self._rto_timer, sim.now_ns + engine.to_ns(self.rto * self.rto_backoff),
            engine.RTO_TIMER, self._on_rto, self.label)

    def _rearm_rto(self):
        if self.in_flight > 0:
            self._arm_rto()
        elif self._rto_timer is not None:
            self.sim.cancel(self._rto_timer)
            self._rto_timer = None

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
