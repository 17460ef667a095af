"""Dumbbell data path: one bottleneck link with a drop-tail FIFO buffer on
the forward direction, and a delay-only return path for acks.

The transmitting packet does not occupy a buffer slot; the queue holds only
waiting packets. Acks are never queued or dropped: the reverse direction is
modeled as pure delay, so all congestion lives in the forward buffer.
"""

from collections import deque

from . import engine

ACK_BYTES = 40


class Packet:
    __slots__ = (
        "flow_id",
        "seq",
        "size_bytes",
        "sent_at",
        "is_ack",
        "ack_no",
        "measured_owd",
        "echo_sent_at",
    )

    def __init__(self, flow_id, seq, size_bytes, sent_at, is_ack=False,
                 ack_no=0, measured_owd=None, echo_sent_at=None):
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.is_ack = is_ack
        self.ack_no = ack_no
        self.measured_owd = measured_owd
        self.echo_sent_at = echo_sent_at


class BottleneckLink:
    """Fixed-rate link with a finite drop-tail FIFO in front of it.

    The backlog before the insertion decision is sampled at every enqueue
    attempt, drops included, so that occupancy approaches 1 under
    saturation. Sum and peak are kept; the series if `queue_samples` is a list.

    Every packet crosses the same propagation delay, so packets reach the
    far end in the order they finished serializing: the arrival handler
    takes the head of the `_propagating` FIFO and no event carries its
    packet.
    """

    def __init__(self, sim, capacity_bps, prop_delay_s, buffer_pkts):
        self.sim = sim
        self.capacity_bps = float(capacity_bps)
        self.prop_delay_s = float(prop_delay_s)
        self.buffer_pkts = int(buffer_pkts)
        self.queue = deque()
        self.busy = False
        self.on_deliver = None  # set by the scenario wiring: fn(packet)
        self.queue_samples = None  # list of (time_s, backlog) with traces on
        self.backlog_sum = 0
        self.backlog_peak = 0
        self.total_enqueued = 0
        self.total_dropped = 0
        self._prop_ns = engine.to_ns(self.prop_delay_s)
        self._tx_ns = {}          # packet size -> serialization time in ns
        self._labels = {}         # flow id -> event label, filled by _label
        self._in_service = None   # packet being serialized
        self._propagating = deque()  # serialized packets, in arrival order

    def serialization_s(self, size_bytes):
        return size_bytes * 8.0 / self.capacity_bps

    def enqueue(self, p):
        """Offer a data packet to the buffer. Returns True if accepted,
        False if it was tail-dropped (discarded silently)."""
        queue = self.queue
        depth = len(queue)
        self.backlog_sum += depth
        if depth > self.backlog_peak:
            self.backlog_peak = depth
        if self.queue_samples is not None:
            self.queue_samples.append((self.sim.now, depth))
        if depth >= self.buffer_pkts:
            self.total_dropped += 1
            return False
        self.total_enqueued += 1
        queue.append(p)
        if not self.busy:
            self.transmit_next()
        return True

    def transmit_next(self):
        """Start serializing the head-of-line packet if the link is idle."""
        if self.busy or not self.queue:
            return
        p = self.queue.popleft()
        self.busy = True
        self._in_service = p
        tx_ns = self._tx_ns.get(p.size_bytes)
        if tx_ns is None:
            tx_ns = self._tx_ns[p.size_bytes] = engine.to_ns(
                self.serialization_s(p.size_bytes))
        sim = self.sim
        sim.schedule_at_ns(sim.now_ns + tx_ns, engine.TRANSMISSION_COMPLETE,
                           self._tx_done, self._label(p.flow_id))

    def _label(self, flow_id):
        label = self._labels.get(flow_id)
        if label is None:
            label = self._labels[flow_id] = "flow%s" % flow_id
        return label

    def _tx_done(self):
        p = self._in_service
        self._in_service = None
        self.busy = False
        self._propagating.append(p)
        sim = self.sim
        sim.schedule_at_ns(sim.now_ns + self._prop_ns, engine.PACKET_ARRIVAL,
                           self._arrive, self._labels[p.flow_id])
        if self.queue:
            self.transmit_next()

    def _arrive(self):
        self.on_deliver(self._propagating.popleft())


def return_path_send(sim, ack, delay_ns, deliver, label=""):
    """Deliver an ack to the sender after exactly `delay_ns` nanoseconds;
    the return path has no queue and no loss."""
    sim.schedule_at_ns(sim.now_ns + delay_ns, engine.PACKET_ARRIVAL,
                       lambda: deliver(ack), label)
