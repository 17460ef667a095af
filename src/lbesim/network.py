"""Dumbbell data path: one bottleneck link with a drop-tail FIFO buffer on
the forward direction, and a delay-only return path for acks.

The transmitting packet does not occupy a buffer slot; the queue holds only
waiting packets. Acks are never queued or dropped: the reverse direction is
modeled as pure delay, so all congestion lives in the forward buffer.
"""

from collections import deque

from . import engine


class Packet:
    __slots__ = ("flow_id", "seq", "size_bytes", "sent_at")

    def __init__(self, flow_id, seq, size_bytes, sent_at):
        self.flow_id = flow_id
        self.seq = seq
        self.size_bytes = size_bytes
        self.sent_at = sent_at


class BottleneckLink:
    """Fixed-rate link with a finite drop-tail FIFO in front of it.

    The backlog before the insertion decision is sampled at every enqueue
    attempt, drops included, so that occupancy approaches 1 under
    saturation. Only the sum and the peak are kept.

    Every packet crosses the same fixed propagation delay, so its arrival
    time is known when it finishes serializing. The link hands it over
    then, as on_deliver(packet, arrival_ns), and the receiver schedules
    what the arrival causes (see return_path_send); no event marks the
    arrival itself.
    """

    def __init__(self, sim, capacity_bps, prop_delay_s, buffer_pkts):
        self.sim = sim
        self.capacity_bps = float(capacity_bps)
        self.prop_delay_s = float(prop_delay_s)
        self.buffer_pkts = int(buffer_pkts)
        self.queue = deque()
        self.on_deliver = None  # set by the scenario wiring: fn(packet, arrival_ns)
        self.backlog_sum = 0
        self.backlog_peak = 0
        self.total_enqueued = 0
        self.total_dropped = 0
        self.in_service = None   # packet being serialized; None when idle
        self._prop_ns = engine.to_ns(self.prop_delay_s)
        self._tx_ns = {}          # packet size -> serialization time in ns
        self._labels = {}         # flow id -> event label

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
        if depth >= self.buffer_pkts:
            self.total_dropped += 1
            return False
        self.total_enqueued += 1
        if self.in_service is None:  # an idle link has an empty buffer
            self._start(p)
        else:
            queue.append(p)
        return True

    def _start(self, p):
        """Serialize p, which is at the head of the line."""
        self.in_service = p
        tx_ns = self._tx_ns.get(p.size_bytes)
        if tx_ns is None:
            tx_ns = self._tx_ns[p.size_bytes] = engine.to_ns(
                self.serialization_s(p.size_bytes))
        label = self._labels.get(p.flow_id)
        if label is None:
            label = self._labels[p.flow_id] = "flow%s" % p.flow_id
        sim = self.sim
        sim.schedule_at_ns(sim.now_ns + tx_ns, engine.TRANSMISSION_COMPLETE,
                           self._tx_done, label)

    def _tx_done(self):
        self.on_deliver(self.in_service, self.sim.now_ns + self._prop_ns)
        if self.queue:
            self._start(self.queue.popleft())
        else:
            self.in_service = None


def return_path_send(sim, arrive_ns, delay_ns, deliver, label=""):
    """Call deliver() `delay_ns` nanoseconds after a data packet's arrival
    at `arrive_ns`, which may be later than now: the return path has no
    queue and no loss.

    The ack is relayed through the arrival time (Simulator.relay_at_ns),
    so it dispatches exactly as if an event at the arrival had sent it."""
    sim.relay_at_ns(arrive_ns, arrive_ns + delay_ns, engine.PACKET_ARRIVAL,
                    deliver, label)
