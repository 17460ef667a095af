"""Dumbbell data path: one bottleneck link with a drop-tail FIFO buffer on
the forward direction, and a delay-only return path for acks.

A data packet is a plain tuple (flow_id, seq, sent_at): the flow it
belongs to, its sequence number and its send time in seconds. Its size is
its flow's (see BottleneckLink.connect).

The transmitting packet does not occupy a buffer slot; the queue holds only
waiting packets. Acks are never queued or dropped: the reverse direction is
modeled as pure delay, so all congestion lives in the forward buffer.

The link's event handler, _tx_done, is bound once, when the link is built,
and that bound method is what every TransmissionComplete event calls;
FlowEndpoint does the same with its ack and RTO handlers.
"""

from collections import deque

from . import engine


class BottleneckLink:
    """Fixed-rate link with a finite drop-tail FIFO in front of it.

    The backlog before the insertion decision is sampled at every enqueue
    attempt, drops included, so that occupancy approaches 1 under
    saturation. Only the sum and the peak are kept.

    Every packet crosses the same fixed propagation delay, so its arrival
    time is known when it finishes serializing. The link hands it over
    then, as receive(packet, arrival_ns) of the flow's route (see
    connect), and the receiver schedules what the arrival causes (see
    return_path_send); no event marks the arrival itself.
    """

    def __init__(self, sim, capacity_bps, prop_delay_s, buffer_pkts):
        self.sim = sim
        self.capacity_bps = float(capacity_bps)
        self.prop_delay_s = float(prop_delay_s)
        self.buffer_pkts = int(buffer_pkts)
        self.queue = deque()
        self.backlog_sum = 0
        self.backlog_peak = 0
        self.total_enqueued = 0
        self.total_dropped = 0
        self.in_service = None   # packet being serialized; None when idle
        self._prop_ns = engine.to_ns(self.prop_delay_s)
        # flow id -> (receive, serialization ns, event label); see connect
        self._routes = {}
        self._tx_done_handler = self._tx_done  # bound once

    def serialization_s(self, size_bytes):
        return size_bytes * 8.0 / self.capacity_bps

    def connect(self, flow_id, receive, size_bytes):
        """Hand flow_id's packets, each size_bytes long, to
        receive(packet, arrival_ns) when they finish serializing."""
        self._routes[flow_id] = (
            receive, engine.to_ns(self.serialization_s(size_bytes)),
            "flow%s" % flow_id)

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
            self.in_service = p
            _, tx_ns, label = self._routes[p[0]]
            sim = self.sim
            sim.schedule_at_ns(sim.now_ns + tx_ns, engine.TRANSMISSION_COMPLETE,
                               self._tx_done_handler, label)
        else:
            queue.append(p)
        return True

    def _tx_done(self):
        """Hand over the packet that finished serializing, then serialize
        the head of the line, if any."""
        sim = self.sim
        p = self.in_service
        routes = self._routes
        routes[p[0]][0](p, sim.now_ns + self._prop_ns)
        if self.queue:
            p = self.in_service = self.queue.popleft()
            _, tx_ns, label = routes[p[0]]
            sim.schedule_at_ns(sim.now_ns + tx_ns, engine.TRANSMISSION_COMPLETE,
                               self._tx_done_handler, label)
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
