"""Dumbbell data path: one bottleneck link with a drop-tail FIFO buffer on
the forward direction, and a delay-only return path for acks.

Every packet has the link's size (BottleneckLink.pkt_size), so all take
one serialization time. The transmitting packet does not occupy a buffer
slot. Acks are never queued or dropped: the reverse direction is modeled
as pure delay, so all congestion lives in the forward buffer.

The link schedules no event: a fixed-rate FIFO fixes a packet's times when
it accepts it (Lindley's recursion). Its service starts at max(now, the
previous packet's finish), and it arrives one serialization time and one
propagation delay later. enqueue returns that arrival time; the sender
hands the packet to its receiver, whose ack is the one event a delivered
packet costs (see return_path_send).
"""

from . import engine


class BottleneckLink:
    """Fixed-rate link with a finite drop-tail FIFO in front of it. It
    knows neither the simulator nor the flows: each call passes the time.

    The backlog before the insertion decision is sampled at every enqueue
    attempt, drops included, so that occupancy approaches 1 under
    saturation. Only the sum and the peak are kept.

    The FIFO is two integers: the service start of the busy period's first
    packet (_first), which went straight to the transmitter, and the finish
    of the last one (_busy_until). Every packet takes one serialization
    time, so the waiting ones start at _busy_until - k * _tx_ns for
    k = 1, 2, ..., and the backlog counts those starts not before now.
    """

    __slots__ = ("buffer_pkts", "pkt_size", "backlog_sum", "backlog_peak",
                 "total_enqueued", "total_dropped", "_busy_until", "_first",
                 "_tx_ns", "_prop_ns")

    def __init__(self, capacity_bps, prop_delay_s, buffer_pkts,
                 pkt_size_bytes=1500):
        self.buffer_pkts = int(buffer_pkts)
        self.pkt_size = pkt_size_bytes
        self.backlog_sum = 0
        self.backlog_peak = 0
        self.total_enqueued = 0
        self.total_dropped = 0
        self._busy_until = -1  # ns when the last accepted packet finishes
        self._first = -1       # ns when this busy period's first one started
        self._tx_ns = engine.to_ns(pkt_size_bytes * 8.0 / float(capacity_bps))
        self._prop_ns = engine.to_ns(float(prop_delay_s))

    def backlog(self, now_ns):
        """Packets waiting at now_ns, the transmitting one excluded. One
        whose service starts at this very nanosecond still waits for every
        event then (see README, Event core, for when that is exact)."""
        busy_until = self._busy_until
        if busy_until < now_ns:
            return 0
        return (busy_until - now_ns) // self._tx_ns - (self._first == now_ns)

    def enqueue(self, now_ns):
        """Offer a data packet to the buffer at now_ns. Returns the time in
        ns at which it arrives at the receiver, or None if it was
        tail-dropped (discarded silently). An arrival is never at 0 ns: a
        valid scenario serializes for at least 1 ns."""
        start = self._busy_until
        if start < now_ns:  # idle
            depth = 0
        else:               # as in backlog()
            depth = (start - now_ns) // self._tx_ns - (self._first == now_ns)
        self.backlog_sum += depth
        if depth > self.backlog_peak:
            self.backlog_peak = depth
        if depth >= self.buffer_pkts:
            self.total_dropped += 1
            return None
        self.total_enqueued += 1
        if start < now_ns:  # idle: straight to the transmitter
            start = self._first = now_ns
        finish = self._busy_until = start + self._tx_ns
        return finish + self._prop_ns


def return_path_send(sim, arrive_ns, delay_ns, deliver, label=""):
    """Call deliver() `delay_ns` nanoseconds after a data packet's arrival
    at `arrive_ns`, which may be later than now: the return path has no
    queue and no loss.

    The ack is scheduled once, under the key a handler at the arrival would
    give it as the last thing it scheduled then (Simulator.schedule_from_ns),
    so it dispatches as if an event at the arrival had sent it (see README,
    Event core)."""
    sim.schedule_from_ns(arrive_ns, arrive_ns + delay_ns, engine.PACKET_ARRIVAL,
                         deliver, label)
