"""Deterministic discrete-event core: simulation clock, event queue, run loop.

Time is kept internally as integer nanoseconds so that long runs are
bit-exact and reproducible; the public API speaks seconds (floats).
There is no randomness and no wall-clock access anywhere in the loop:
identical schedules produce identical event sequences.
"""

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

NS_PER_S = 1_000_000_000

# Event kinds, used for the optional debug event log.
PACKET_ARRIVAL = "PacketArrival"
RTO_TIMER = "RtoTimer"
METRICS_SAMPLE_TICK = "MetricsSampleTick"
FLOW_START = "FlowStart"


def to_ns(seconds):
    return int(round(seconds * NS_PER_S))


class ScheduleInPastError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class SimulationFault(RuntimeError):
    """A handler raised, and the message names its event; or a run's books
    did not close (harness.run_scenario)."""


# A handle is the list [at_ns, seq, kind, fn, label]: the key the event
# dispatches at, then what it calls. A heap entry whose key no longer
# matches its handle's is stale. seq is SPENT once the event fired or was
# cancelled; a handle not SPENT has exactly one heap entry, moved or not.
SPENT = -1
# A schedule made at now_ns gets the sequence number (now_ns << SEQ_BITS)
# + n, n counting every schedule so far (and staying below 1 << SEQ_BITS),
# so ties break in the order the schedules were made, and each sequence
# number tells when it was given.
SEQ_BITS = 40


@dataclass
class RunStats:
    events_processed: int
    pending: int


class Simulator:
    """Single-threaded event loop. Events with equal fire times dispatch in
    insertion order (FIFO within timestamp, like ns-2).

    `now_ns` is the clock; `now` is the same instant in seconds, always
    equal to now_ns / NS_PER_S. Both are plain attributes that only the
    run loop sets."""

    __slots__ = ("now_ns", "now", "_heap", "_stamp", "_seq", "_processed",
                 "trace")

    def __init__(self, trace=None):
        self.now_ns = 0
        self.now = 0.0
        self._heap = []
        self._stamp = 0      # now_ns << SEQ_BITS, the time part of a new seq
        self._seq = 0
        self._processed = 0
        self.trace = trace  # optional callable(line) for the debug event log

    def schedule_at(self, at_s, kind, fn, label=""):
        return self.schedule_at_ns(to_ns(at_s), kind, fn, label)

    def schedule_at_ns(self, at_ns, kind, fn, label=""):
        """Schedule fn() at integer time at_ns; returns its handle."""
        if at_ns < self.now_ns:
            raise ScheduleInPastError(
                "cannot schedule %s at t=%dns before now=%dns" % (kind, at_ns, self.now_ns)
            )
        seq = self._stamp + self._seq
        self._seq += 1
        ev = [at_ns, seq, kind, fn, label]
        heappush(self._heap, (at_ns, seq, ev))
        return ev

    def schedule_from_ns(self, from_ns, at_ns, kind, fn, label=""):
        """Schedule fn() at at_ns under the key a handler running at from_ns
        would give it as the last thing it scheduled (now <= from_ns <=
        at_ns), and return its handle. Its sequence number is that of a
        schedule made first at from_ns + 1, so it orders after every
        schedule made by from_ns and before every one made later. Like every
        schedule it goes through schedule_at_ns, and the event is then like
        any other, pushed once under its final key."""
        if not self.now_ns <= from_ns <= at_ns:
            raise ScheduleInPastError("cannot schedule %s at t=%dns from t=%dns"
                                      % (kind, at_ns, from_ns))
        stamp = self._stamp
        self._stamp = (from_ns + 1) << SEQ_BITS
        try:
            return self.schedule_at_ns(at_ns, kind, fn, label)
        finally:
            self._stamp = stamp

    def reschedule(self, ev, at_ns, kind, fn, label=""):
        """Dispatch like cancel(ev) followed by schedule_at_ns(at_ns, kind,
        fn, label), and return the handle to keep. ev may be None or spent;
        kind, fn and label are the ones ev was scheduled with.

        A pending event moved no earlier is not pushed again: it takes the
        new deadline and the sequence number a fresh schedule would get
        now, and its old heap entry, which surfaces first, re-enters the
        heap under that key. Ties at equal times therefore break exactly as
        with a fresh schedule. A move to an earlier time cancels and
        schedules anew."""
        if ev is not None and ev[1] != SPENT:
            if at_ns >= ev[0]:
                ev[0] = at_ns
                ev[1] = self._stamp + self._seq
                self._seq += 1
                return ev
            self.cancel(ev)
        return self.schedule_at_ns(at_ns, kind, fn, label)

    def cancel(self, ev):
        """Make a pending event inert. Returns False if it already fired or
        was already cancelled."""
        if ev[1] == SPENT:
            return False
        ev[1] = SPENT
        return True

    @staticmethod
    def pending(ev):
        """True until the event fires or is cancelled."""
        return ev[1] != SPENT

    def run_until(self, t_end_s):
        """Process every event with fire time <= t_end, in (time, insertion)
        order, then set the clock to t_end."""
        t_end_ns = to_ns(t_end_s)
        if t_end_ns < self.now_ns:
            raise ScheduleInPastError("run_until target is in the past")
        heap = self._heap
        trace = self.trace
        processed = self._processed  # kept local; written back on leaving
        while heap:
            at_ns, seq, ev = heap[0]
            if at_ns > t_end_ns:
                break
            if ev[1] != seq:
                if ev[1] == SPENT:
                    heappop(heap)
                else:  # moved later: re-enter under the new key
                    heapreplace(heap, (ev[0], ev[1], ev))
                continue
            heappop(heap)
            ev[1] = SPENT
            self.now_ns = at_ns
            self.now = at_ns / NS_PER_S
            self._stamp = at_ns << SEQ_BITS
            processed += 1
            if trace is not None:
                trace("%.9f %s %s" % (self.now, ev[2], ev[4]))
            try:
                ev[3]()
            except Exception as exc:
                self._processed = processed
                raise SimulationFault(
                    "handler for %s (%s) at t=%.9f failed: %r"
                    % (ev[2], ev[4], self.now, exc)
                ) from exc
        self._processed = processed
        self.now_ns = t_end_ns
        self.now = t_end_ns / NS_PER_S
        self._stamp = t_end_ns << SEQ_BITS
        return RunStats(events_processed=processed,
                        pending=sum(ev[1] != SPENT for _, _, ev in heap))
