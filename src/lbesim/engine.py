"""Deterministic discrete-event core: simulation clock, event queue, run loop.

Time is kept internally as integer nanoseconds so that long runs are
bit-exact and reproducible; the public API speaks seconds (floats).
There is no randomness and no wall-clock access anywhere in the loop:
identical schedules produce identical event sequences.
"""

import heapq
from dataclasses import dataclass

NS_PER_S = 1_000_000_000

# Event kinds, used for the optional debug event log.
PACKET_ARRIVAL = "PacketArrival"
TRANSMISSION_COMPLETE = "TransmissionComplete"
RTO_TIMER = "RtoTimer"
INFERENCE_PHASE_END = "InferencePhaseEnd"
METRICS_SAMPLE_TICK = "MetricsSampleTick"
FLOW_START = "FlowStart"
CREDIT_TICK = "CreditTick"


def to_ns(seconds):
    return int(round(seconds * NS_PER_S))


class ScheduleInPastError(ValueError):
    """Raised when an event is scheduled before the current clock."""


class SimulationFault(RuntimeError):
    """A handler raised; the offending event is identified in the message."""


class _Event:
    """A scheduled callback, and the handle its scheduler keeps to cancel or
    move it. `at_ns` and `seq` are the key it dispatches at; a heap entry
    whose key no longer matches is stale. A fired or cancelled event has
    seq -1."""

    __slots__ = ("at_ns", "seq", "kind", "fn", "label")

    def __init__(self, at_ns, seq, kind, fn, label):
        self.at_ns = at_ns
        self.seq = seq
        self.kind = kind
        self.fn = fn
        self.label = label

    @property
    def pending(self):
        return self.seq >= 0


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

    def __init__(self, trace=None):
        self.now_ns = 0
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._live = 0       # scheduled minus cancelled, fired ones included
        self._processed = 0
        self.trace = trace  # optional callable(line) for the debug event log

    def schedule_at(self, at_s, kind, fn, label=""):
        return self.schedule_at_ns(to_ns(at_s), kind, fn, label)

    def schedule_after(self, delay_s, kind, fn, label=""):
        return self.schedule_at_ns(self.now_ns + to_ns(delay_s), kind, fn, label)

    def schedule_at_ns(self, at_ns, kind, fn, label=""):
        """Schedule fn() at integer time at_ns; returns its handle."""
        if at_ns < self.now_ns:
            raise ScheduleInPastError(
                "cannot schedule %s at t=%dns before now=%dns" % (kind, at_ns, self.now_ns)
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        ev = _Event(at_ns, seq, kind, fn, label)
        heapq.heappush(self._heap, (at_ns, seq, ev))
        return ev

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
        if ev is not None and ev.seq >= 0:
            if at_ns >= ev.at_ns:
                ev.at_ns = at_ns
                ev.seq = self._seq
                self._seq += 1
                return ev
            self.cancel(ev)
        return self.schedule_at_ns(at_ns, kind, fn, label)

    def cancel(self, ev):
        """Make a pending event inert. Returns False if it already fired or
        was already cancelled."""
        if ev.seq < 0:
            return False
        ev.seq = -1
        self._live -= 1
        return True

    def run_until(self, t_end_s):
        """Process every event with fire time <= t_end, in (time, insertion)
        order, then set the clock to t_end."""
        t_end_ns = to_ns(t_end_s)
        if t_end_ns < self.now_ns:
            raise ScheduleInPastError("run_until target is in the past")
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        trace = self.trace
        while heap and heap[0][0] <= t_end_ns:
            at_ns, seq, ev = heappop(heap)
            if ev.seq != seq:
                if ev.seq >= 0:  # moved later: re-enter under its own key
                    heappush(heap, (ev.at_ns, ev.seq, ev))
                continue
            ev.seq = -1
            self.now_ns = at_ns
            self.now = at_ns / NS_PER_S
            self._processed += 1
            if trace is not None:
                trace("%.9f %s %s" % (self.now, ev.kind, ev.label))
            try:
                ev.fn()
            except Exception as exc:
                raise SimulationFault(
                    "handler for %s (%s) at t=%.9f failed: %r"
                    % (ev.kind, ev.label, self.now, exc)
                ) from exc
        self.now_ns = t_end_ns
        self.now = t_end_ns / NS_PER_S
        return RunStats(events_processed=self._processed,
                        pending=self._live - self._processed)
