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


# A handle is the list [at_ns, seq, kind, fn, label]: the key the event
# dispatches at, then what it calls; a relay's adds one more (see
# relay_at_ns). A heap entry whose key no longer matches its handle's is
# stale. seq is SPENT once the event fired or was cancelled, and RELAYED
# while a relay waits at its first key.
SPENT = -1
RELAYED = -2
# A schedule made at now_ns gets the sequence number (now_ns << SEQ_BITS)
# + n, n counting every schedule so far, so ties break in the order the
# schedules were made, and each sequence number tells when it was given.
# n stays below LATE; the numbers from LATE up in a nanosecond's range are
# left for relays that count as scheduled after everything else then.
SEQ_BITS = 40
LATE = 1 << (SEQ_BITS - 1)


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
        seq = (self.now_ns << SEQ_BITS) + self._seq
        self._seq += 1
        self._live += 1
        ev = [at_ns, seq, kind, fn, label]
        heappush(self._heap, (at_ns, seq, ev))
        return ev

    def relay_at_ns(self, via_ns, at_ns, kind, fn, label="", by_ns=None):
        """Dispatch fn() at at_ns as if a handler at via_ns scheduled it, and
        return its handle. Needs via_ns <= at_ns. That handler's event
        counts as scheduled now, or with by_ns (now <= by_ns <= via_ns) as
        scheduled at by_ns after everything else scheduled then.

        The entry is scheduled at via_ns now, so it takes the heap slot and
        the sequence number that handler's event would take; with by_ns,
        when it surfaces, it first gives way to any entry at via_ns given
        its sequence number by then. When it surfaces at via_ns it
        re-enters the heap under at_ns and the sequence number a schedule
        made at that moment gets, which is the key the handler would have
        given fn. Nothing is dispatched at via_ns and the step is not
        counted as processed; the event counts once as pending throughout."""
        if at_ns < via_ns or by_ns is not None and not self.now_ns <= by_ns <= via_ns:
            raise ScheduleInPastError("cannot relay %s to t=%dns from t=%dns by t=%s"
                                      % (kind, at_ns, via_ns, by_ns))
        ev = self.schedule_at_ns(via_ns, kind, fn, label)
        ev[0] = at_ns
        ev[1] = RELAYED
        ev.append(None if by_ns is None else (by_ns << SEQ_BITS) + LATE + self._seq)
        return ev

    def reschedule(self, ev, at_ns, kind, fn, label=""):
        """Dispatch like cancel(ev) followed by schedule_at_ns(at_ns, kind,
        fn, label), and return the handle to keep. ev may be None or spent;
        kind, fn and label are the ones ev was scheduled with.

        A pending event moved no earlier is not pushed again: it takes the
        new deadline and the sequence number a fresh schedule would get
        now, and its old heap entry, which surfaces first, re-enters the
        heap under that key. Ties at equal times therefore break exactly as
        with a fresh schedule. A move to an earlier time, or of a relay,
        cancels and schedules anew."""
        if ev is not None and ev[1] != SPENT:
            if ev[1] >= 0 and at_ns >= ev[0]:
                ev[0] = at_ns
                ev[1] = (self.now_ns << SEQ_BITS) + self._seq
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
        self._live -= 1
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
                seq = ev[1]
                if seq == RELAYED:
                    late = ev[5]
                    if late is not None:  # by_ns: entries here numbered by then go first
                        ev[5] = None
                        n = len(heap)
                        if (n > 1 and heap[1][0] == at_ns and heap[1][1] < late
                                or n > 2 and heap[2][0] == at_ns and heap[2][1] < late):
                            heapreplace(heap, (at_ns, late, ev))
                            continue
                    # take the key a schedule made now gets
                    seq = ev[1] = (at_ns << SEQ_BITS) + self._seq
                    self._seq += 1
                elif seq < 0:
                    heappop(heap)
                    continue
                heapreplace(heap, (ev[0], seq, ev))  # moved later or relayed
                continue
            heappop(heap)
            ev[1] = SPENT
            self.now_ns = at_ns
            self.now = at_ns / NS_PER_S
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
        return RunStats(events_processed=processed,
                        pending=self._live - processed)
