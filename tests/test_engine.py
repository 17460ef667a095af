"""Event loop unit tests: ordering, FIFO ties, cancellation, fault
wrapping, the integer-nanosecond clock, lazy moves and acks scheduled from
their data arrival."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbesim import engine
from lbesim.engine import (NS_PER_S, ScheduleInPastError, SimulationFault,
                           Simulator, to_ns)
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario


def test_to_ns_is_integer_and_rounds():
    assert to_ns(0.1) == 100_000_000
    assert to_ns(1.0) == NS_PER_S
    assert isinstance(to_ns(0.3), int)
    # float noise below a nanosecond does not split timestamps
    assert to_ns(0.1 + 0.2) == to_ns(0.3)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule_at(0.5, "K", lambda: fired.append("b"))
    sim.schedule_at(0.1, "K", lambda: fired.append("a"))
    sim.schedule_at(0.9, "K", lambda: fired.append("c"))
    sim.run_until(1.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 1.0


def test_fifo_within_same_timestamp():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule_at(0.25, "K", lambda i=i: fired.append(i))
    sim.run_until(1.0)
    assert fired == [0, 1, 2, 3, 4]


def test_cascade_at_same_timestamp_fires_in_same_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule_at_ns(sim.now_ns, "K", lambda: fired.append("second"))

    sim.schedule_at(0.5, "K", first)
    stats = sim.run_until(0.5)
    assert fired == ["first", "second"]
    assert stats.events_processed == 2


def test_cancel_prevents_firing_and_reports_state():
    sim = Simulator()
    fired = []
    h = sim.schedule_at(0.5, "K", lambda: fired.append(1))
    assert sim.pending(h)
    assert sim.cancel(h) is True
    assert not sim.pending(h)
    assert sim.cancel(h) is False  # already cancelled
    sim.run_until(1.0)
    assert fired == []


def test_cancel_after_firing_returns_false():
    sim = Simulator()
    h = sim.schedule_at(0.5, "K", lambda: None)
    sim.run_until(1.0)
    assert not sim.pending(h)
    assert sim.cancel(h) is False


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.run_until(1.0)
    with pytest.raises(ScheduleInPastError):
        sim.schedule_at(0.5, "K", lambda: None)
    with pytest.raises(ScheduleInPastError):
        sim.run_until(0.5)


def test_run_stats_counts_processed_and_pending():
    sim = Simulator()
    sim.schedule_at(0.1, "K", lambda: None)
    sim.schedule_at(0.2, "K", lambda: None)
    h = sim.schedule_at(0.3, "K", lambda: None)
    sim.schedule_at(5.0, "K", lambda: None)  # beyond the horizon
    sim.cancel(h)
    stats = sim.run_until(1.0)
    assert stats.events_processed == 2
    assert stats.pending == 1


def test_handler_exception_wrapped_as_simulation_fault():
    sim = Simulator()

    def boom():
        raise ValueError("inner")

    sim.schedule_at(0.5, "MyKind", boom, label="mylabel")
    with pytest.raises(SimulationFault) as exc_info:
        sim.run_until(1.0)
    msg = str(exc_info.value)
    assert "MyKind" in msg and "mylabel" in msg
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_trace_callback_receives_one_line_per_event():
    lines = []
    sim = Simulator(trace=lines.append)
    sim.schedule_at(0.5, "KindA", lambda: None, label="x")
    sim.run_until(1.0)
    assert len(lines) == 1
    assert "KindA" in lines[0] and "x" in lines[0]


def test_clock_advances_to_horizon_without_events():
    sim = Simulator()
    sim.run_until(3.25)
    assert sim.now == 3.25
    assert sim.now_ns == to_ns(3.25)


@given(st.lists(st.integers(min_value=0, max_value=1_000_000),
                min_size=1, max_size=60))
def test_dispatch_order_is_time_then_insertion(times_us):
    sim = Simulator()
    fired = []
    for i, t in enumerate(times_us):
        sim.schedule_at(t * 1e-6, "K", lambda i=i: fired.append(i))
    sim.run_until(2.0)
    expected = [i for _, i in
                sorted((to_ns(t * 1e-6), i) for i, t in enumerate(times_us))]
    assert fired == expected


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=500_000),
                          st.booleans()), min_size=1, max_size=40))
def test_cancelled_events_never_fire(events):
    sim = Simulator()
    fired = []
    handles = []
    for i, (t, _) in enumerate(events):
        handles.append(sim.schedule_at(t * 1e-6, "K",
                                       lambda i=i: fired.append(i)))
    cancelled = {i for i, (_, c) in enumerate(events) if c}
    for i in cancelled:
        sim.cancel(handles[i])
    sim.run_until(1.0)
    assert set(fired).isdisjoint(cancelled)
    assert len(fired) == len(events) - len(cancelled)


# -- moving a pending event (the lazy RTO deadline) ------------------------

def _play(ops, lazy):
    """Apply schedule/cancel/move/run steps; a move uses reschedule when
    lazy, else cancel followed by a fresh schedule_at_ns. Every run's
    RunStats.pending must count the handles still pending, moved ones once.
    Returns the dispatched (time_ns, label) sequence and the final
    RunStats."""
    sim = Simulator()
    fired = []
    handles, fns = [], []
    for op, k, dt_us in ops:
        at_ns = sim.now_ns + dt_us * 1000
        if op == "schedule" or not handles:
            label = len(handles)
            fns.append(lambda label=label: fired.append((sim.now_ns, label)))
            handles.append(sim.schedule_at_ns(at_ns, "K", fns[label], str(label)))
            continue
        k %= len(handles)
        if op == "cancel":
            sim.cancel(handles[k])
        elif op == "move" and lazy:
            handles[k] = sim.reschedule(handles[k], at_ns, "K", fns[k], str(k))
        elif op == "move":
            if sim.pending(handles[k]):
                sim.cancel(handles[k])
            handles[k] = sim.schedule_at_ns(at_ns, "K", fns[k], str(k))
        else:
            stats = sim.run_until(at_ns / NS_PER_S)
            assert stats.pending == sum(map(sim.pending, handles))
    stats = sim.run_until(sim.now + 1.0)
    assert stats.pending == sum(map(sim.pending, handles)) == 0
    return fired, stats


@given(st.lists(st.tuples(st.sampled_from(["schedule", "cancel", "move", "run"]),
                          st.integers(min_value=0, max_value=30),
                          st.integers(min_value=0, max_value=6)),
                max_size=80))
def test_reschedule_dispatches_like_cancel_and_schedule(ops):
    # microsecond steps of 0..6 put many events on equal timestamps, and a
    # move lands both later and earlier than the current deadline
    assert _play(ops, lazy=True) == _play(ops, lazy=False)


def test_deferred_event_counts_once_as_pending():
    sim = Simulator()
    fired = []
    fn = lambda: fired.append(sim.now)
    h = sim.schedule_at(1.0, "K", fn)
    for t in (2.0, 3.0):
        assert sim.reschedule(h, to_ns(t), "K", fn) is h
    stats = sim.run_until(1.5)  # the old entry surfaced and re-entered
    assert (stats.events_processed, stats.pending) == (0, 1)
    assert sim.pending(h) and fired == []
    stats = sim.run_until(4.0)
    assert (stats.events_processed, stats.pending) == (1, 0)
    assert fired == [3.0] and not sim.pending(h)


def test_reschedule_earlier_or_spent_schedules_anew():
    sim = Simulator()
    fired = []
    h = sim.schedule_at(2.0, "K", lambda: fired.append("old"))
    h2 = sim.reschedule(h, to_ns(1.0), "K", lambda: fired.append("new"))
    assert h2 is not h and not sim.pending(h)
    sim.run_until(3.0)
    assert fired == ["new"]
    h3 = sim.reschedule(h2, to_ns(4.0), "K", lambda: fired.append("again"))
    assert h3 is not h2
    sim.run_until(5.0)
    assert fired == ["new", "again"]


# -- an ack scheduled from its data arrival (schedule_from_ns) -------------

class ListScheduler:
    """Reference for the dispatch order: a pending list searched for its
    least key (time, when scheduled, late, count). A schedule from
    from_ns counts as made at from_ns after everything else made then."""

    def __init__(self):
        self.now_ns = 0
        self.pending = []
        self.count = 0

    def _push(self, at_ns, made_ns, late, fn):
        self.count += 1
        self.pending.append(((at_ns, made_ns, late, self.count), fn))

    def schedule_at_ns(self, at_ns, kind, fn):
        self._push(at_ns, self.now_ns, 0, fn)

    def schedule_from_ns(self, from_ns, at_ns, kind, fn):
        self._push(at_ns, from_ns, 1, fn)

    def run_until(self, t_end_s):
        t_end_ns = to_ns(t_end_s)
        while self.pending:
            item = min(self.pending, key=lambda kv: kv[0])
            if item[0][0] > t_end_ns:
                break
            self.pending.remove(item)
            self.now_ns = item[0][0]
            item[1]()
        self.now_ns = t_end_ns


def _play_from(sim, ops):
    """Apply event/from/run steps to sim. An event's handler records itself
    and schedules a follow-up, so handlers schedule while acks wait; a
    `from` step schedules from a time ahead. Returns the dispatched
    (time_ns, label) sequence of the recording handlers."""
    fired = []

    def record(label):
        return lambda: fired.append((sim.now_ns, label))

    def event(label, dt_ns):
        def fn():
            record(label)()
            sim.schedule_at_ns(sim.now_ns + dt_ns, "K", record(label + "'"))
        return fn

    for i, (op, d1_us, d2_us) in enumerate(ops):
        d1, d2 = d1_us * 1000, d2_us * 1000
        if op == "event":
            sim.schedule_at_ns(sim.now_ns + d1, "K", event(str(i), d2))
        elif op == "from":
            sim.schedule_from_ns(sim.now_ns + d1, sim.now_ns + d1 + d2, "K",
                                 record(str(i)))
        else:
            sim.run_until((sim.now_ns + d1) / NS_PER_S)
    sim.run_until(sim.now_ns / NS_PER_S + 1.0)
    return fired


@given(st.lists(st.tuples(st.sampled_from(["event", "from", "run"]),
                          st.integers(min_value=0, max_value=6),
                          st.integers(min_value=0, max_value=6)),
                max_size=80))
def test_schedule_from_dispatches_like_the_last_schedule_made_then(ops):
    # microsecond steps of 0..6 tie acks, the times they are scheduled
    # from, and the events (and follow-ups) that handlers schedule then
    assert _play_from(Simulator(), ops) == _play_from(ListScheduler(), ops)


def test_schedule_from_orders_after_that_nanosecond_and_before_the_next():
    sim = Simulator()
    fired = []

    def record(name):
        return lambda: fired.append((sim.now_ns, name))

    def schedule_at(at_ns, name):
        return lambda: sim.schedule_at_ns(at_ns, "K", record(name))

    # handlers at 2.0 s and 1 ns later schedule at 3.0 s; the ack counts as
    # scheduled last at 2.0 s, though it was scheduled at 0
    sim.schedule_at_ns(to_ns(2.0), "K", schedule_at(to_ns(3.0), "at 2.0"))
    sim.schedule_at_ns(to_ns(2.0) + 1, "K", schedule_at(to_ns(3.0), "1 ns later"))
    sim.schedule_from_ns(to_ns(2.0), to_ns(3.0), "K", record("ack"))
    sim.schedule_at_ns(to_ns(2.0), "K", schedule_at(to_ns(3.0), "at 2.0, later"))
    stats = sim.run_until(4.0)
    assert fired == [(to_ns(3.0), "at 2.0"), (to_ns(3.0), "at 2.0, later"),
                     (to_ns(3.0), "ack"), (to_ns(3.0), "1 ns later")]
    assert (stats.events_processed, stats.pending) == (7, 0)


def test_relay_is_one_pending_event_and_its_step_is_not_processed():
    # an ack scheduled from its arrival is one ordinary pending event: the
    # time it is from is no step of its own and processes nothing
    sim = Simulator()
    fired = []
    h = sim.schedule_from_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(sim.now))
    kept = sim.schedule_from_ns(to_ns(1.0), to_ns(2.5), "K", lambda: fired.append(sim.now))
    assert sim.pending(h) and len(h) == 5
    stats = sim.run_until(0.5)
    assert (stats.events_processed, stats.pending) == (0, 2)
    stats = sim.run_until(1.5)  # nothing happens at the time it is from
    assert (stats.events_processed, stats.pending) == (0, 2)
    assert sim.pending(h) and fired == []
    stats = sim.run_until(3.0)
    assert fired == [2.0, 2.5] and not sim.pending(h) and not sim.pending(kept)
    assert (stats.events_processed, stats.pending) == (2, 0)
    assert sim.cancel(h) is False


def test_cancelled_relay_never_fires_before_or_after_its_step():
    # cancelled before or after the time it is scheduled from, an ack never fires
    sim = Simulator()
    fired = []
    before = sim.schedule_from_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(1))
    after = sim.schedule_from_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(2))
    assert sim.cancel(before) is True
    sim.run_until(1.5)
    assert sim.cancel(after) is True and sim.cancel(after) is False
    stats = sim.run_until(3.0)
    assert fired == [] and (stats.events_processed, stats.pending) == (0, 0)


def test_schedule_from_outside_now_to_at_raises():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule_from_ns(to_ns(2.0), to_ns(1.0), "K", lambda: None)
    sim.run_until(1.0)
    with pytest.raises(ScheduleInPastError):
        sim.schedule_from_ns(to_ns(0.5), to_ns(3.0), "K", lambda: None)
    sim.schedule_from_ns(to_ns(1.0), to_ns(1.0), "K", lambda: None)  # both now
    stats = sim.run_until(4.0)
    assert (stats.events_processed, stats.pending) == (1, 0)


def test_acks_are_pushed_once_and_only_moved_rto_timers_re_key(monkeypatch):
    # every ack enters the heap under its final key; the one re-keying
    # left is an RTO deadline moved later (Simulator.reschedule)
    rekeyed = []
    real = engine.heapreplace

    def counting(heap, item):
        rekeyed.append(item[2][2])
        return real(heap, item)

    monkeypatch.setattr(engine, "heapreplace", counting)
    cfg = ScenarioConfig(horizon_s=2.0, flows=[FlowConfig("reno"), FlowConfig("reno")])
    result = run_scenario(cfg)
    assert result.report.csv_row()
    assert rekeyed and set(rekeyed) == {engine.RTO_TIMER}
