"""Event loop unit tests: ordering, FIFO ties, cancellation, fault
wrapping, the integer-nanosecond clock, lazy moves and relays."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lbesim.engine import (NS_PER_S, ScheduleInPastError, SimulationFault,
                           Simulator, to_ns)


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


def test_schedule_after_is_relative_to_firing_time():
    sim = Simulator()
    stamps = []

    def first():
        stamps.append(sim.now)
        sim.schedule_after(0.5, "K", lambda: stamps.append(sim.now))

    sim.schedule_at(1.0, "K", first)
    sim.run_until(2.0)
    assert stamps == [1.0, 1.5]


def test_cascade_at_same_timestamp_fires_in_same_run():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule_after(0.0, "K", lambda: fired.append("second"))

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
    lazy, else cancel followed by a fresh schedule_at_ns. Returns the
    dispatched (time_ns, label) sequence and the final RunStats."""
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
            sim.run_until(at_ns / NS_PER_S)
    stats = sim.run_until(sim.now + 1.0)
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


# -- relays (the ack sent from a data arrival) --------------------------------

def _play_relays(ops, relay):
    """Apply event/relay/run steps. An event's handler records itself and
    schedules a follow-up, so handlers take sequence numbers while relays
    wait. A relay uses relay_at_ns when `relay`, else a real event at
    via_ns whose handler schedules the target. Returns the dispatched
    (time_ns, label) sequence of the recording handlers."""
    sim = Simulator()
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
        elif op == "relay" and relay:
            via = sim.now_ns + d1
            sim.relay_at_ns(via, via + d2, "K", record(str(i)))
        elif op == "relay":
            via = sim.now_ns + d1
            fn = record(str(i))
            sim.schedule_at_ns(
                via, "K", lambda at=via + d2, fn=fn: sim.schedule_at_ns(at, "K", fn))
        else:
            sim.run_until((sim.now_ns + d1) / NS_PER_S)
    sim.run_until(sim.now + 1.0)
    return fired


@given(st.lists(st.tuples(st.sampled_from(["event", "relay", "run"]),
                          st.integers(min_value=0, max_value=6),
                          st.integers(min_value=0, max_value=6)),
                max_size=80))
def test_relay_dispatches_like_a_handler_scheduling_at_via(ops):
    # microsecond steps of 0..6 tie relays, their targets and the events
    # (and follow-ups) that handlers schedule in between
    assert _play_relays(ops, relay=True) == _play_relays(ops, relay=False)


def test_relay_by_counts_as_scheduled_last_at_by():
    sim = Simulator()
    fired = []

    def at(t_s, fn):
        sim.schedule_at_ns(to_ns(t_s), "K", fn)

    def record(name):
        return lambda: fired.append((sim.now, name))

    # two chains through 2.0 to 3.0, their links scheduled at 1.0 and 1.5
    at(1.0, lambda: at(2.0, lambda: at(3.0, record("by 1.0"))))
    at(1.5, lambda: at(2.0, lambda: at(3.0, record("by 1.5"))))
    sim.relay_at_ns(to_ns(2.0), to_ns(3.0), "K", record("relay"),
                    by_ns=to_ns(1.0))
    sim.relay_at_ns(to_ns(2.0), to_ns(3.0), "K", record("relay now"))
    stats = sim.run_until(4.0)
    # the relay counts as scheduled at 1.0 after the chain link scheduled
    # then, and before the one scheduled at 1.5; a plain relay counts as
    # scheduled now, at 0
    assert fired == [(3.0, "relay now"), (3.0, "by 1.0"), (3.0, "relay"),
                     (3.0, "by 1.5")]
    assert (stats.events_processed, stats.pending) == (8, 0)


def test_relay_is_one_pending_event_and_its_step_is_not_processed():
    sim = Simulator()
    fired = []
    h = sim.relay_at_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(sim.now))
    assert sim.pending(h)
    stats = sim.run_until(0.5)
    assert (stats.events_processed, stats.pending) == (0, 1)
    stats = sim.run_until(1.5)  # the relay step happened at 1.0
    assert (stats.events_processed, stats.pending) == (0, 1)
    assert sim.pending(h) and fired == []
    stats = sim.run_until(3.0)
    assert (stats.events_processed, stats.pending) == (1, 0)
    assert fired == [2.0] and not sim.pending(h)


def test_cancelled_relay_never_fires_before_or_after_its_step():
    sim = Simulator()
    fired = []
    before = sim.relay_at_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(1))
    after = sim.relay_at_ns(to_ns(1.0), to_ns(2.0), "K", lambda: fired.append(2))
    assert sim.cancel(before) is True
    sim.run_until(1.5)
    assert sim.cancel(after) is True and sim.cancel(after) is False
    stats = sim.run_until(3.0)
    assert fired == [] and (stats.events_processed, stats.pending) == (0, 0)


def test_relay_to_before_its_step_raises():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.relay_at_ns(to_ns(2.0), to_ns(1.0), "K", lambda: None)
    sim.run_until(1.0)
    with pytest.raises(ScheduleInPastError):
        sim.relay_at_ns(to_ns(0.5), to_ns(3.0), "K", lambda: None)
    for by_s in (0.5, 2.5):  # by before now, or after the step
        with pytest.raises(ScheduleInPastError):
            sim.relay_at_ns(to_ns(2.0), to_ns(3.0), "K", lambda: None,
                            by_ns=to_ns(by_s))
    stats = sim.run_until(4.0)
    assert (stats.events_processed, stats.pending) == (0, 0)
