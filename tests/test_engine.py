"""Event loop unit tests: ordering, FIFO ties, cancellation, fault
wrapping and the integer-nanosecond clock."""

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
    assert h.pending
    assert sim.cancel(h) is True
    assert not h.pending
    assert sim.cancel(h) is False  # already cancelled
    sim.run_until(1.0)
    assert fired == []


def test_cancel_after_firing_returns_false():
    sim = Simulator()
    h = sim.schedule_at(0.5, "K", lambda: None)
    sim.run_until(1.0)
    assert not h.pending
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
            if handles[k].pending:
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
    assert h.pending and fired == []
    stats = sim.run_until(4.0)
    assert (stats.events_processed, stats.pending) == (1, 0)
    assert fired == [3.0] and not h.pending


def test_reschedule_earlier_or_spent_schedules_anew():
    sim = Simulator()
    fired = []
    h = sim.schedule_at(2.0, "K", lambda: fired.append("old"))
    h2 = sim.reschedule(h, to_ns(1.0), "K", lambda: fired.append("new"))
    assert h2 is not h and not h.pending
    sim.run_until(3.0)
    assert fired == ["new"]
    h3 = sim.reschedule(h2, to_ns(4.0), "K", lambda: fired.append("again"))
    assert h3 is not h2
    sim.run_until(5.0)
    assert fired == ["new", "again"]
