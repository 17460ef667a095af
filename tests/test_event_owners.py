"""Every event pending at the horizon has an owner: an ack on a flow's
return path, or the flow's retransmission timer, which is pending from the
flow's start to the horizon: acks move it, and no flow cancels an event
(only a reschedule that moves a deadline earlier does). Controllers own no
event: TCP-LP's inference phase is a deadline, so no run logs an
InferencePhaseEnd. An event the engine loses, doubles or keeps after a
cancel breaks the count, and so does a packet the link counts twice;
run_scenario checks both books at the horizon and raises SimulationFault."""

import re
from heapq import heappush

import pytest
from conftest import built

from lbesim import network, transport
from lbesim.engine import Simulator, SimulationFault
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario

RUNS = {
    "reno-ledbat": ScenarioConfig(
        horizon_s=10.0, flows=[FlowConfig("reno"), FlowConfig("ledbat")]),
    "lp-nice-ledbat-ledbat-buffer20": ScenarioConfig(
        horizon_s=10.0, buffer_pkts=20,
        flows=[FlowConfig(p) for p in ("lp", "nice", "ledbat", "ledbat")]),
    "reno-lp-return100ms": ScenarioConfig(
        horizon_s=10.0,
        flows=[FlowConfig("reno"), FlowConfig("lp", extra_return_delay_s=0.1)]),
}


@pytest.mark.parametrize("traces", [False, True], ids=["plain", "traces"])
@pytest.mark.parametrize("name", RUNS)
def test_every_pending_event_at_the_horizon_has_an_owner(monkeypatch, name,
                                                         traces):
    flows = built(monkeypatch, transport.FlowEndpoint)
    links = built(monkeypatch, network.BottleneckLink)
    log = []
    stats = run_scenario(RUNS[name], traces=traces, event_log=log.append).run_stats
    assert not any(" InferencePhaseEnd " in line for line in log)
    held = [f._rto_timer for f in flows if f._rto_timer is not None]
    assert all(Simulator.pending(h) for h in held)
    # the last sample tick schedules nothing, so traces add no event
    assert stats.pending == sum(len(f._acks) for f in flows) + len(held)
    assert stats.events_processed > 5_000
    [link] = links
    assert link.total_enqueued == sum(f.packets_sent - f.packets_dropped
                                      for f in flows)


@pytest.mark.parametrize("name", RUNS)
def test_no_flow_cancels_and_every_new_ack_finds_its_timer_pending(
        monkeypatch, name):
    flows = built(monkeypatch, transport.FlowEndpoint)
    cancel, reschedule = Simulator.cancel, Simulator.reschedule
    on_ack_arrival = transport.FlowEndpoint.on_ack_arrival
    moving_earlier, cancels, new_acks = [False], [], [0]

    def cancelling(sim, ev):
        cancels.append(moving_earlier[0])
        return cancel(sim, ev)

    def rescheduling(sim, ev, at_ns, kind, fn, label=""):
        moving_earlier[0] = (ev is not None and Simulator.pending(ev)
                             and at_ns < ev[0])
        try:
            return reschedule(sim, ev, at_ns, kind, fn, label)
        finally:
            moving_earlier[0] = False

    def checking(flow, ack_no, owd, echo_sent_at):
        if ack_no > flow.snd_una:
            new_acks[0] += 1
            assert Simulator.pending(flow._rto_timer)
        on_ack_arrival(flow, ack_no, owd, echo_sent_at)

    monkeypatch.setattr(Simulator, "cancel", cancelling)
    monkeypatch.setattr(Simulator, "reschedule", rescheduling)
    monkeypatch.setattr(transport.FlowEndpoint, "on_ack_arrival", checking)
    run_scenario(RUNS[name])
    assert new_acks[0] > 5_000
    assert all(cancels), "%d of %d cancels not from a reschedule moving " \
        "a deadline earlier" % (cancels.count(False), len(cancels))
    assert all(Simulator.pending(f._rto_timer) for f in flows)


# Faults patched into the engine, the flow or the link; each breaks one of
# the books on a 10 s Reno+LEDBAT run.

def reschedule_pushing_a_second_entry(monkeypatch):
    reschedule = Simulator.reschedule

    def doubled(sim, ev, at_ns, kind, fn, label=""):
        ev = reschedule(sim, ev, at_ns, kind, fn, label)
        heappush(sim._heap, (ev[0], ev[1], ev))
        return ev
    monkeypatch.setattr(Simulator, "reschedule", doubled)


def cancel_leaving_the_handle_pending(monkeypatch):
    monkeypatch.setattr(Simulator, "cancel", lambda sim, ev: True)


def ack_arrive_skipping_every_5000th_ack(monkeypatch):
    ack_arrive, landed = transport.FlowEndpoint._ack_arrive, [0]

    def skipping(flow):
        landed[0] += 1
        if landed[0] % 5000:
            ack_arrive(flow)
    monkeypatch.setattr(transport.FlowEndpoint, "_ack_arrive", skipping)


def link_counting_an_accepted_packet_twice(monkeypatch):
    enqueue = network.BottleneckLink.enqueue

    def counted_twice(link, now_ns):
        arrive_ns = enqueue(link, now_ns)
        if arrive_ns is not None and link.total_enqueued == 1000:
            link.total_enqueued += 1
        return arrive_ns
    monkeypatch.setattr(network.BottleneckLink, "enqueue", counted_twice)


@pytest.mark.parametrize("fault, law", [
    (reschedule_pushing_a_second_entry, "events"),
    (cancel_leaving_the_handle_pending, "events"),
    (ack_arrive_skipping_every_5000th_ack, "events"),
    (link_counting_an_accepted_packet_twice, "packets"),
], ids=["reschedule", "cancel", "ack-arrive", "link"])
def test_a_run_whose_books_do_not_close_raises(monkeypatch, fault, law):
    fault(monkeypatch)
    with pytest.raises(SimulationFault, match="^books do not close: ") as info:
        run_scenario(RUNS["reno-ledbat"])
    # the fault breaks its own law and leaves the other one holding
    pending, owned, took, accepted = map(int, re.findall(r"\d+", str(info.value)))
    assert (pending != owned, took != accepted) == (law == "events", law == "packets")
