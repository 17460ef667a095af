"""Every event pending at the horizon has an owner: an ack on a flow's
return path, or the flow's retransmission or credit timer. Controllers own
no event: TCP-LP's inference phase is a deadline, so no run logs an
InferencePhaseEnd. An event the engine loses, doubles or keeps after a
cancel breaks the count."""

import pytest
from conftest import built

from lbesim import transport
from lbesim.engine import Simulator
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


def timers(f):
    """The handles flow f holds for its timers, None for one not set."""
    return f._rto_timer, f._credit_timer


@pytest.mark.parametrize("traces", [False, True], ids=["plain", "traces"])
@pytest.mark.parametrize("name", RUNS)
def test_every_pending_event_at_the_horizon_has_an_owner(monkeypatch, name,
                                                         traces):
    flows = built(monkeypatch, transport.FlowEndpoint)
    log = []
    stats = run_scenario(RUNS[name], traces=traces, event_log=log.append).run_stats
    assert not any(" InferencePhaseEnd " in line for line in log)
    held = [h for f in flows for h in timers(f) if h is not None]
    assert all(Simulator.pending(h) for h in held)
    # the last sample tick schedules nothing, so traces add no event
    assert stats.pending == sum(len(f._acks) for f in flows) + len(held)
    assert stats.events_processed > 5_000
