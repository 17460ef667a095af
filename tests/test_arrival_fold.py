"""The folded data arrival against a reference three-event data path.

The link hands each packet to the receiver when it finishes serializing,
and the receiver relays its ack through the packet's arrival time
(`Simulator.relay_at_ns`), so a delivered packet costs two events. The
reference below keeps the third: a real data-arrival event, whose handler
sends the ack with a plain schedule. Every scenario output must be equal,
the 100 ms cwnd samples and their ties with acks included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbesim import engine, harness, network, transport
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario


class ThreeEventLink(network.BottleneckLink):
    """Hands each packet over from an event at its arrival time."""

    def _tx_done(self):
        p, sim = self.in_service, self.sim
        deliver = self._routes[p[0]][0]
        sim.schedule_at_ns(sim.now_ns + self._prop_ns, engine.PACKET_ARRIVAL,
                           lambda: deliver(p, sim.now_ns), "flow%s" % p[0])
        if self.queue:
            nxt = self.in_service = self.queue.popleft()
            _, tx_ns, label = self._routes[nxt[0]]
            sim.schedule_at_ns(sim.now_ns + tx_ns, engine.TRANSMISSION_COMPLETE,
                               self._tx_done, label)
        else:
            self.in_service = None


def scheduled_return_path(sim, arrive_ns, delay_ns, deliver, label=""):
    """The ack as a plain event: exact only when sent at the arrival."""
    sim.schedule_at_ns(arrive_ns + delay_ns, engine.PACKET_ARRIVAL, deliver, label)


def outputs(cfg):
    r = run_scenario(cfg, traces=True)
    return r.report.csv_row(), r.cwnd_traces, r.queue_samples


def reference_outputs(cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "BottleneckLink", ThreeEventLink)
        mp.setattr(transport, "return_path_send", scheduled_return_path)
        return outputs(cfg)


def naive_fold_outputs(cfg):
    """Folded arrival, but the ack scheduled straight at its landing time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "return_path_send", scheduled_return_path)
        return outputs(cfg)


def config(prop_ms, flows, buffer_pkts=100, horizon_s=10.0):
    return ScenarioConfig(
        fwd_prop_delay_s=prop_ms / 1000.0, buffer_pkts=buffer_pkts,
        horizon_s=horizon_s,
        flows=[FlowConfig(proto, {}, extra_return_delay_s=extra_ms / 1000.0,
                          start_at=start_ms / 1000.0)
               for proto, extra_ms, start_ms in flows])


# A sample tick scheduled after a packet finished serializing but before it
# arrived ties with its ack when ret < 100 ms < ret + prop, where ret =
# prop + extra is the return delay; the relay must keep the tick first.
@st.composite
def scenarios(draw):
    prop_ms = draw(st.integers(min_value=2, max_value=90))
    n = draw(st.integers(min_value=1, max_value=4))
    flows = [(draw(st.sampled_from(harness.PROTOCOLS)),
              draw(st.one_of(st.integers(0, 60),
                             st.integers(max(0, 101 - 2 * prop_ms),
                                         max(0, 99 - prop_ms)))),
              draw(st.integers(0, 300)))
             for _ in range(n)]
    buffer_pkts = draw(st.integers(min_value=1, max_value=20))
    # a horizon in µs: packets serialized before it may arrive after it
    horizon_s = draw(st.integers(400_000, 2_500_000)) / 1e6
    return config(prop_ms, flows, buffer_pkts, horizon_s)


@settings(deadline=None)
@given(scenarios())
def test_folded_arrival_matches_three_event_reference(cfg):
    assert outputs(cfg) == reference_outputs(cfg)


def test_ack_and_sample_tick_tie_at_60_ms():
    cfg = config(60, [("reno", 0, 0), ("ledbat", 0, 0)], horizon_s=20.0)
    reference = reference_outputs(cfg)
    assert outputs(cfg) == reference
    # the directed case is sharp: without the relay the tie breaks the
    # other way and the cwnd trace moves
    assert naive_fold_outputs(cfg) != reference
