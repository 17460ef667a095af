"""TCP-LP's inference phase as a deadline, against the event that used to
end it.

EventLp is the earlier controller, kept as an independent reference: it
enters the phase by scheduling an InferencePhaseEnd event one phase ahead
and leaves it when that event fires, or at once, cancelling the event, on
a collapse or a timeout. LpController keeps only the deadline and freezes
the window while the clock is before it. The event dispatches ahead of
every ack that lands at its nanosecond when the phase lasts at least the
flow's return delay, which holds for inference_rtts >= 1 (README, Config
grammar), so there the two must give the same outputs."""

import pytest
from conftest import books_also_owning, built
from hypothesis import given, settings
from hypothesis import strategies as st

from lbesim import engine, harness
from lbesim.controllers import LpController
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario
from oracles import StubFlow, lp_inferring

INFERENCE_PHASE_END = "InferencePhaseEnd"


class EventLp(LpController):
    """LpController whose inference phase ends with an event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase = "normal"
        self._inference_handle = None

    def on_ack(self, flow, rtt, owd):
        d_ewma = self.d_ewma
        if d_ewma is None:
            d_ewma = owd
        else:
            d_ewma = (1.0 - self.alpha) * d_ewma + self.alpha * owd
        self.d_ewma = d_ewma
        d_min = self.d_min
        if owd < d_min:
            d_min = self.d_min = owd
        d_max = self.d_max
        if owd > d_max:
            d_max = self.d_max = owd
        level = d_ewma > d_min + (d_max - d_min) * self.delta
        indication = level and self.armed
        self.armed = not level
        if self.phase == "inference":
            if indication:
                self._collapse(flow)
            return  # window frozen while inferring
        if indication:
            self._react(flow, rtt)
        elif flow.cwnd < flow.ssthresh:
            flow.cwnd += 1.0
        else:
            flow.cwnd += 1.0 / flow.cwnd

    def _react(self, flow, rtt):
        flow.ssthresh = max(flow.cwnd / 2.0, 2.0)
        flow.cwnd = max(flow.ssthresh, 1.0)
        self.phase = "inference"
        duration = self.inference_rtts * (flow.srtt if flow.srtt else rtt)
        self._inference_handle = flow.sim.schedule_at_ns(
            flow.sim.now_ns + engine.to_ns(duration), INFERENCE_PHASE_END,
            self._inference_end, label="flow%s" % flow.flow_id)

    def _collapse(self, flow):
        flow.ssthresh = 2.0
        flow.cwnd = 1.0
        self._exit_inference(flow)

    def _inference_end(self):
        self._inference_handle = None
        self.phase = "normal"

    def _exit_inference(self, flow):
        if self._inference_handle is not None:
            flow.sim.cancel(self._inference_handle)
            self._inference_handle = None
        self.phase = "normal"

    def on_loss(self, flow, kind):
        self.armed = True
        if kind == "dupack":
            if self.phase == "inference":
                self._collapse(flow)
            else:
                self._react(flow, flow.srtt if flow.srtt else 0.05)
        else:
            self._exit_inference(flow)


def outputs(cfg, event_log=None):
    """The report row and the cwnd traces."""
    r = run_scenario(cfg, traces=True, event_log=event_log)
    return r.report.csv_row(), r.sample_times, r.cwnd_traces


def reference_outputs(cfg, event_log=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "LpController", EventLp)  # make_controller's
        controllers = built(mp, EventLp)
        books_also_owning(mp, lambda: sum(c._inference_handle is not None
                                          for c in controllers))
        return outputs(cfg, event_log)


# Small buffers make delay indications, losses and timeouts common, so
# phases begin, time out, collapse and end at a timeout; seeded start
# offsets put phase ends and acks of different flows at unrelated times.
@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 4))
    protocols = [draw(st.sampled_from(("reno", "lp", "nice", "ledbat")))
                 for _ in range(n)]
    protocols[draw(st.integers(0, n - 1))] = "lp"
    flows = [FlowConfig(
        proto,
        {"inference_rtts": draw(st.floats(1.0, 6.0))} if proto == "lp" else {},
        extra_return_delay_s=draw(st.sampled_from((0.0, 0.01, 0.1))),
        start_at=draw(st.integers(0, 299_999)) / 1e6)
        for proto in protocols]
    return ScenarioConfig(
        fwd_prop_delay_s=draw(st.sampled_from((0.005, 0.025, 0.06))),
        buffer_pkts=draw(st.integers(2, 20)),
        horizon_s=draw(st.sampled_from((2.0, 4.0))), flows=flows)


@settings(deadline=None, max_examples=300)
@given(scenarios())
def test_deadline_matches_event_driven_reference(cfg):
    assert outputs(cfg) == reference_outputs(cfg)


def test_reference_schedules_and_cancels_inference_ends():
    # The reference must not quietly become the deadline: its phases end
    # by events, some of which a collapse or a timeout cancels.
    cfg = ScenarioConfig(buffer_pkts=5, horizon_s=10.0, flows=[
        FlowConfig("lp"), FlowConfig("lp", start_at=0.2), FlowConfig("reno")])
    log = []
    got = reference_outputs(cfg, log.append)
    fired = sum(" %s " % INFERENCE_PHASE_END in line for line in log)
    assert fired > 10
    assert got == outputs(cfg)


def test_window_is_frozen_until_the_nanosecond_before_the_deadline():
    ctl = LpController(inference_rtts=3.0)
    flow = StubFlow(cwnd=10.0, ssthresh=2.0)
    flow.sim.run_until(1.5)
    ctl._react(flow)  # srtt 50 ms: the phase lasts 150 ms
    assert ctl.inference_end_ns == 1_650_000_000
    flow.sim.run_until(1.649999999)
    assert lp_inferring(ctl, flow)
    ctl.on_ack(flow, 0.055, 0.03)
    assert flow.cwnd == 5.0  # frozen
    flow.sim.run_until(1.65)
    assert not lp_inferring(ctl, flow)
    ctl.on_ack(flow, 0.055, 0.03)
    assert flow.cwnd == 5.0 + 1.0 / 5.0  # grows again
