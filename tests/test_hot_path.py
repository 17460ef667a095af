"""The per-packet path, as the benchmark's tracer sees it and as it costs.

perfbench/tracer.py measures each layer by replacing entry points at class
or module level (README, Hot path). The first test wraps the same names the
same way and checks that each is called on every packet it covers, so
inlining one of them away fails here rather than silently zeroing a
per-layer metric. The second bounds the Python calls a packet costs; the
count is deterministic, so it needs no timing."""

import sys

from conftest import built

from lbesim import engine, network, transport
from lbesim.controllers import LedbatController, RenoController
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario

DUEL = [FlowConfig("reno"), FlowConfig("ledbat", {"tau_ms": 25.0})]


def counted(monkeypatch, owner, name, calls):
    """Replace owner.name with a wrapper that counts into calls[name]."""
    fn = getattr(owner, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_every_traced_name_is_called_on_every_packet_it_covers(monkeypatch):
    calls, handlers = {}, []
    links = built(monkeypatch, network.BottleneckLink)
    flows = built(monkeypatch, transport.FlowEndpoint)
    counted(monkeypatch, network.BottleneckLink, "enqueue", calls)
    # transport imported the function by name; the tracer patches that name
    counted(monkeypatch, transport, "return_path_send", calls)
    for name in ("start", "on_data_arrival", "on_ack_arrival"):
        counted(monkeypatch, transport.FlowEndpoint, name, calls)
    for cls in (RenoController, LedbatController):
        for name in ("on_ack", "on_loss"):
            counted(monkeypatch, cls, name, calls.setdefault(cls.protocol, {}))
    schedule_at_ns = engine.Simulator.schedule_at_ns
    dispatched = [0]

    def wrapping_schedule_at_ns(sim, at_ns, kind, fn, label=""):
        handlers.append(fn)

        def handler():
            dispatched[0] += 1
            fn()
        return schedule_at_ns(sim, at_ns, kind, handler, label)

    monkeypatch.setattr(engine.Simulator, "schedule_at_ns", wrapping_schedule_at_ns)
    log = []
    r = run_scenario(ScenarioConfig(horizon_s=5.0, flows=DUEL), event_log=log.append)

    [link] = links
    sent = sum(f.packets_sent for f in flows)
    arrived = sum(f.delivered_pkts for f in flows)
    assert calls["enqueue"] == sent > 0
    # packets still on the wire at the horizon are not handed over
    assert calls["on_data_arrival"] == arrived < link.total_enqueued
    assert calls["return_path_send"] == arrived
    assert calls["on_ack_arrival"] == sum(" PacketArrival " in l for l in log)
    assert calls["start"] == len(flows) == 2
    # schedule_at_ns saw every event, and each handler is lbesim's own
    assert dispatched[0] == r.run_stats.events_processed == len(log)
    assert all(fn.__module__.startswith("lbesim.") for fn in handlers)
    for proto in ("reno", "ledbat"):
        assert calls[proto]["on_ack"] > 0
    assert calls["reno"]["on_loss"] > 0


def test_calls_per_packet_sent_stay_within_budget(monkeypatch):
    # An ack that releases one packet runs _ack_arrive, on_ack_arrival,
    # reschedule, on_ack and try_send; try_send calls enqueue, which
    # returns the arrival time, and then on_data_arrival, which runs
    # return_path_send, schedule_from_ns and schedule_at_ns: 10 calls. The
    # run makes 9.66 per packet (77,104 calls for 7,984 packets); with
    # _emit, backlog() and _arm_rto on the path it made 12.66.
    flows = built(monkeypatch, transport.FlowEndpoint)
    cfg = ScenarioConfig(horizon_s=10.0, flows=DUEL).validate()
    n = [0]

    def profile(frame, event, arg):
        if event == "call":
            n[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_scenario(cfg)
    finally:
        sys.setprofile(previous)
    sent = sum(f.packets_sent for f in flows)
    assert sent > 7000
    assert n[0] / sent <= 10.0, "%d calls for %d packets" % (n[0], sent)
