"""Endpoint unit tests: cumulative acking, fast retransmit, go-back-N
after a timeout, the RFC 6298 estimator and the deadline acks move, the
horizon, and a flow draining once its window closes."""

import pytest

from lbesim.engine import Simulator
from lbesim.controllers import RenoController
from lbesim.network import BottleneckLink
from lbesim.transport import (FlowEndpoint, MIN_RTO, ProtocolFault)


class NullController:
    """Leaves cwnd alone; used to isolate endpoint mechanics."""

    protocol = "null"
    inflate_on_dupack = False

    def on_ack(self, flow, rtt, owd):
        pass

    def on_loss(self, flow, kind):
        pass


class TappedLink(BottleneckLink):
    """The link, keeping every arrival time it returns."""

    __slots__ = ("arrivals",)

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []

    def enqueue(self, now_ns):
        at_ns = super().enqueue(now_ns)
        if at_ns is not None:
            self.arrivals.append(at_ns)
        return at_ns


def make_flow(controller=None, capacity=10e6, delay=0.025, buffer_pkts=100):
    sim = Simulator()
    link = TappedLink(capacity, delay, buffer_pkts)
    f = FlowEndpoint(sim, link, flow_id=0,
                     controller=controller or RenoController())
    return sim, link, f


def event_log(sim):
    """Log sim's events from now on, into the list returned."""
    log = []
    sim.trace = log.append
    return log


def conservation_ok(f, log):
    """Each packet the receiver took has its ack landed (a PacketArrival in
    the event log) or still on the return path, and it took none that the
    link did not accept."""
    landed = sum(line.endswith(" PacketArrival ack-flow%d" % f.flow_id)
                 for line in log)
    return landed + len(f._acks) == f.delivered_pkts and f.in_network >= 0


def test_single_flow_fills_the_link():
    sim, link, f = make_flow()
    log = event_log(sim)
    f.start()
    sim.run_until(5.0)
    assert f.delivered_pkts > 1000
    # goodput counts exactly the new in-order bytes the receiver accepted
    assert sum(f.window_bytes.values()) == f.rx_next * link.pkt_size
    assert conservation_ok(f, log)


def test_loss_recovery_with_small_buffer():
    sim, link, f = make_flow(buffer_pkts=10)
    log = event_log(sim)
    f.start()
    sim.run_until(10.0)
    assert f.packets_dropped > 0          # slow start overruns the buffer
    assert sum(f.window_bytes.values()) == f.rx_next * link.pkt_size
    assert conservation_ok(f, log)
    # recovery keeps most of the pipe despite the slow-start overshoot
    assert sum(f.window_bytes.values()) * 8.0 / 10.0 > 0.6 * 10e6


def test_timeout_triggers_go_back_n():
    sim, link, f = make_flow()
    f.cwnd = 8.0
    f.snd_una, f.snd_next, f.rtx_next = 5, 10, 10
    f.srtt = 0.05
    f._on_rto()
    assert f.cwnd == 1.0
    assert f.ssthresh == max(5 / 2.0, 2.0)
    assert f.rto_backoff == 2
    # resend restarts from the lowest unacked sequence number
    assert f.packets_sent == 1
    assert f.rtx_next == 6
    f._on_rto()
    assert f.rto_backoff == 4


def test_rto_does_nothing_when_everything_is_acked():
    sim, link, f = make_flow()
    f.cwnd = 7.0
    f._on_rto()
    assert f.cwnd == 7.0
    assert f.packets_sent == 0
    assert f._rto_timer is None
    # a firing with nothing in flight arms no timer and sends nothing
    f._arm_rto()
    log = event_log(sim)
    assert sim.run_until(5.0).pending == 0
    assert log == ["1.000000000 RtoTimer flow0"]
    assert not Simulator.pending(f._rto_timer)
    assert (f.cwnd, f.rto_backoff, f.packets_sent) == (7.0, 1, 0)


def ack(ack_no, now=0.0):
    """Arguments of on_ack_arrival: ack number, one-way delay, echo."""
    return ack_no, 0.026, now


def test_three_dupacks_trigger_fast_retransmit_and_recovery():
    sim, link, f = make_flow(controller=RenoController())
    f.cwnd = 10.0
    f.ssthresh = 5.0
    f.snd_una, f.snd_next, f.rtx_next = 0, 10, 10
    for _ in range(2):
        f.on_ack_arrival(*ack(0))
    assert f.dupacks == 2 and f.packets_sent == 0
    f.on_ack_arrival(*ack(0))  # third duplicate
    assert f.packets_sent == 1          # fast retransmit of snd_una
    assert f.in_recovery
    assert f.ssthresh == 5.0
    assert f.cwnd == 5.0 + 3.0          # halved then inflated
    f.on_ack_arrival(*ack(0))            # fourth duplicate inflates further
    assert f.cwnd == 9.0
    f.on_ack_arrival(*ack(10))           # recovery ends, window deflates
    assert not f.in_recovery
    # deflated to ssthresh, then one congestion-avoidance increment
    assert f.cwnd == pytest.approx(5.0 + 1.0 / 5.0)
    assert f.snd_una == 10


def test_dupacks_without_outstanding_data_are_ignored():
    sim, link, f = make_flow()
    for _ in range(4):
        f.on_ack_arrival(*ack(0))
    assert f.dupacks == 0
    assert f.packets_sent == 0


def test_ack_beyond_highest_sent_faults():
    sim, link, f = make_flow()
    with pytest.raises(ProtocolFault):
        f.on_ack_arrival(*ack(3))


def test_receiver_reorders_out_of_order_arrivals():
    sim, link, f = make_flow()
    f.on_data_arrival(1, 0.0, 0)
    assert f.rx_next == 0 and not f.window_bytes
    f.on_data_arrival(2, 0.0, 0)
    f.on_data_arrival(0, 0.0, 0)
    # the hole fills and the cumulative ack jumps over the buffered packets
    assert f.rx_next == 3
    assert sum(f.window_bytes.values()) == 3 * 1500
    assert not f.rx_ooo


def test_packet_arriving_after_the_horizon_is_not_received():
    sim, link, f = make_flow()
    # packet 0 finishes serializing at 1.2 ms and arrives at 26.2 ms
    f.horizon_ns = 26_199_999
    log = []
    sim.trace = log.append
    f.start()
    stats = sim.run_until(0.5)
    assert f.packets_sent == 1 and f.in_network == 1
    assert link.arrivals == [26_200_000]
    assert f.delivered_pkts == 0 and not f.window_bytes
    # no ack: the one pending event is the retransmission timer
    assert stats.pending == 1 and not f._acks
    assert not any(" PacketArrival " in line for line in log)


def test_packet_arriving_at_the_horizon_is_received():
    sim, link, f = make_flow()
    f.horizon_ns = 26_200_000
    log = []
    sim.trace = log.append
    f.start()
    sim.run_until(0.5)
    assert f.delivered_pkts == 1 and sum(f.window_bytes.values()) == 1500
    # the ack still lands, one return delay after the arrival; every later
    # packet arrives after the horizon
    assert "0.051200000 PacketArrival ack-flow0" in log
    assert f.packets_sent > 1 and f.in_network == f.packets_sent - 1


def test_an_arrival_at_0_ns_is_delivered_not_dropped():
    class InstantLink(BottleneckLink):  # every packet arrives as it is sent
        __slots__ = ()

        def enqueue(self, now_ns):
            return None if super().enqueue(now_ns) is None else now_ns

    sim = Simulator()
    f = FlowEndpoint(sim, InstantLink(10e6, 0.025, 100), 0, RenoController())
    f.start()
    sim.run_until(0.0)
    assert (f.packets_sent, f.packets_dropped, f.delivered_pkts) == (1, 0, 1)
    assert f.rx_next == 1 and len(f._acks) == 1


def test_rto_estimator_matches_rfc6298():
    sim, link, f = make_flow()
    srtt = rttvar = None
    for rtt in (0.052, 0.055, 0.049, 0.120, 0.051):
        # nothing is in flight, so ack 0 only feeds the estimator an RTT
        # sample: sim.now is 0 and the echoed send time is -rtt
        f.on_ack_arrival(0, 0.0, -rtt)
        assert (f.snd_una, f.dupacks, f.packets_sent) == (0, 0, 0)
        if srtt is None:
            srtt, rttvar = rtt, rtt / 2.0
        else:
            rttvar = 0.75 * rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        assert f.srtt == pytest.approx(srtt)
        assert f.rttvar == pytest.approx(rttvar)
        assert f.rto == pytest.approx(max(srtt + 4.0 * rttvar, MIN_RTO))


def test_rto_moved_by_acks_fires_once_at_the_last_deadline(monkeypatch):
    sim, link, f = make_flow(controller=NullController())
    f.cwnd = 4.0
    f.start()
    sim.run_until(1.0)
    link.buffer_pkts = 0  # from now on every new packet is dropped
    timer = f._rto_timer
    deadlines = []
    deliver_ack = FlowEndpoint.on_ack_arrival

    def on_ack_arrival(flow, *a):
        deliver_ack(flow, *a)
        assert f._rto_timer is timer  # moved in place, not replaced
        deadlines.append(timer[0])

    # FlowEndpoint has __slots__, so the method is replaced on the class
    monkeypatch.setattr(FlowEndpoint, "on_ack_arrival", on_ack_arrival)
    log = []
    sim.trace = log.append
    sim.run_until(1.0 + 1.5 * MIN_RTO)
    # the acks still in flight each pushed the deadline further out
    assert len(deadlines) >= 3
    assert deadlines == sorted(set(deadlines))
    fired = [line for line in log if " RtoTimer " in line]
    assert fired == ["%.9f RtoTimer flow0" % (deadlines[-1] / 1e9)]


def test_flow_start_time_is_honoured():
    sim, link, f = make_flow()
    f.start_at = 1.0
    f.start()
    sim.run_until(0.9)
    assert f.packets_sent == 0
    sim.run_until(1.5)
    assert f.packets_sent > 0


def test_flow_drains_when_window_closes():
    sim, link, f = make_flow(buffer_pkts=10000)
    f.ssthresh = 20.0  # keep the standing queue small; the buffer never drops
    f.start()
    sim.run_until(5.0)
    assert f.packets_dropped == 0
    f.controller = NullController()
    f.cwnd = 0.0
    sim.run_until(8.0)
    # every packet ever sent has been delivered; nothing is in flight
    assert f.in_network == 0
    assert f.packets_sent == f.delivered_pkts
    assert link.backlog(sim.now_ns) == 0
    assert link._busy_until < sim.now_ns  # the link went idle


def test_packets_arriving_after_the_horizon_stay_in_the_network():
    sim, link, f = make_flow(buffer_pkts=20)
    f.horizon_ns = 2_000_000_000
    log = event_log(sim)
    f.start()
    sim.run_until(2.0)
    late = sum(1 for t in link.arrivals if t > f.horizon_ns)
    # a window in flight at the horizon, losses included
    assert late > 1 and f.packets_dropped > 0
    assert f.in_network == late
    assert f.delivered_pkts == len(link.arrivals) - late
    assert conservation_ok(f, log)
