"""Endpoint unit tests: cumulative acking, fast retransmit, go-back-N
after a timeout, the RFC 6298 estimator and sub-packet window clocking."""

import pytest

from lbesim.engine import Simulator
from lbesim.controllers import RenoController
from lbesim.network import BottleneckLink
from lbesim.transport import (FlowEndpoint, MIN_RTO, ProtocolFault)


class NullController:
    """Leaves cwnd alone; used to isolate endpoint mechanics."""

    protocol = "null"
    inflate_on_dupack = False
    floor = 1.0

    def on_ack(self, flow, rtt, owd):
        pass

    def on_loss(self, flow, kind):
        pass


def make_flow(controller=None, capacity=10e6, delay=0.025, buffer_pkts=100):
    sim = Simulator()
    link = BottleneckLink(sim, capacity, delay, buffer_pkts)
    f = FlowEndpoint(sim, link, flow_id=0,
                     controller=controller or RenoController())
    link.connect(0, f.on_data_arrival, f.pkt_size)
    return sim, link, f


def conservation_ok(f):
    return f.packets_sent == f.delivered_pkts + f.packets_dropped + f.in_network


def test_single_flow_fills_the_link():
    sim, link, f = make_flow()
    f.start()
    sim.run_until(5.0)
    assert f.delivered_pkts > 1000
    # goodput counts exactly the new in-order bytes the receiver accepted
    assert sum(f.window_bytes.values()) == f.rx_next * f.pkt_size
    assert conservation_ok(f)


def test_loss_recovery_with_small_buffer():
    sim, link, f = make_flow(buffer_pkts=10)
    f.start()
    sim.run_until(10.0)
    assert f.packets_dropped > 0          # slow start overruns the buffer
    assert sum(f.window_bytes.values()) == f.rx_next * f.pkt_size
    assert conservation_ok(f)
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
    f.in_network = 3
    f.on_data_arrival((0, 1, 0.0), 0)
    assert f.rx_next == 0 and not f.window_bytes
    f.on_data_arrival((0, 2, 0.0), 0)
    f.on_data_arrival((0, 0, 0.0), 0)
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


def test_sub_packet_window_sends_about_cwnd_per_rtt():
    sim, link, f = make_flow(controller=NullController())
    log = []
    sim.trace = log.append
    f.cwnd = 0.25
    f.fractional_credit = 1.0  # seed the first packet
    f.start()
    sim.run_until(2.0)
    # cwnd = 1/4 means roughly one packet every 4 RTTs (RTT about 51 ms)
    assert 6 <= f.packets_sent <= 16
    assert conservation_ok(f)
    # the credit accrues on its own timer kind
    assert any(line.endswith(" CreditTick credit-flow0") for line in log)


def test_rto_moved_by_acks_fires_once_at_the_last_deadline():
    sim, link, f = make_flow(controller=NullController())
    f.cwnd = 4.0
    f.start()
    sim.run_until(1.0)
    link.buffer_pkts = 0  # from now on every new packet is dropped
    timer = f._rto_timer
    deadlines = []
    deliver_ack = f.on_ack_arrival

    def on_ack_arrival(*a):
        deliver_ack(*a)
        assert f._rto_timer is timer  # moved in place, not replaced
        deadlines.append(timer[0])

    f.on_ack_arrival = on_ack_arrival
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
    f.fractional_credit = 0.0
    sim.run_until(8.0)
    # every packet ever sent has been delivered; nothing is in flight
    assert f.in_network == 0
    assert f.packets_sent == f.delivered_pkts
    assert not link.queue and link.in_service is None
