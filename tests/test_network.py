"""Bottleneck link unit tests: serialization timing, drop-tail behaviour,
pre-decision queue sampling and the delay-only return path.

Timing oracles for the default dumbbell (10 Mbit/s, 1500 B packets,
25 ms one-way propagation): serialization = 1500*8/10e6 = 1.2 ms, so the
first packet arrives at 26.2 ms."""

import pytest

from lbesim.engine import Simulator
from lbesim.network import ACK_BYTES, BottleneckLink, Packet, return_path_send


def make_link(sim, capacity=10e6, delay=0.025, buffer_pkts=100):
    return BottleneckLink(sim, capacity, delay, buffer_pkts)


def pkt(seq, flow=0, size=1500):
    return Packet(flow, seq, size, 0.0)


def test_serialization_time():
    sim = Simulator()
    link = make_link(sim)
    assert link.serialization_s(1500) == pytest.approx(1.2e-3)
    assert link.serialization_s(ACK_BYTES) == pytest.approx(32e-6)


def test_first_packet_arrives_after_serialization_plus_propagation():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.on_deliver = lambda p: arrivals.append((sim.now, p.seq))
    assert link.enqueue(pkt(0)) is True
    sim.run_until(1.0)
    assert arrivals == [(pytest.approx(0.0262), 0)]


def test_back_to_back_packets_are_spaced_by_serialization():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.on_deliver = lambda p: arrivals.append((sim.now, p.seq))
    for i in range(3):
        link.enqueue(pkt(i))
    sim.run_until(1.0)
    times = [t for t, _ in arrivals]
    assert [s for _, s in arrivals] == [0, 1, 2]  # FIFO order preserved
    assert times[0] == pytest.approx(0.0262)
    assert times[1] - times[0] == pytest.approx(1.2e-3)
    assert times[2] - times[1] == pytest.approx(1.2e-3)


def test_drop_tail_and_transmitting_packet_excluded_from_backlog():
    sim = Simulator()
    link = make_link(sim, buffer_pkts=5)
    link.on_deliver = lambda p: None
    accepted = [link.enqueue(pkt(i)) for i in range(7)]
    # packet 0 moves straight to the transmitter and frees its slot, the
    # next five fill the buffer, the seventh is tail-dropped
    assert accepted == [True] * 6 + [False]
    assert link.total_enqueued == 6
    assert link.total_dropped == 1
    # occupancy is sampled before each insertion decision, drops included
    assert [d for _, d in link.queue_samples] == [0, 0, 1, 2, 3, 4, 5]


def test_dropped_packet_is_never_delivered():
    sim = Simulator()
    link = make_link(sim, buffer_pkts=2)
    arrivals = []
    link.on_deliver = lambda p: arrivals.append(p.seq)
    for i in range(5):
        link.enqueue(pkt(i))
    sim.run_until(1.0)
    assert arrivals == [0, 1, 2]  # seq 3 and 4 were tail-dropped
    assert link.total_dropped == 2


def test_queue_drains_and_link_goes_idle():
    sim = Simulator()
    link = make_link(sim)
    link.on_deliver = lambda p: None
    for i in range(4):
        link.enqueue(pkt(i))
    sim.run_until(1.0)
    assert not link.queue
    assert not link.busy


def test_queued_for_counts_per_flow():
    sim = Simulator()
    link = make_link(sim)
    link.on_deliver = lambda p: None
    link.enqueue(pkt(0, flow=0))  # goes to the transmitter
    link.enqueue(pkt(1, flow=0))
    link.enqueue(pkt(2, flow=1))
    link.enqueue(pkt(3, flow=1))
    assert link.queued_for(0) == 1
    assert link.queued_for(1) == 2


def test_return_path_is_pure_delay():
    sim = Simulator()
    arrivals = []
    ack = Packet(0, 0, ACK_BYTES, 0.0, is_ack=True, ack_no=1)
    return_path_send(sim, ack, 25_000_000, lambda a: arrivals.append(sim.now))
    sim.run_until(1.0)
    assert arrivals == [pytest.approx(0.025)]


def test_return_path_never_contends_with_forward_traffic():
    sim = Simulator()
    link = make_link(sim, buffer_pkts=2)
    link.on_deliver = lambda p: None
    for i in range(3):  # keep the forward link busy
        link.enqueue(pkt(i))
    arrivals = []
    ack = Packet(0, 0, ACK_BYTES, 0.0, is_ack=True, ack_no=1)
    return_path_send(sim, ack, 10_000_000, lambda a: arrivals.append(sim.now))
    sim.run_until(1.0)
    assert arrivals == [pytest.approx(0.010)]


def test_write_queue_csv_format(tmp_path):
    sim = Simulator()
    link = make_link(sim)
    link.on_deliver = lambda p: None
    link.enqueue(pkt(0))
    link.enqueue(pkt(1))
    path = tmp_path / "queue.csv"
    with open(path, "w") as fh:
        link.write_queue_csv(fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,backlog_pkts"
    # packet 0 went straight to the transmitter, so both samples saw an
    # empty buffer
    assert lines[1] == "0.000000,0"
    assert lines[2] == "0.000000,0"
