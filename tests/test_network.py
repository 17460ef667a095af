"""Bottleneck link unit tests: serialization timing, drop-tail behaviour,
pre-decision backlog counting, the sampled queue trace and the delay-only
return path.

Timing oracles for the default dumbbell (10 Mbit/s, 1500 B packets,
25 ms one-way propagation): serialization = 1500*8/10e6 = 1.2 ms, so the
first packet arrives at 26.2 ms."""

import pytest

from lbesim.engine import NS_PER_S, Simulator
from lbesim.harness import (FlowConfig, ScenarioConfig, run_scenario,
                            write_traces)
from lbesim.network import BottleneckLink, return_path_send


def make_link(sim, capacity=10e6, delay=0.025, buffer_pkts=100):
    return BottleneckLink(sim, capacity, delay, buffer_pkts)


def pkt(seq, flow=0):
    return (flow, seq, 0.0)  # (flow_id, seq, sent_at)


def test_serialization_time():
    sim = Simulator()
    link = make_link(sim)
    assert link.serialization_s(1500) == pytest.approx(1.2e-3)
    assert link.serialization_s(40) == pytest.approx(32e-6)


def test_first_packet_arrives_after_serialization_plus_propagation():
    sim = Simulator()
    link = make_link(sim)
    handed = []
    link.connect(0, lambda p, at_ns: handed.append((sim.now, at_ns, p[1])),
                 1500)
    assert link.enqueue(pkt(0)) is True
    sim.run_until(1.0)
    # handed over when accepted, with its arrival time
    assert handed == [(0.0, 26_200_000, 0)]


def test_back_to_back_packets_are_spaced_by_serialization():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.connect(0, lambda p, at_ns: arrivals.append((at_ns / NS_PER_S, p[1])),
                 1500)
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
    link.connect(0, lambda p, at_ns: None, 1500)
    accepted = [link.enqueue(pkt(i)) for i in range(7)]
    # packet 0 moves straight to the transmitter and frees its slot, the
    # next five fill the buffer, the seventh is tail-dropped
    assert accepted == [True] * 6 + [False]
    assert link.total_enqueued == 6
    assert link.total_dropped == 1
    assert link.backlog() == 5
    # occupancy is sampled before each insertion decision, drops
    # included: 0, 0, 1, 2, 3, 4, 5
    assert link.backlog_sum == 15
    assert link.backlog_peak == 5
    # the link keeps no per-enqueue series
    assert not hasattr(link, "queue_samples")


def test_dropped_packet_is_never_delivered():
    sim = Simulator()
    link = make_link(sim, buffer_pkts=2)
    arrivals = []
    link.connect(0, lambda p, at_ns: arrivals.append(p[1]), 1500)
    for i in range(5):
        link.enqueue(pkt(i))
    sim.run_until(1.0)
    assert arrivals == [0, 1, 2]  # seq 3 and 4 were tail-dropped
    assert link.total_dropped == 2


def test_queue_drains_and_link_goes_idle():
    sim = Simulator()
    link = make_link(sim)
    handed = []
    link.connect(0, lambda p, at_ns: handed.append(at_ns), 1500)
    for i in range(4):
        link.enqueue(pkt(i))
    assert link.backlog() == 3
    sim.run_until(3_600_001 / NS_PER_S)  # the last one started at 3.6 ms
    assert link.backlog() == 0
    sim.run_until(4_800_000 / NS_PER_S)  # and finishes at 4.8 ms: still busy
    link.enqueue(pkt(4))  # queues behind it: finishes at 6.0 ms
    assert handed[-1] == 31_000_000
    sim.run_until(1.0)
    assert link.backlog() == 0
    link.enqueue(pkt(5))  # idle: straight to the transmitter
    assert handed[-1] == 1_026_200_000


def test_a_packet_waits_through_the_nanosecond_its_service_starts():
    sim = Simulator()
    link = make_link(sim)
    link.connect(0, lambda p, at_ns: None, 1500)
    link.enqueue(pkt(0))  # straight to the transmitter
    link.enqueue(pkt(1))  # starts when packet 0 finishes, at 1.2 ms
    assert link.backlog() == 1
    sim.run_until(1_200_000 / NS_PER_S)
    assert sim.now_ns == 1_200_000 and link.backlog() == 1
    sim.run_until(1_200_001 / NS_PER_S)
    assert sim.now_ns == 1_200_001 and link.backlog() == 0


def test_return_path_is_pure_delay():
    sim = Simulator()
    arrivals = []
    return_path_send(sim, 0, 25_000_000, lambda: arrivals.append(sim.now))
    sim.run_until(1.0)
    assert arrivals == [pytest.approx(0.025)]


def test_return_path_starts_at_the_data_arrival():
    sim = Simulator()
    arrivals = []
    # sent now for a data packet that reaches the receiver at 40 ms
    return_path_send(sim, 40_000_000, 25_000_000, lambda: arrivals.append(sim.now_ns))
    stats = sim.run_until(0.050)
    assert arrivals == [] and (stats.events_processed, stats.pending) == (0, 1)
    sim.run_until(1.0)
    assert arrivals == [65_000_000]


def test_return_path_never_contends_with_forward_traffic():
    sim = Simulator()
    link = make_link(sim, buffer_pkts=2)
    link.connect(0, lambda p, at_ns: None, 1500)
    for i in range(3):  # keep the forward link busy
        link.enqueue(pkt(i))
    arrivals = []
    return_path_send(sim, 0, 10_000_000, lambda: arrivals.append(sim.now))
    sim.run_until(1.0)
    assert arrivals == [pytest.approx(0.010)]


def test_write_queue_csv_format(tmp_path):
    cfg = ScenarioConfig(horizon_s=1.0, flows=[FlowConfig("reno"),
                                               FlowConfig("reno")])
    r = run_scenario(cfg, traces=True)
    paths = write_traces(str(tmp_path), r.sample_times, r.cwnd_traces,
                         r.queue_samples)
    assert paths[-1] == str(tmp_path / "queue.csv")
    lines = (tmp_path / "queue.csv").read_text().splitlines()
    cwnd_lines = (tmp_path / "flow0_cwnd.csv").read_text().splitlines()
    assert lines[0] == "time_s,backlog_pkts"
    assert len(lines) == len(cwnd_lines) == 12  # header + 0.0 .. 1.0 s
    assert lines[1:] == ["%.6f,%d" % s
                         for s in zip(r.sample_times, r.queue_samples)]
    # one row per cwnd row, at the same time
    assert ([l.split(",")[0] for l in lines[1:]]
            == ["%.6f" % float(l.split(",")[0]) for l in cwnd_lines[1:]])
    # at t = 0 each flow has sent one packet: the first went straight to
    # the transmitter, the second waits
    assert lines[1] == "0.000000,1"
