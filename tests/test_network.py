"""Bottleneck link unit tests: serialization timing, drop-tail behaviour,
pre-decision backlog counting, the two-integer FIFO against a deque of
service starts, the sampled queue trace and the delay-only return path.

Timing oracles for the default dumbbell (10 Mbit/s, 1500 B packets,
25 ms one-way propagation): serialization = 1500*8/10e6 = 1.2 ms, so the
first packet arrives at 26.2 ms."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert make_link(sim).pkt_size == 1500
    link = BottleneckLink(sim, 10e6, 0.025, 100, pkt_size_bytes=40)
    assert link.pkt_size == 40
    handed = []
    link.connect(0, lambda p, at_ns: handed.append(at_ns))
    link.enqueue(pkt(0))
    link.enqueue(pkt(1))
    # 40 B take 32 us at 10 Mbit/s, then 25 ms of propagation
    assert handed == [25_032_000, 25_064_000]


def test_first_packet_arrives_after_serialization_plus_propagation():
    sim = Simulator()
    link = make_link(sim)
    handed = []
    link.connect(0, lambda p, at_ns: handed.append((sim.now, at_ns, p[1])))
    assert link.enqueue(pkt(0)) is True
    sim.run_until(1.0)
    # handed over when accepted, with its arrival time
    assert handed == [(0.0, 26_200_000, 0)]


def test_back_to_back_packets_are_spaced_by_serialization():
    sim = Simulator()
    link = make_link(sim)
    arrivals = []
    link.connect(0, lambda p, at_ns: arrivals.append((at_ns / NS_PER_S, p[1])))
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
    link.connect(0, lambda p, at_ns: None)
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
    link.connect(0, lambda p, at_ns: arrivals.append(p[1]))
    for i in range(5):
        link.enqueue(pkt(i))
    sim.run_until(1.0)
    assert arrivals == [0, 1, 2]  # seq 3 and 4 were tail-dropped
    assert link.total_dropped == 2


def test_queue_drains_and_link_goes_idle():
    sim = Simulator()
    link = make_link(sim)
    handed = []
    link.connect(0, lambda p, at_ns: handed.append(at_ns))
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
    link.connect(0, lambda p, at_ns: None)
    link.enqueue(pkt(0))  # straight to the transmitter
    link.enqueue(pkt(1))  # starts when packet 0 finishes, at 1.2 ms
    assert link.backlog() == 1
    sim.run_until(1_200_000 / NS_PER_S)
    assert sim.now_ns == 1_200_000 and link.backlog() == 1
    sim.run_until(1_200_001 / NS_PER_S)
    assert sim.now_ns == 1_200_001 and link.backlog() == 0


class DequeLink:
    """The FIFO as a deque of the waiting packets' service starts: the
    reference for the link's two integers. Times are in ns."""

    def __init__(self, clock, tx_ns, prop_ns, buffer_pkts):
        self.clock, self.tx_ns, self.prop_ns = clock, tx_ns, prop_ns
        self.buffer_pkts = buffer_pkts
        self.busy_until = -1
        self.starts = deque()
        self.backlog_sum = self.backlog_peak = 0

    def backlog(self):
        while self.starts and self.starts[0] < self.clock.now_ns:
            self.starts.popleft()
        return len(self.starts)

    def enqueue(self):
        """The arrival time of an accepted packet, None for a drop."""
        depth = self.backlog()
        self.backlog_sum += depth
        self.backlog_peak = max(self.backlog_peak, depth)
        if depth >= self.buffer_pkts:
            return None
        start = self.busy_until
        if start < self.clock.now_ns:
            start = self.clock.now_ns
        else:
            self.starts.append(start)
        self.busy_until = start + self.tx_ns
        return self.busy_until + self.prop_ns


class Clock:
    now_ns = 0


# A step is a burst of enqueues at the present nanosecond, or a clock
# advance: by a number of ns, onto one of the reference's waiting starts
# (or one ns either side), or onto the last finish (or one ns either side).
_link_steps = st.lists(st.one_of(
    st.tuples(st.just("burst"), st.integers(1, 7)),
    st.tuples(st.just("by"), st.integers(0, 3000)),
    st.tuples(st.just("start"), st.integers(0, 6), st.integers(-1, 1)),
    st.tuples(st.just("finish"), st.integers(-1, 1))), max_size=40)


@settings(max_examples=400, deadline=None)
@given(tx_ns=st.one_of(st.integers(1, 3), st.integers(1, 2000)),
       buffer_pkts=st.integers(1, 5), steps=_link_steps)
def test_two_integer_fifo_matches_a_deque_of_starts(tx_ns, buffer_pkts, steps):
    clock = Clock()
    # 125 B are 1,000 bits, so the capacity sets tx_ns exactly
    link = BottleneckLink(clock, 1e12 / tx_ns, 1e-6, buffer_pkts,
                          pkt_size_bytes=125)
    assert link._tx_ns == tx_ns
    ref = DequeLink(clock, tx_ns, 1000, buffer_pkts)
    handed = []
    link.connect(0, lambda p, at_ns: handed.append(at_ns))
    for step in steps:
        if step[0] == "burst":
            for _ in range(step[1]):
                want = ref.enqueue()
                assert link.enqueue(pkt(0)) is (want is not None)
                if want is not None:
                    assert handed.pop() == want
        else:
            if step[0] == "by":
                to = clock.now_ns + step[1]
            elif step[0] == "start":
                ahead = [t for t in ref.starts if t >= clock.now_ns]
                to = ahead[step[1] % len(ahead)] + step[2] if ahead else 0
            else:
                to = ref.busy_until + step[1]
            clock.now_ns = max(clock.now_ns, to)
        assert link.backlog() == ref.backlog()
        assert (link.backlog_sum, link.backlog_peak) == (ref.backlog_sum,
                                                         ref.backlog_peak)
    assert handed == []


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
    link.connect(0, lambda p, at_ns: None)
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
