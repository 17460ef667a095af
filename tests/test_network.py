"""Bottleneck link unit tests: serialization timing, drop-tail behaviour,
pre-decision backlog counting, the two-integer FIFO against a deque of
service starts, the sampled queue trace and the delay-only return path.

Timing oracles for the default dumbbell (10 Mbit/s, 1500 B packets,
25 ms one-way propagation): serialization = 1500*8/10e6 = 1.2 ms, so the
first packet arrives at 26.2 ms. The link keeps no clock, so its tests pass
each time in ns; only the return path needs a Simulator."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbesim.engine import NS_PER_S, Simulator
from lbesim.harness import (FlowConfig, ScenarioConfig, run_scenario,
                            write_traces)
from lbesim.network import BottleneckLink, return_path_send


def make_link(capacity=10e6, delay=0.025, buffer_pkts=100):
    return BottleneckLink(capacity, delay, buffer_pkts)


def test_serialization_time():
    assert make_link().pkt_size == 1500
    link = BottleneckLink(10e6, 0.025, 100, pkt_size_bytes=40)
    assert link.pkt_size == 40
    # 40 B take 32 us at 10 Mbit/s, then 25 ms of propagation
    assert [link.enqueue(0), link.enqueue(0)] == [25_032_000, 25_064_000]


def test_first_packet_arrives_after_serialization_plus_propagation():
    link = make_link()
    # the arrival time is known when the link accepts the packet
    assert link.enqueue(0) == 26_200_000
    assert link.enqueue(1_000_000_000) == 1_026_200_000  # idle again


def test_back_to_back_packets_are_spaced_by_serialization():
    link = make_link()
    times = [link.enqueue(0) / NS_PER_S for _ in range(3)]
    assert times == sorted(times)  # FIFO order preserved
    assert times[0] == pytest.approx(0.0262)
    assert times[1] - times[0] == pytest.approx(1.2e-3)
    assert times[2] - times[1] == pytest.approx(1.2e-3)


def test_drop_tail_and_transmitting_packet_excluded_from_backlog():
    link = make_link(buffer_pkts=5)
    accepted = [link.enqueue(0) is not None for _ in range(7)]
    # packet 0 moves straight to the transmitter and frees its slot, the
    # next five fill the buffer, the seventh is tail-dropped
    assert accepted == [True] * 6 + [False]
    assert link.total_enqueued == 6
    assert link.total_dropped == 1
    assert link.backlog(0) == 5
    # occupancy is sampled before each insertion decision, drops
    # included: 0, 0, 1, 2, 3, 4, 5
    assert link.backlog_sum == 15
    assert link.backlog_peak == 5
    # the link keeps no per-enqueue series
    assert not hasattr(link, "queue_samples")


def test_dropped_packet_is_never_delivered():
    link = make_link(buffer_pkts=2)
    arrivals = [link.enqueue(0) for _ in range(5)]
    # seq 3 and 4 were tail-dropped: no arrival time, so nothing to hand
    # to a receiver, and they leave no trace in the FIFO
    assert arrivals == [26_200_000, 27_400_000, 28_600_000, None, None]
    assert link.total_dropped == 2
    assert link._busy_until == 3_600_000


def test_queue_drains_and_link_goes_idle():
    link = make_link()
    for _ in range(4):
        link.enqueue(0)
    assert link.backlog(0) == 3
    assert link.backlog(3_600_001) == 0  # the last one started at 3.6 ms
    # and finishes at 4.8 ms: still busy, so the next queues behind it and
    # finishes at 6.0 ms
    assert link.enqueue(4_800_000) == 31_000_000
    assert link.backlog(1_000_000_000) == 0
    # idle: straight to the transmitter
    assert link.enqueue(1_000_000_000) == 1_026_200_000


def test_a_packet_waits_through_the_nanosecond_its_service_starts():
    link = make_link()
    link.enqueue(0)  # straight to the transmitter
    link.enqueue(0)  # starts when packet 0 finishes, at 1.2 ms
    assert link.backlog(0) == 1
    assert link.backlog(1_200_000) == 1
    assert link.backlog(1_200_001) == 0


class DequeLink:
    """The FIFO as a deque of the waiting packets' service starts: the
    reference for the link's two integers. Times are in ns."""

    def __init__(self, tx_ns, prop_ns, buffer_pkts):
        self.now_ns, self.tx_ns, self.prop_ns = 0, tx_ns, prop_ns
        self.buffer_pkts = buffer_pkts
        self.busy_until = -1
        self.starts = deque()
        self.backlog_sum = self.backlog_peak = 0

    def backlog(self):
        while self.starts and self.starts[0] < self.now_ns:
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
        if start < self.now_ns:
            start = self.now_ns
        else:
            self.starts.append(start)
        self.busy_until = start + self.tx_ns
        return self.busy_until + self.prop_ns


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
    # 125 B are 1,000 bits, so the capacity sets tx_ns exactly
    link = BottleneckLink(1e12 / tx_ns, 1e-6, buffer_pkts, pkt_size_bytes=125)
    assert link._tx_ns == tx_ns
    ref = DequeLink(tx_ns, 1000, buffer_pkts)
    for step in steps:
        if step[0] == "burst":
            for _ in range(step[1]):
                assert link.enqueue(ref.now_ns) == ref.enqueue()
        else:
            if step[0] == "by":
                to = ref.now_ns + step[1]
            elif step[0] == "start":
                ahead = [t for t in ref.starts if t >= ref.now_ns]
                to = ahead[step[1] % len(ahead)] + step[2] if ahead else 0
            else:
                to = ref.busy_until + step[1]
            ref.now_ns = max(ref.now_ns, to)
        assert link.backlog(ref.now_ns) == ref.backlog()
        assert (link.backlog_sum, link.backlog_peak) == (ref.backlog_sum,
                                                         ref.backlog_peak)


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
    link = make_link(buffer_pkts=2)
    for _ in range(3):  # keep the forward link busy
        link.enqueue(sim.now_ns)
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
