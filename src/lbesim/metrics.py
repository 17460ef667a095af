"""Run-level performance metrics: bottleneck efficiency, TCP traffic
breakdown, Jain fairness (long- and short-term), normalized queue occupancy
and packet loss rate.

All functions are pure and operate on immutable counter snapshots taken
after a run. Throughput is goodput measured at the receiver, so efficiency
never exceeds one (up to header accounting noise).
"""

import math
from dataclasses import dataclass, field

WINDOW_S = 1.0  # fairness window: bytes arriving at t count in int(t / WINDOW_S)


@dataclass
class FlowCounters:
    flow_id: object
    protocol: str
    bytes_delivered: int          # new in-order bytes at the receiver
    packets_sent: int             # into the bottleneck, retransmits included
    packets_dropped: int
    window_bytes: dict = field(default_factory=dict)  # window index -> bytes


@dataclass
class MetricsReport:
    scenario_id: str
    params: dict
    eta: float
    tcp_pct: float | None         # None when no Reno flow is present
    f_lt: float | None
    f_st: float | None
    b_norm: float
    p_l: float
    per_flow: list                # (flow_id, protocol, throughput_bps)

    CSV_COLUMNS = ("scenario_id", "params", "eta", "tcp_pct", "f_lt", "f_st",
                   "b_norm", "p_l")  # then one throughput column per flow
    CSV_HEADER = ",".join(CSV_COLUMNS) + ",per_flow_throughput_bps..."

    def csv_row(self):
        """Stable, documented column order: scenario_id, params, eta,
        tcp_pct, f_lt, f_st, b_norm, p_l, then per-flow throughputs."""
        params = ";".join("%s=%s" % (k, _fmt(v))
                          for k, v in sorted(self.params.items()))
        return ",".join([self.scenario_id, params] + self.metric_cells())

    def metric_cells(self):
        """The metric columns of CSV_COLUMNS, then per-flow throughputs."""
        return ([_fmt(getattr(self, c)) for c in self.CSV_COLUMNS[2:]]
                + [_fmt(x) for _, _, x in self.per_flow])


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.10g" % v
    return str(v)


def flow_throughput(c, horizon_s):
    """Average goodput in bits/second over the run horizon."""
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    return c.bytes_delivered * 8.0 / horizon_s


def efficiency(flows, horizon_s, capacity_bps):
    """Aggregate throughput over capacity. Must not exceed 1.001."""
    if capacity_bps <= 0:
        raise ValueError("capacity must be positive")
    eta = sum(flow_throughput(c, horizon_s) for c in flows) / capacity_bps
    if eta > 1.001:
        raise ValueError("efficiency %.4f exceeds 1.001: accounting bug" % eta)
    return eta


def tcp_breakdown(flows, horizon_s):
    """Share of delivered traffic belonging to TCP Reno flows; None (absent)
    when no Reno flow participates."""
    if not any(c.protocol == "reno" for c in flows):
        return None
    total = sum(flow_throughput(c, horizon_s) for c in flows)
    if total == 0:
        return None
    reno = sum(flow_throughput(c, horizon_s) for c in flows
               if c.protocol == "reno")
    return reno / total


def _sum(xs):
    """Sum floats in the order np.sum adds a float64 array, so that the two
    agree to the last bit: above 128 elements, halves split at a multiple
    of 8; below, 8 running sums over whole blocks of 8, then the rest one
    by one, all added to 0.0 (so -0.0 sums to 0.0, as in np.sum)."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(xs[:half]) + _sum(xs[half:])
    res = 0.0
    end = n - n % 8 if n >= 8 else 0
    if end:
        r = xs[:8]
        for i in range(8, end, 8):
            r = [a + b for a, b in zip(r, xs[i:i + 8])]
        res += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in xs[end:]:
        res += x
    return res


def jain_index(rates):
    """(sum x)^2 / (N sum x^2); 1 for equal shares, 1/N under monopoly.
    Undefined (None) for an all-zero vector."""
    x = [float(r) for r in rates]
    if not x or any(v < 0 for v in x):
        raise ValueError("rates must be a non-empty vector of non-negatives")
    s2 = _sum([v * v for v in x])
    if s2 == 0.0:
        return None
    return _sum(x) ** 2 / (len(x) * s2)


def short_term_fairness(window_bytes_per_flow, horizon_s):
    """Jain index of the flows' bytes in each window (bytes past the horizon
    count in the last one), averaged over the windows that carry traffic;
    None if none does."""
    n_bins = math.ceil(horizon_s / WINDOW_S)
    if n_bins < 1:
        raise ValueError("window does not fit in the horizon")
    rows = [[0.0] * n_bins for _ in window_bytes_per_flow]
    for row, bins in zip(rows, window_bytes_per_flow):
        for b, nbytes in bins.items():
            row[min(b, n_bins - 1)] += nbytes
    vals = [jain_index(col) for col in zip(*rows) if _sum(col) > 0]
    return _sum(vals) / len(vals) if vals else None


def queue_occupancy(backlog_sum, n_samples, peak, buffer_pkts):
    """Mean enqueue-time backlog normalized by the buffer size, from the sum
    and the peak of `n_samples` integer backlog samples."""
    if n_samples < 1:
        raise ValueError("no queue samples")
    if not (0 <= peak <= buffer_pkts and 0 <= backlog_sum <= peak * n_samples):
        raise ValueError("queue sample out of [0, B_max]")
    return backlog_sum / n_samples / buffer_pkts


def loss_rate(flows):
    """Dropped over sent, across all flows on the bottleneck (data packets
    only; acks never traverse the queue in this model)."""
    sent = sum(c.packets_sent for c in flows)
    if sent == 0:
        raise ValueError("no packets sent")
    return sum(c.packets_dropped for c in flows) / sent


def build_report(scenario_id, params, flows, backlog_sum, n_samples,
                 backlog_peak, buffer_pkts, horizon_s, capacity_bps):
    """Assemble the full metric suite for one finished run."""
    f_st = short_term_fairness([c.window_bytes for c in flows], horizon_s)
    rates = [flow_throughput(c, horizon_s) for c in flows]
    return MetricsReport(
        scenario_id=scenario_id,
        params=params,
        eta=efficiency(flows, horizon_s, capacity_bps),
        tcp_pct=tcp_breakdown(flows, horizon_s),
        f_lt=jain_index(rates),
        f_st=f_st,
        b_norm=queue_occupancy(backlog_sum, n_samples, backlog_peak,
                               buffer_pkts),
        p_l=loss_rate(flows),
        per_flow=[(c.flow_id, c.protocol, r) for c, r in zip(flows, rates)],
    )
