"""Acceptance suite: one test per acceptance criterion, each emitting a
single machine-greppable ACCEPTANCE nn PASS/FAIL line.

The criteria exercise the full catalog (see conftest.catalog): solo
fixed-point behaviour, the yield/starve/share regions of the target sweep,
gain insensitivity, target dominance, flock scaling, mixed flocks, RTT
heterogeneity, trace shapes, determinism, conservation, metric bounds,
controller-step oracles and fairness-index anchors."""

import random

import numpy as np
import pytest

from conftest import by_label, by_value, run_catalog
from lbesim import harness, metrics
from lbesim.controllers import LedbatController, LpController, NiceController
from lbesim.engine import Simulator
from lbesim.harness import FlowConfig, ScenarioConfig, run_scenario
from oracles import (StubFlow, ledbat_offset, lp_early_congestion,
                     lp_inferring, lp_update_delay, nice_mark_threshold)

CAPACITY = 10e6


def verdict(num, ok, detail):
    line = "ACCEPTANCE %02d %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def shares(point, skip_first=True):
    """Capacity shares of the flows of one run (skipping the reno probe)."""
    rates = [bps for _, _, bps in point.result.report.per_flow]
    return [r / CAPACITY for r in (rates[1:] if skip_first else rates)]


@pytest.fixture(scope="session")
def solo_ledbat():
    cfg = ScenarioConfig(flows=[FlowConfig("ledbat", {"tau_ms": 25.0})])
    return run_scenario(cfg, scenario_id="solo-ledbat")


def test_01_solo_flow_holds_queue_at_target(solo_ledbat):
    r = solo_ledbat.report
    # tau = 25 ms at 10 Mbit/s is a 20.8-packet standing queue: 21% of the
    # 100-packet buffer, held without a single loss and with a full pipe
    ok = abs(r.b_norm - 0.21) <= 0.05 and r.p_l == 0.0 and r.eta >= 0.98
    verdict(1, ok, "b_norm=%.4f p_l=%.3g eta=%.4f" % (r.b_norm, r.p_l, r.eta))


def test_02_target_sweep_regions(catalog):
    pts = by_value(catalog[("fig2_target", None)][0])
    tcp = {t: pts[t].result.report.tcp_pct for t in pts}
    eta_min = min(p.result.report.eta for p in pts.values())
    yield_ok = all(tcp[t] >= 0.9 for t in (20.0, 25.0, 30.0, 40.0, 50.0, 60.0))
    starve = min(tcp[t] for t in (90.0, 100.0, 110.0))
    starve_ok = starve <= 0.1
    share_ok = abs(tcp[150.0] - 0.5) <= 0.15
    eta_ok = eta_min >= 0.95
    ok = yield_ok and starve_ok and share_ok and eta_ok
    verdict(2, ok,
            "yield(min over 20..60)=%.3f starve(min over 90..110)=%.3f "
            "tcp@150=%.3f eta_min=%.3f"
            % (min(tcp[t] for t in (20.0, 25.0, 30.0, 40.0, 50.0, 60.0)),
               starve, tcp[150.0], eta_min))


def test_03_gain_does_not_move_the_split(catalog):
    pts = catalog[("fig2_gain", None)][0]
    tcps = [p.result.report.tcp_pct for p in pts]
    etas = [p.result.report.eta for p in pts]
    ok = (max(tcps) - min(tcps) <= 0.10) and (max(etas) - min(etas) <= 0.05)
    verdict(3, ok, "tcp_pct range=%.4f eta range=%.4f over G=1,2,5,10"
            % (max(tcps) - min(tcps), max(etas) - min(etas)))


def test_04_larger_target_dominates(catalog):
    pts = by_label(catalog[("fig3_target_ratio", None)][0])
    f = {lbl: pts[lbl].result.report.f_lt for lbl in pts}
    ok = (f["ratio=1"] >= 0.97
          and all(f["ratio=%g" % r] <= 0.55 for r in (1.5, 2, 4)))
    verdict(4, ok, "f_lt ratio=1:%.3f 1.5:%.3f 2:%.3f 4:%.3f"
            % (f["ratio=1"], f["ratio=1.5"], f["ratio=2"], f["ratio=4"]))


def test_05_gain_mismatch_stays_fair(catalog):
    pts = by_value(catalog[("fig3_gain_ratio", None)][0])
    reports = [pts[g].result.report for g in (2.0, 5.0, 10.0)]
    ok = all(r.f_lt >= 0.95 and r.eta >= 0.95 for r in reports)
    verdict(5, ok, "f_lt=%s eta=%s for gain ratios 2,5,10"
            % (["%.3f" % r.f_lt for r in reports],
               ["%.3f" % r.eta for r in reports]))


def test_06_background_share_ranking(catalog):
    mean_share = {}
    for n_label in ("N=5", "N=10"):
        for proto in ("ledbat", "nice", "lp"):
            pt = by_label(catalog[("fig4", proto)][0])[n_label]
            mean_share[(proto, n_label)] = float(np.mean(shares(pt)))
    s10 = {p: mean_share[(p, "N=10")] for p in ("ledbat", "nice", "lp")}
    bands_ok = (abs(s10["ledbat"] - 0.01) <= 0.01
                and abs(s10["nice"] - 0.03) <= 0.02
                and abs(s10["lp"] - 0.05) <= 0.03)
    order_ok = all(mean_share[("ledbat", n)] < mean_share[("nice", n)]
                   < mean_share[("lp", n)] for n in ("N=5", "N=10"))
    ok = bands_ok and order_ok
    verdict(6, ok, "per-flow shares at N=10: ledbat=%.4f nice=%.4f lp=%.4f"
            % (s10["ledbat"], s10["nice"], s10["lp"]))


def test_07_background_flocks_keep_the_pipe_full(catalog):
    lbe_eta_min = min(pt.result.report.eta
                      for proto in ("nice", "ledbat")
                      for pt in catalog[("fig4", proto)][0])
    reno_etas = [pt.result.report.eta for pt in catalog[("fig4", "reno")][0]]
    # the all-reno reference degrades with flock size (monotone to within
    # sampling noise); the background flocks do not
    mono_ok = all(b <= a + 0.005 for a, b in zip(reno_etas, reno_etas[1:]))
    drop_ok = reno_etas[-1] <= reno_etas[0] - 0.01
    ok = lbe_eta_min >= 0.95 and mono_ok and drop_ok
    verdict(7, ok, "lbe eta_min=%.4f reno eta N=1..10: %s"
            % (lbe_eta_min, ["%.4f" % e for e in reno_etas]))


def test_08_loss_pressure_ranking(catalog):
    p_l = {proto: by_label(catalog[("fig4", proto)][0])["N=10"]
           .result.report.p_l for proto in ("nice", "lp", "reno")}
    ok = (p_l["nice"] < p_l["lp"]
          and abs(p_l["lp"] - p_l["reno"]) <= 0.5 * p_l["reno"])
    verdict(8, ok, "p_l nice=%.3g lp=%.3g all-reno=%.3g"
            % (p_l["nice"], p_l["lp"], p_l["reno"]))


def test_09_rtt_heterogeneity(catalog):
    nice = by_label(catalog[("fig6", "nice")][0])
    n1, n10 = nice["rtt_ratio=1"].result.report, nice["rtt_ratio=10"].result.report
    nice_ok = n10.f_lt >= 0.9 and n10.eta < n1.eta
    led = by_label(catalog[("fig6", "ledbat")][0])["rtt_ratio=10"].result.report
    rates = [bps for _, _, bps in led.per_flow]
    led_ok = (led.eta >= 0.95 and led.f_lt <= 0.6
              and rates[0] < 0.1 * rates[1])  # flow 0 has the large RTT
    ok = nice_ok and led_ok
    verdict(9, ok,
            "nice: f_lt@10=%.3f eta@10=%.4f eta@1=%.4f | "
            "ledbat: eta=%.4f f_lt=%.3f large/small=%.3f"
            % (n10.f_lt, n10.eta, n1.eta, led.eta, led.f_lt,
               rates[0] / rates[1]))


def _trace(catalog, label, fid, t_min=10.0):
    pt = by_label(catalog[("fig1", None)][0])[label]
    return np.array([w for t, w in zip(pt.result.sample_times,
                                       pt.result.cwnd_traces[fid]) if t >= t_min])


def test_10_trace_shapes(catalog):
    # the LP flow against reno shows a sawtooth with hard backoffs and
    # frozen (inference) segments
    lp = _trace(catalog, "reno-lp", 1)
    lp_drops = sum(1 for a, b in zip(lp, lp[1:]) if b <= 0.75 * a)
    lp_freezes = sum(1 for a, b in zip(lp, lp[1:]) if b == a)
    lp_ok = lp_drops >= 10 and lp_freezes >= 20
    # two nice flows settle on flat sub-Vegas plateaus above one packet
    n_ok = True
    for fid in (0, 1):
        w = _trace(catalog, "nice-nice", fid)
        n_ok &= (np.percentile(w, 95) - np.percentile(w, 5) <= 1.0
                 and w.min() > 1.0)
    # two delay-target flows split the 20.8-packet standing queue plus the
    # pipe between them and hold it steady
    l0, l1 = _trace(catalog, "ledbat-ledbat", 0), _trace(catalog, "ledbat-ledbat", 1)
    led_ok = (np.percentile(l0, 95) - np.percentile(l0, 5) <= 1.0
              and np.percentile(l1, 95) - np.percentile(l1, 5) <= 1.0
              and 55.0 <= float((l0 + l1).mean()) <= 70.0
              and abs(l0.mean() - l1.mean()) <= 0.1 * max(l0.mean(), l1.mean()))
    # against reno, both schemes yield to small, flat windows
    yn = _trace(catalog, "reno-nice", 1)
    yl = _trace(catalog, "reno-ledbat", 1)
    yield_ok = (np.percentile(yn, 95) - np.percentile(yn, 5) <= 0.5
                and yn.mean() < 10.0 and yl.max() <= 1.5)
    ok = lp_ok and n_ok and led_ok and yield_ok
    verdict(10, ok,
            "lp drops=%d freezes=%d | nice flat=%s | ledbat sum=%.1f | "
            "yield nice=%.2f ledbat_max=%.2f"
            % (lp_drops, lp_freezes, bool(n_ok), float((l0 + l1).mean()),
               yn.mean(), yl.max()))


def test_11_catalog_is_deterministic(catalog):
    rerun = run_catalog()
    mismatched = [key for key in catalog
                  if rerun[key][1] != catalog[key][1]]
    verdict(11, not mismatched,
            "second catalog pass CSVs byte-identical (%d instances)"
            % len(catalog) if not mismatched
            else "mismatch in %s" % mismatched)


def test_12_packet_conservation_and_drain():
    from lbesim.harness import make_controller
    from lbesim.network import BottleneckLink
    from lbesim.transport import FlowEndpoint

    log = []
    sim = Simulator(trace=log.append)
    link = BottleneckLink(CAPACITY, 0.025, 100)
    flows = [FlowEndpoint(sim, link, i, make_controller(p), start_at=0.0)
             for i, p in enumerate(("reno", "ledbat", "nice"))]
    for f in flows:
        f.start()

    def landed(f):  # acks dispatched at the sender so far
        tail = " PacketArrival ack-flow%d" % f.flow_id
        return sum(line.endswith(tail) for line in log)

    # every accepted packet's ack has landed or is still on the return path
    sim.run_until(10.0)
    conserved = all(landed(f) + len(f._acks) == f.packets_sent - f.packets_dropped
                    for f in flows)

    class Closed:  # window shut: no new transmissions, existing ones drain
        protocol = "closed"
        inflate_on_dupack = False

        def on_ack(self, flow, rtt, owd):
            pass

        def on_loss(self, flow, kind):
            pass

    for f in flows:
        f.controller = Closed()
        f.cwnd = 0.0
    sim.run_until(15.0)
    drained = all(not f._acks and landed(f) == f.packets_sent - f.packets_dropped
                  for f in flows)
    backlog = link.backlog(sim.now_ns)
    ok = conserved and drained and backlog == 0
    verdict(12, ok, "conserved=%s drained=%s backlog=%d"
            % (conserved, drained, backlog))


def test_13_metric_bounds_on_random_configs():
    rng = random.Random(20260823)
    failures = []
    for i in range(8):
        n = rng.randint(1, 4)
        flows = []
        for _ in range(n):
            proto = rng.choice(harness.PROTOCOLS)
            params = ({"tau_ms": rng.choice([10.0, 25.0, 50.0])}
                      if proto == "ledbat" else {})
            flows.append(FlowConfig(proto, params,
                                    start_at=rng.uniform(0.0, 0.5)))
        cfg = ScenarioConfig(capacity_bps=rng.choice([5e6, 10e6]),
                             buffer_pkts=rng.choice([25, 100]),
                             horizon_s=6.0, flows=flows)
        r = run_scenario(cfg, scenario_id="rand%d" % i).report
        bounds_ok = (
            0.0 < r.eta <= 1.001
            and (r.tcp_pct is None or 0.0 <= r.tcp_pct <= 1.0)
            and (r.f_lt is None or 1.0 / n - 1e-9 <= r.f_lt <= 1.0 + 1e-9)
            and (r.f_st is None or 0.0 <= r.f_st <= 1.0 + 1e-9)
            and 0.0 <= r.b_norm <= 1.0
            and 0.0 <= r.p_l <= 1.0)
        if not bounds_ok:
            failures.append(i)
    verdict(13, not failures, "8 randomized small scenarios in bounds"
            if not failures else "out of bounds: %s" % failures)


def test_14_controller_update_oracles():
    """Each controller's on_ack, driven with random inputs, leaves the state
    that the closed-form oracles give."""
    rng = random.Random(99)
    bad = 0
    for _ in range(100):
        # delay EWMA + extrema
        prev = None if rng.random() < 0.2 else rng.uniform(0.01, 0.2)
        dmin, dmax = rng.uniform(0.005, 0.05), rng.uniform(0.05, 0.25)
        d, alpha = rng.uniform(0.001, 0.3), rng.uniform(0.01, 1.0)
        delta = rng.uniform(0.0, 1.0)
        lp = LpController(alpha=alpha, delta=delta)
        lp.d_ewma, lp.d_min, lp.d_max = prev, dmin, dmax
        flow = StubFlow()
        lp.on_ack(flow, d + 0.025, d)
        ewma, mn, mx = lp_update_delay(prev, dmin, dmax, d, alpha)
        bad += (lp.d_ewma, lp.d_min, lp.d_max) != (ewma, mn, mx)
        # early-congestion threshold: an armed detector halves and infers
        bad += lp_inferring(lp, flow) != lp_early_congestion(
            ewma, mn, mx, delta)
        # nice marking threshold, over the delays seen so far
        nice = NiceController(delta=delta)
        flow = StubFlow(cwnd=1.0)
        flow.snd_next = 10 ** 6  # no epoch closes: the marks stay counted
        marks = 0
        for lo, hi, rtt in ((dmin, dmin, dmin), (dmin, dmax, dmax), (mn, mx, d)):
            nice.on_ack(flow, rtt, rtt / 2.0)
            marks += rtt > nice_mark_threshold(lo, hi, delta)
        bad += nice.marked != marks
        # queueing-delay offset, at G = 1 where the cap does not hide it
        tau = rng.uniform(0.005, 0.1)
        led = LedbatController(tau=tau, gamma=1.0 / tau)
        led.d_min = dmin
        flow = StubFlow(cwnd=20.0)
        led.on_ack(flow, d + 0.025, d)
        step = min(led.gamma * ledbat_offset(tau, d, mn), 1.0)
        bad += flow.cwnd != max(20.0 + step / 20.0, 1.0)
        # linear controller step, including the one-packet-per-RTT ramp cap
        gamma = rng.uniform(1.0, 20.0) / tau
        led = LedbatController(tau=tau, gamma=gamma)
        led.d_min = dmin
        c = rng.uniform(1.0, 60.0)
        flow = StubFlow(cwnd=c, ssthresh=1e9)
        led.on_ack(flow, d + 0.025, d)
        step = min(gamma * ledbat_offset(tau, d, mn), 1.0)
        bad += flow.cwnd != max(c + step / c, 1.0)
    verdict(14, bad == 0,
            "500 randomized controller-update checks, %d mismatches" % bad)


def test_15_fairness_index_anchors():
    rng = random.Random(5)
    ok = (metrics.jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)
          and metrics.jain_index([4.2, 0.0]) == pytest.approx(0.5))
    for _ in range(50):
        x = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 8))]
        if sum(x) == 0:
            continue
        j = metrics.jain_index(x)
        k = rng.uniform(0.01, 100.0)
        ok &= metrics.jain_index([k * v for v in x]) == pytest.approx(j)
        ok &= 1.0 / len(x) - 1e-9 <= j <= 1.0 + 1e-9
    verdict(15, ok, "equal-share=1, monopoly-of-two=0.5, scale invariant")
