"""Closed-form references for the controllers' delay filters, which
on_ack writes out inline, TCP-LP's inference test, and a bare flow to
drive on_ack with. The controller tests and ACCEPTANCE 14 compare each
controller's state after on_ack with these."""

from lbesim.engine import Simulator


def lp_update_delay(d_ewma, d_min, d_max, d, alpha):
    """TCP-LP: one EWMA step over the one-way delay plus running extrema.
    The first sample initializes the average."""
    if d_ewma is None:
        d_ewma = d
    else:
        d_ewma = (1.0 - alpha) * d_ewma + alpha * d
    return d_ewma, min(d_min, d), max(d_max, d)


def lp_early_congestion(d_ewma, d_min, d_max, delta):
    """TCP-LP: the delay-threshold early congestion test (strict)."""
    return d_ewma > d_min + (d_max - d_min) * delta


def lp_inferring(ctl, flow):
    """TCP-LP: whether ctl's window is frozen in an inference phase at the
    flow's present time, which is before the phase's deadline."""
    return flow.sim.now_ns < ctl.inference_end_ns


def ledbat_offset(tau, d, d_min):
    """LEDBAT: distance from the target queuing delay."""
    return tau - (d - d_min)


def nice_mark_threshold(rtt_min, rtt_max, delta):
    """TCP-NICE: the delay above which an ack is marked."""
    return rtt_min + (rtt_max - rtt_min) * delta


class StubFlow:
    """Bare attribute bag standing in for a FlowEndpoint."""

    def __init__(self, cwnd=10.0, ssthresh=2.0, sim=None):
        self.cwnd = cwnd
        self.ssthresh = ssthresh
        self.sim = sim or Simulator()
        self.srtt = 0.05
        self.flow_id = 0
        self.snd_next = 0
        self.snd_una = 0
