#!/usr/bin/env python3
"""Window traces of each background scheme competing with TCP Reno.

Runs reno-vs-lp, reno-vs-nice and reno-vs-ledbat for 30 seconds each and
writes reno-<scheme>_flow<i>_cwnd.csv and reno-<scheme>_queue.csv, both
sampled every 100 ms, into ./traces. The three schemes yield in visibly
different ways: LP rides a sawtooth with frozen inference segments, NICE
settles on a small flat plateau, LEDBAT pins its window at one packet.
"""

import os

from lbesim import FlowConfig, ScenarioConfig, harness, run_scenario

OUTDIR = "traces"


def main():
    os.makedirs(OUTDIR, exist_ok=True)
    for lbe in ("lp", "nice", "ledbat"):
        params = {"tau_ms": 25.0} if lbe == "ledbat" else {}
        cfg = ScenarioConfig(horizon_s=30.0,
                             flows=[FlowConfig("reno"),
                                    FlowConfig(lbe, params)])
        result = run_scenario(cfg, traces=True, scenario_id="reno-%s" % lbe)
        reno_bps, lbe_bps = (bps for _, _, bps in result.report.per_flow)
        print("reno vs %-6s  reno=%5.2f Mbit/s  %s=%5.3f Mbit/s  eta=%.3f"
              % (lbe, reno_bps / 1e6, lbe, lbe_bps / 1e6, result.report.eta))
        harness.write_traces(OUTDIR, result.sample_times, result.cwnd_traces,
                             result.queue_samples, prefix="reno-%s_" % lbe)
    print("traces written to ./%s" % OUTDIR)


if __name__ == "__main__":
    main()
