"""Self-checks of the benchmark: the traced run reconciles with the
program's own counters, both modes print exactly the metrics that
BENCHMARK.json declares, and the tracer's self-time arithmetic holds."""

import json
import os
import subprocess
import sys
import time

import run
from tracer import Tracer


def _contract():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py")] + list(args),
                          capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_duel_reconciles_and_reports_every_layer_metric():
    # seed 0 is pinned, so this also checks the outputs against digests.json
    result = _bench("--workload", "duel", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] == 2
    declared = {m["name"]: m["unit"] for m in _contract()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["engine.events_dispatched"] > 0 and m["controllers.reno.on_ack_calls"] > 0
    assert m["controllers.lp.on_ack_calls"] == 0  # duel has no LP flow
    assert 0.0 <= m["trace.unattributed_share"] <= 0.02
    assert m["trace.overhead_share"] > 0.0


def test_untraced_run_reports_every_end_to_end_metric():
    result = _bench("--workload", "duel", "--seed", "7", "--seconds", "1", "--trace", "0")
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in _contract()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_self_times_partition_nested_frames():
    tracer = Tracer()
    inner = tracer._timed(lambda: time.sleep(0.01), "network", "inner")
    outer = tracer._timed(lambda: (time.sleep(0.01), inner()), "engine", "outer", span=True)
    outer()
    total = tracer.calls["outer"][1]
    assert tracer.self_ns["engine"] + tracer.self_ns["network"] == total
    assert tracer.self_ns["network"] == tracer.calls["inner"][1]
    assert [s[1:3] for s in tracer.spans] == [(None, "outer")]
    assert not tracer._stack and not tracer._open_spans


def test_time_no_wrapper_covers_fails_the_self_check():
    # a lost wrapper leaves its work in the self time of run_sweep
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    tracer = Tracer()
    sweep = tracer._timed(lambda: time.sleep(0.02), "harness", "harness.run_sweep", span=True)
    t0 = time.perf_counter()
    sweep()
    wall_s = time.perf_counter() - t0
    out = tracer.metrics(wall_s)
    assert out["trace.unattributed_share"] > 0.9
    assert any("unattributed share" in e for e in tracer.reconcile(out, wall_s))


def test_digest_mismatch_fails_only_the_runs_that_wrote_the_file():
    expected = {"fig1.csv": "a", "fig1_reno-lp_flow0_cwnd.csv": "b",
                "fig1_reno-lp_flow1_cwnd.csv": "c", "fig1_lp-lp_flow0_cwnd.csv": "d"}
    result = {"runs": 6, "errors": [], "digests": dict(expected)}
    assert run.failed_runs(result, expected) == 0
    result["digests"]["fig1_reno-lp_flow1_cwnd.csv"] = "x"
    assert run.failed_runs(result, expected) == 1
    result["digests"]["fig1.csv"] = "x"
    assert run.failed_runs(result, expected) == 6
    del result["digests"]["fig1.csv"]
    result["digests"]["fig1_reno-lp_flow1_cwnd.csv"] = "c"
    assert run.failed_runs(result, expected) == 6
