"""The event order, pinned: the sha256 of the report and of the
`--event-log` of two `lbesim run`s, in golden/event_log.sha256
("<sha256>  <file>" per line). The runs are the README's config example as
printed (120 s), and the TCP-LP variant that CI's "CLI examples" step
builds from it: 20 s, and flow 1 runs LP with inference_rtts=3. The log has
one line per dispatched event, so a change that adds, drops or reorders an
event moves a digest even where the report stays.

A change that moves a digest changes what the simulator does; it must
regenerate the file on purpose and say why:

    PYTHONPATH=src python tests/test_event_log.py > tests/golden/event_log.sha256
"""

import hashlib
import os
import re
import tempfile

from conftest import readme_example

from lbesim import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "event_log.sha256")

# CI's sed on the README example: each key's line is replaced in place
LP_VARIANT = {"horizon_s": "horizon_s=20",
              "flows.1.protocol": "flows.1.protocol=lp",
              "flows.1.params.tau_ms": "flows.1.params.inference_rtts=3"}


def configs():
    """{config file name: text}; the name is the report's scenario id."""
    readme = readme_example()
    lp = readme
    for key, line in LP_VARIANT.items():
        lp, n = re.subn(r"^%s=.*$" % re.escape(key), line, lp, flags=re.M)
        assert n == 1, key
    return {"readme.cfg": readme, "lp.cfg": lp}


def digests(tmp):
    """Run each config as `lbesim run NAME --out DIR --event-log LOG` in
    tmp; returns {file: sha256} for each run's report and event log."""
    got = {}
    for name, text in configs().items():
        stem = name[:-len(".cfg")]
        cfg = os.path.join(tmp, name)
        with open(cfg, "w") as fh:
            fh.write(text)
        out, log = os.path.join(tmp, stem), os.path.join(tmp, stem + ".log")
        assert cli.main(["run", cfg, "--out", out, "--event-log", log]) == 0
        for path, key in ((os.path.join(out, "report.csv"), stem + ".csv"),
                          (log, stem + ".log")):
            with open(path, "rb") as fh:
                got[key] = hashlib.sha256(fh.read()).hexdigest()
    return got


def test_readme_example_and_its_lp_variant_match_golden_digests(tmp_path):
    with open(GOLDEN) as fh:
        pinned = {name: digest for digest, name in
                  (line.split() for line in fh if line.strip())}
    got = digests(str(tmp_path))
    assert sorted(pinned) == sorted(got)
    moved = sorted(name for name in pinned if got[name] != pinned[name])
    assert not moved, "outputs differ from the golden digests: %s" % moved


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in sorted(digests(tmp).items()):
            print("%s  %s" % (digest, name))
