"""Golden outputs: the sha256 of every catalog instance's sweep CSV, pinned
in golden/catalog.sha256 ("<sha256>  <instance>" per line). The check reuses
the session's catalog pass, so it adds no runs.

A change that moves a digest changes what the simulator computes; it must
regenerate the file on purpose and say which metrics moved and by how much:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/catalog.sha256
"""

import hashlib
import os

from conftest import CATALOG, instance_name, run_catalog

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "catalog.sha256")


def digests(catalog):
    return {instance_name(exp, proto): hashlib.sha256(csv.encode()).hexdigest()
            for (exp, proto), (_, csv) in catalog.items()}


def test_catalog_csvs_match_golden_digests(catalog):
    with open(GOLDEN) as fh:
        pinned = {name: digest for digest, name in
                  (line.split() for line in fh if line.strip())}
    assert sorted(pinned) == sorted(instance_name(*key) for key in CATALOG)
    got = digests(catalog)
    moved = sorted(name for name in pinned if got[name] != pinned[name])
    assert not moved, "sweep CSVs differ from the golden digests: %s" % moved


if __name__ == "__main__":
    for name, digest in digests(run_catalog()).items():
        print("%s  %s" % (digest, name))
