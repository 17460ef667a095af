"""Shared fixtures: the full experiment catalog is expensive (about a
hundred 120-second runs), so it is executed once per session and reused by
every test that inspects catalog results."""

import os
import re

import pytest

from lbesim import engine, harness

# Every (experiment id, protocol) instance of the catalog.
CATALOG = (
    ("fig1", None),
    ("fig2_gain", None),
    ("fig2_target", None),
    ("fig3_gain_ratio", None),
    ("fig3_target_ratio", None),
    ("fig4", "lp"),
    ("fig4", "nice"),
    ("fig4", "ledbat"),
    ("fig4", "reno"),
    ("fig5", None),
    ("fig6", "lp"),
    ("fig6", "nice"),
    ("fig6", "ledbat"),
    ("fig6", "reno"),
)


def instance_name(exp, proto):
    """The scenario prefix of a catalog instance, as `lbesim experiment`
    names it."""
    return exp if proto is None else "%s-%s" % (exp, proto)


def run_catalog():
    """Run every catalog instance; returns {(id, protocol): (points, csv)}."""
    out = {}
    for exp, proto in CATALOG:
        spec = harness.expand_experiment(exp, protocol=proto)
        points = harness.run_sweep(spec, scenario_prefix=instance_name(exp, proto))
        out[(exp, proto)] = (points, harness.sweep_csv(points))
    return out


@pytest.fixture(scope="session")
def catalog():
    return run_catalog()


def readme_example():
    """The config example in README, as printed there."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        return re.search(r"^```ini\n(.*?)^```$", fh.read(), re.M | re.S).group(1)


def by_label(points):
    return {pt.label: pt for pt in points}


def by_value(points):
    return {pt.axis_value: pt for pt in points}


def built(monkeypatch, cls):
    """Collect every instance of cls built from now on."""
    made, init = [], cls.__init__

    def collecting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cls, "__init__", collecting)
    return made


def books_also_owning(monkeypatch, owned):
    """Let run_scenario's books count as owned the events that owned()
    says a reference model holds at the horizon, beside the flows' own
    acks and RTO timers: RunStats.pending leaves them out."""
    run_until = engine.Simulator.run_until

    def run_until_leaving_them_out(sim, t_end_s):
        stats = run_until(sim, t_end_s)
        stats.pending -= owned()
        return stats

    monkeypatch.setattr(engine.Simulator, "run_until", run_until_leaving_them_out)
