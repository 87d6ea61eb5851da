"""Golden exposition pages: both declared family tables, byte for byte.

``golden/fabric_report.json`` is a fully populated v3 fabric report (a
stub-runner fabric with ``batch > 1``, heartbeats and a watchdog, and
an attached ingest server that saw a malformed datagram and evicted a
stream), so every family in :data:`FABRIC_FAMILIES` has samples.
``golden/sim_stats.json`` is a fixed ``ActivityStats.as_dict()`` plus
constant labels.  The ``.prom`` files are the pages the bespoke
renderers these tables replaced produced for the same inputs.
"""

import copy
import json
import os

import numpy as np
import pytest

from repro.fabric import Fabric
from repro.fabric.report import FABRIC_FAMILIES, fabric_prometheus_text
from repro.obs.prom import lint_exposition
from repro.runtime import BatchPacketResult
from repro.sim.stats import ActivityStats
from repro.trace.export import SIM_FAMILIES, prometheus_text

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

#: ``per_worker`` keys the Prometheus page renders (one family each).
RENDERED_WORKER_KEYS = (
    "batch_occupancy", "batched_tasks", "batches", "completed", "crashes",
    "health", "heartbeats", "host_cycles", "last_heartbeat_age_s", "load",
    "occupancy", "rss_bytes", "stall_causes", "task_seq",
)


def _read(name):
    with open(os.path.join(_GOLDEN, name)) as fh:
        return fh.read()


def _fabric_report():
    return json.loads(_read("fabric_report.json"))


def _sim_page():
    fixture = json.loads(_read("sim_stats.json"))

    class _Stats:
        def as_dict(self):
            return fixture["stats"]

    return prometheus_text(_Stats(), fixture["labels"])


def _typed(page):
    return [line.split()[2] for line in page.splitlines() if line.startswith("# TYPE ")]


@pytest.mark.parametrize(
    "render, golden",
    [
        (lambda: fabric_prometheus_text(_fabric_report()), "fabric_report.prom"),
        (_sim_page, "sim_stats.prom"),
    ],
    ids=["fabric", "sim"],
)
def test_page_matches_golden_and_lints_clean(render, golden):
    page = render()
    assert page == _read(golden)
    assert lint_exposition(page) == []


def test_golden_inputs_exercise_every_declared_family():
    assert _typed(fabric_prometheus_text(_fabric_report())) == [
        f.name for f in FABRIC_FAMILIES
    ]
    assert _typed(_sim_page()) == [f.name for f in SIM_FAMILIES]


def test_sim_table_declares_every_activity_counter():
    declared = {f.name for f in SIM_FAMILIES}
    for name in ActivityStats().as_dict()["counters"]:
        assert "repro_sim_" + name in declared


def test_every_rendered_worker_key_feeds_the_page():
    report = _fabric_report()
    full = fabric_prometheus_text(report)
    for key in RENDERED_WORKER_KEYS:
        stripped = copy.deepcopy(report)
        for worker in stripped["per_worker"]:
            worker[key] = None
        assert fabric_prometheus_text(stripped) != full, key


class _StubRunner:
    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        return [BatchPacketResult(output={"sum": float(np.sum(rx.real))}) for rx in rxs]


def _factory():
    return _StubRunner()


def test_live_report_keys_have_declared_families():
    """A new fabric counter or per-worker field must not silently miss
    the page: every live counter has a family, and every worker key the
    page renders is still in the live report."""
    fab = Fabric(workers=1, runner_factory=_factory, batch=2, heartbeat_s=0.05)
    with fab:
        for k in range(2):
            fab.offer(np.full((2, 64), float(k + 1)))
        fab.drain(timeout=30)
        report = fab.report()
    declared = {f.name for f in FABRIC_FAMILIES}
    for key in report["counters"]:
        assert "repro_fabric_" + key in declared, key
    assert set(RENDERED_WORKER_KEYS) <= set(report["per_worker"][0])
    assert lint_exposition(fabric_prometheus_text(report)) == []
