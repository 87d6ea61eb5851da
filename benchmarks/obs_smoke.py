#!/usr/bin/env python
"""Live-telemetry smoke: serve a small fabric, scrape it, lint the page.

Brings up a 2-worker :class:`~repro.fabric.Fabric` with fast heartbeats
and the telemetry server on an ephemeral port, decodes a few packets
while scraping every endpoint over real HTTP, then checks:

* ``/metrics`` parses under :func:`repro.obs.lint_exposition` (TYPE and
  HELP on every family, escaped labels, numeric samples) and carries the
  fabric, window, per-worker and cache families;
* ``/healthz`` returns HTTP 200 with overall status ``pass`` and one
  check per worker, every worker having beaten at least once;
* ``/report.json`` round-trips as JSON with the fabric report schema;
* ``/events.json`` holds the lifecycle ring (server start at minimum);
* decoded bits still match the serial baseline (scraping is read-only).

Exit status 0 on success — this is the CI ``obs-smoke`` gate.

Run:  PYTHONPATH=src python benchmarks/obs_smoke.py [--packets 3]
"""

import argparse
import json
import os
import sys
import time
import urllib.request

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.fabric import FABRIC_REPORT_SCHEMA, Fabric
from repro.obs import lint_exposition
from repro.runtime import ModemRuntime, generate_packets

#: Metric families the scrape must carry (prefixed repro_fabric_).
_REQUIRED_FAMILIES = (
    "repro_fabric_submitted",
    "repro_fabric_completed",
    "repro_fabric_heartbeats",
    "repro_fabric_latency_seconds",
    "repro_fabric_window_packets_per_sec",
    "repro_fabric_worker_heartbeat_age_seconds",
    "repro_fabric_worker_healthy",
    "repro_fabric_cache_events",
)


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=3, help="batch size")
    parser.add_argument("--cache", default=None, help="schedule-cache dir")
    parser.add_argument(
        "--heartbeat", type=float, default=0.2, help="worker heartbeat seconds"
    )
    args = parser.parse_args(argv)

    cases = generate_packets(args.packets, base_seed=11, cfo_hz=50e3)
    template = ModemRuntime(cache_dir=args.cache)
    template.warm_up(cases[0].rx)
    serial = [template.run_packet(case.rx) for case in cases]

    fab = Fabric(
        workers=2,
        template_runtime=template,
        cache_dir=args.cache,
        heartbeat_s=args.heartbeat,
        name="obs-smoke",
        obs_port=0,
    )
    failures = []
    with fab:
        url = fab.obs_url
        print("telemetry at %s" % url)
        ids = [fab.offer(case.rx).task_id for case in cases]
        results = fab.drain(timeout=600)

        # Give every worker at least two heartbeat periods, pumping so the
        # parent actually reads the beats off the result pipes.
        deadline = time.monotonic() + max(2.0, 6 * args.heartbeat)
        while time.monotonic() < deadline:
            fab.poll(0.05)
            if all(w["heartbeats"] > 0 for w in fab.report()["per_worker"]):
                break

        status, page = _get(url + "/metrics")
        if status != 200:
            failures.append("/metrics returned HTTP %d" % status)
        problems = lint_exposition(page)
        if problems:
            failures.append("exposition lint: %s" % problems)
        for family in _REQUIRED_FAMILIES:
            if family not in page:
                failures.append("/metrics missing family %s" % family)

        status, body = _get(url + "/healthz")
        health = json.loads(body)
        if status != 200 or health["status"] != "pass":
            failures.append(
                "/healthz HTTP %d status %r (want 200/pass)" % (status, health["status"])
            )
        worker_checks = [k for k in health["checks"] if k.startswith("worker:")]
        if len(worker_checks) != 2:
            failures.append("expected 2 worker checks, got %r" % worker_checks)

        status, body = _get(url + "/report.json")
        report = json.loads(body)
        if report.get("schema") != FABRIC_REPORT_SCHEMA:
            failures.append("/report.json schema %r" % report.get("schema"))
        beats = [w["heartbeats"] for w in report["per_worker"]]
        if not all(b > 0 for b in beats):
            failures.append("worker(s) never beat: heartbeats %r" % beats)

        status, body = _get(url + "/events.json")
        events = json.loads(body)
        if not any(e["event"] == "obs_server_started" for e in events):
            failures.append("/events.json missing obs_server_started")

    for task_id, out in zip(ids, serial):
        if list(results[task_id].bits) != list(out.bits):
            failures.append("task %d bits differ from serial" % task_id)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "obs smoke ok: %d packets decoded, %d scrapes clean, heartbeats %r"
        % (len(cases), 4, beats)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
