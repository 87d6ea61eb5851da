"""Attach mode: serve somebody else's report file as a live endpoint.

``python -m repro.obs --report PATH`` watches a ``Fabric.report()``
JSON dump and serves it through the same four endpoints an in-process
:class:`~repro.obs.server.ObsServer` exposes; ``/metrics`` renders the
file through the fabric's declared families, so an attached page equals
the live one for the same report.  The file is re-read on every
scrape, so a bench (or a fabric on another host sharing a filesystem)
that rewrites its report periodically becomes scrapeable without
embedding an HTTP server.

``/healthz`` in attach mode reports on the *file*: ``pass`` while its
mtime is fresher than ``--stale-after`` seconds, ``fail`` once the
writer has gone quiet or the file is unreadable.

Run:  PYTHONPATH=src python -m repro.obs --report out/fabric_report.json \\
          [--host 127.0.0.1] [--port 9100] [--stale-after 30]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.fabric.report import fabric_prometheus_text
from repro.obs.server import ObsServer


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--report", required=True, metavar="PATH",
                        help="report JSON file to serve (re-read per scrape)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9100,
                        help="listen port (default 9100; 0 = ephemeral)")
    parser.add_argument("--stale-after", type=float, default=30.0, metavar="S",
                        help="/healthz fails once the file is older than S seconds")
    args = parser.parse_args(argv)

    def report() -> dict:
        return _load(args.report)

    def metrics() -> str:
        return fabric_prometheus_text(report())

    def health() -> dict:
        try:
            age = time.time() - os.path.getmtime(args.report)
            status = "pass" if age <= args.stale_after else "fail"
            detail = {"status": status, "observedValue": round(age, 3),
                      "observedUnit": "s_since_write"}
        except OSError as exc:
            status = "fail"
            detail = {"status": status, "output": str(exc)}
        return {
            "status": status,
            "description": "attached report file %s" % args.report,
            "checks": {"report:file": [detail]},
        }

    def events() -> list:
        return report().get("events", [])

    server = ObsServer(
        metrics=metrics, health=health, report=report, events=events,
        host=args.host, port=args.port,
    ).start()
    print("serving %s at %s  (/metrics /healthz /report.json /events.json)"
          % (args.report, server.url), flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
