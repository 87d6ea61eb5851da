"""Live telemetry plane for running fabrics and runtimes.

Everything the repo could report before this package existed was
end-of-run: trace run-reports, ``Fabric.report()``, bench JSON.
``repro.obs`` turns those into *live* surfaces:

- :mod:`repro.obs.prom` — the declared metric :class:`Family` and the
  one escaping-correct :func:`exposition` renderer that
  ``repro.trace.export`` and ``repro.fabric.report`` declare their
  pages for, plus a lint pass CI runs over every scraped page;
- :mod:`repro.obs.window` — bounded ring-buffer rolling windows
  (counters, gauge series, nearest-rank percentiles) so ``/metrics``
  reports last-60s behaviour instead of lifetime averages, and the
  :class:`EventLog` ring behind ``/events.json``;
- :mod:`repro.obs.heartbeat` — the worker heartbeat payload and the
  :class:`Watchdog` that flags (and can kill) workers that stop
  beating, escalating into the fabric's existing crash-recovery path;
- :mod:`repro.obs.server` — :class:`ObsServer`, a stdlib threaded HTTP
  server exposing ``/metrics``, ``/healthz``, ``/report.json`` and
  ``/events.json`` for any provider callables (:func:`serve_fabric`
  wires a live :class:`~repro.fabric.Fabric`);
- ``python -m repro.obs`` — attach mode: serve a report JSON file
  written by some other process as a scrapeable endpoint.

Dependency note: every module here except ``__main__`` is stdlib-only,
so ``repro.trace`` and ``repro.fabric`` can import the shared helpers
without cycles (``repro.obs`` is a leaf package like ``repro.trace``).
"""

from repro.obs.prom import (
    Family,
    escape_help_text,
    escape_label_value,
    exposition,
    lint_exposition,
    prom_header,
    prom_sample,
)
from repro.obs.window import (
    EventLog,
    MetricsWindow,
    WindowedCounter,
    WindowedSeries,
    percentile,
    window_summary,
)
from repro.obs.heartbeat import (
    HEARTBEAT_INTERVAL_S,
    Watchdog,
    WatchdogEvent,
    heartbeat_payload,
    rss_bytes,
)
from repro.obs.server import ObsServer, serve_fabric

__all__ = [
    "EventLog",
    "Family",
    "HEARTBEAT_INTERVAL_S",
    "MetricsWindow",
    "ObsServer",
    "Watchdog",
    "WatchdogEvent",
    "WindowedCounter",
    "WindowedSeries",
    "escape_help_text",
    "escape_label_value",
    "exposition",
    "heartbeat_payload",
    "lint_exposition",
    "percentile",
    "prom_header",
    "prom_sample",
    "rss_bytes",
    "serve_fabric",
    "window_summary",
]
