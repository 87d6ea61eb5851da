"""Fabric observability: latency percentiles and the Prometheus view.

The fabric report is the serving-layer sibling of the per-run trace
report (``repro.trace.report``): fabric-level counters (submissions,
drops, rejections, requeues, respawns), per-worker occupancy and
spin-up provenance, heartbeat/watchdog liveness, rolling-window
aggregates and end-to-end latency percentiles.  ``Fabric.report()``
builds it; the JSON form is embedded in ``BENCH_fabric_scaling.json``
and validated in CI.  :data:`FABRIC_FAMILIES` declares every
Prometheus family rendered from it, once, and
:func:`fabric_prometheus_text` renders them with the one
:func:`repro.obs.prom.exposition` renderer.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.obs.prom import Family, exposition
from repro.obs.window import percentile

__all__ = [
    "FABRIC_FAMILIES",
    "FABRIC_REPORT_SCHEMA",
    "fabric_prometheus_text",
    "latency_percentiles",
    "scenario_accounting",
]

#: Format identifier embedded in every fabric report.  v2 added the
#: ``ingest`` section (None unless an ``IngestServer`` is attached);
#: v3 added batch-drain accounting: a top-level ``batch`` width and
#: per-worker ``batches`` / ``batched_tasks`` / ``batch_occupancy``,
#: counted at every width (at batch 1 every dispatch is full, so a slot
#: that has dispatched reads occupancy 1.0).
FABRIC_REPORT_SCHEMA = "repro.fabric_report/v3"


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """The standard p50/p95/p99 triple from a latency sample list."""
    return {
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


def scenario_accounting(results, truth) -> Dict[str, Dict[str, float]]:
    """Per-scenario link-quality counters for a completed stream run.

    *results* maps task ids to fabric result objects (``.bits``),
    *truth* maps the same ids to their ground-truth
    :class:`~repro.runtime.workload.PacketCase` (``stream_truth``'s
    output).  Packets with no scenario tag are grouped under
    ``"baseline"``.  Each bucket carries ``packets``, ``bits``,
    ``bit_errors``, ``ber`` and ``errors`` (packets whose worker raised
    or whose decode never completed — excluded from the BER bits).
    """
    buckets: Dict[str, Dict[str, float]] = {}
    for task_id, case in truth.items():
        name = case.scenario or "baseline"
        bucket = buckets.setdefault(
            name,
            {"packets": 0, "bits": 0, "bit_errors": 0, "ber": 0.0, "errors": 0},
        )
        bucket["packets"] += 1
        result = results.get(task_id)
        decoded = getattr(result, "bits", None)
        if decoded is None:
            bucket["errors"] += 1
            continue
        n = min(len(decoded), len(case.bits))
        errs = int(sum(1 for a, b in zip(decoded[:n], case.bits[:n]) if a != b))
        errs += max(len(case.bits) - n, 0)
        bucket["bits"] += len(case.bits)
        bucket["bit_errors"] += errs
    for bucket in buckets.values():
        if bucket["bits"]:
            bucket["ber"] = bucket["bit_errors"] / bucket["bits"]
    return buckets


# ----------------------------------------------------------------------
# Prometheus families: sample functions over a report dict.
# ----------------------------------------------------------------------


def _get(report, *path):
    """The value at *path*; ``None`` when a level above it is absent or empty."""
    for key in path:
        report = report.get(key) if report else None
    return report


def _at(*path):
    """One unlabelled sample: the value at *path*."""
    return lambda report: [("", None, _get(report, *path))]


def _keyed(label, *path):
    """One sample per key of the mapping at *path*, labelled by it."""
    return lambda report: [
        ("", {label: key}, value) for key, value in sorted((_get(report, *path) or {}).items())
    ]


def _ingest_scalar(key, value=lambda v: v):
    """An attached ingest server's scalar (a missing key reads 0)."""
    return lambda report: [
        ("", None, value(report["ingest"].get(key, 0)) if _get(report, "ingest") else None)
    ]


def _latency(*path, summary=False):
    """Nearest-rank quantiles (fractional labels); a summary adds
    ``_count`` and ``_sum``."""
    def samples(report):
        latency = _get(report, *path) or {}
        for key, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            yield "", {"quantile": quantile}, latency.get(key)
        if summary and latency:
            count = latency.get("count", 0)
            yield "_count", None, count
            yield "_sum", None, round(latency.get("mean", 0.0) * count, 6)
    return samples


def _workers(sample):
    """``sample(worker)`` -> rows, over every ``per_worker`` entry."""
    return lambda report: [
        row for worker in report.get("per_worker") or () for row in sample(worker)
    ]


def _worker(key):
    return _workers(lambda w: [("", {"worker": w["index"]}, w.get(key))])


def _worker_health(w):
    verdict = w.get("health")
    if not verdict:
        return []
    return [("", {"worker": w["index"], "verdict": verdict}, int(verdict == "pass"))]


def _worker_stalls(w):
    causes = sorted((w.get("stall_causes") or {}).items())
    return [("", {"worker": w["index"], "cause": cause}, n) for cause, n in causes]


def _cache_events(report):
    for cache_name, counters in sorted((report.get("cache") or {}).items()):
        for event, value in sorted((counters or {}).items()):
            yield "", {"cache": cache_name, "event": event}, value


def _streams(*columns):
    """Per-stream ingest samples: ``(report key, extra labels)`` columns."""
    def samples(report):
        streams = _get(report, "ingest", "streams") or {}
        for stream_id, view in sorted(streams.items(), key=lambda kv: int(kv[0])):
            for key, labels in columns:
                yield "", dict(labels, stream=stream_id), view.get(key, 0)
    return samples


def _fabric(name, mtype, help_text, samples):
    return Family("repro_fabric_" + name, mtype, help_text, samples)


def _ingest_family(name, mtype, help_text, samples):
    return Family("repro_ingest_" + name, mtype, help_text, samples)


def _counter(key, help_text):
    return _fabric(key, "counter", help_text, _at("counters", key))


def _worker_gauge(name, key, help_text):
    return _fabric("worker_" + name, "gauge", help_text, _worker(key))


def _stream_counter(key, help_text):
    return _ingest_family(key, "counter", help_text, _streams((key, {})))


#: Every Prometheus family rendered from a fabric report, in page order.
FABRIC_FAMILIES = (
    # Lifetime counters (``report["counters"]``), sorted by key.
    _counter("completed", "Packet results recorded (including task errors)."),
    _counter("dropped", "Packets shed immediately in drop backpressure mode."),
    _counter("duplicates", "Results discarded by the exactly-once guard."),
    _counter("heartbeats", "Worker heartbeat messages received by the fabric."),
    _counter("rejected", "Packets shed by a deadline, at submit or while queued."),
    _counter("requeued", "Crash-orphaned packets moved onto surviving workers."),
    _counter("respawns", "Worker slots respawned from the warm template."),
    _counter("submitted", "Packets accepted by Fabric.offer()."),
    _counter("task_errors", "Packets whose worker raised; the worker kept serving."),
    _counter("watchdog_flags", "Worker slots flagged stuck by the watchdog."),
    _counter("watchdog_kills", "Stuck workers killed by watchdog escalation."),
    _counter("worker_crashes", "Worker process deaths noticed by the fabric."),
    # Fabric-wide gauges.
    _fabric("workers", "gauge", "Configured worker slots in this fabric.", _at("workers")),
    _fabric("batch", "gauge", "Batch-drain width (1 = per-packet dispatch).", _at("batch")),
    _fabric("outstanding", "gauge",
            "Accepted packets not yet completed (pending + in-flight).", _at("outstanding")),
    _fabric("packets_per_sec", "gauge",
            "Lifetime completed-packet throughput.", _at("packets_per_sec")),
    _fabric("wall_seconds", "gauge", "Seconds since the fabric started.", _at("wall_s")),
    _fabric("heartbeat_interval_seconds", "gauge",
            "Configured worker heartbeat period.", _at("heartbeat_s")),
    _fabric("latency_seconds", "summary",
            "End-to-end packet latency (lifetime, nearest-rank quantiles).",
            _latency("latency_s", summary=True)),
    # Rolling window: last-N-seconds behaviour, not lifetime.
    _fabric("window_seconds", "gauge",
            "Rolling aggregation window length.", _at("window", "window_s")),
    _fabric("window_events", "gauge",
            "Fabric events that occurred within the rolling window, by kind.",
            _keyed("kind", "window", "counts")),
    _fabric("window_packets_per_sec", "gauge",
            "Completed-packet throughput over the rolling window.",
            _at("window", "throughput_pps")),
    _fabric("window_offered_per_sec", "gauge",
            "Accepted-submission rate over the rolling window.", _at("window", "offered_pps")),
    _fabric("window_shed", "gauge",
            "Packets shed (dropped + rejected) within the rolling window.",
            _at("window", "shed")),
    _fabric("window_queue_depth_mean", "gauge",
            "Mean outstanding packets sampled over the rolling window.",
            _at("window", "queue_depth", "mean")),
    _fabric("window_inflight_mean", "gauge",
            "Mean in-pipe packets sampled over the rolling window.",
            _at("window", "inflight", "mean")),
    _fabric("window_latency_seconds", "gauge",
            "Windowed nearest-rank latency quantiles (fractional quantile label).",
            _latency("window", "latency_s")),
    # Per worker slot (``report["per_worker"]``).
    _worker_gauge("completed", "completed", "Packets completed by this worker slot."),
    _worker_gauge("occupancy", "occupancy", "Busy-time fraction of this worker slot."),
    _worker_gauge("queue_depth", "load", "Pending plus in-flight packets on this slot."),
    _worker_gauge("slot_crashes", "crashes", "Crashes observed on this worker slot."),
    _worker_gauge("heartbeats", "heartbeats", "Heartbeats received from this slot."),
    _worker_gauge("task_seq", "task_seq", "Tasks completed per the slot's last heartbeat."),
    _worker_gauge("host_cycles", "host_cycles",
                  "Cumulative simulated cycles per the slot's last heartbeat."),
    _worker_gauge("rss_bytes", "rss_bytes", "Worker resident set size per its last heartbeat."),
    _worker_gauge("batches", "batches", "Batch-drain dispatches sent to this worker slot."),
    _worker_gauge("batched_tasks", "batched_tasks",
                  "Tasks carried by this slot's batch-drain dispatches."),
    _worker_gauge("batch_occupancy", "batch_occupancy",
                  "Mean fill fraction of this slot's batch dispatches "
                  "(batched_tasks / (batches * batch width))."),
    _worker_gauge("heartbeat_age_seconds", "last_heartbeat_age_s",
                  "Seconds since this slot's last heartbeat (at report time)."),
    _fabric("worker_healthy", "gauge",
            "1 when the slot's health verdict is pass, else 0.", _workers(_worker_health)),
    _fabric("worker_stall_cycles", "gauge",
            "Cumulative simulated stall cycles by cause, per the slot's last heartbeat.",
            _workers(_worker_stalls)),
    _fabric("cache_events", "counter",
            "Parent-side schedule-cache and codegen cache events "
            "(hit/miss/heal/compile counters).", _cache_events),
    # Attached ``IngestServer`` (``report["ingest"]``, None when absent).
    _ingest_family("listener_alive", "gauge",
                   "1 while the ingest listener thread serves its sockets.",
                   _ingest_scalar("listening", lambda v: int(bool(v)))),
    _ingest_family("datagrams", "counter",
                   "Datagrams the listener pulled off its sockets.", _ingest_scalar("datagrams")),
    _ingest_family("staged", "gauge",
                   "Reassembled packets staged, awaiting submission into the fabric.",
                   _ingest_scalar("staged")),
    _ingest_family("malformed", "counter",
                   "Datagrams rejected before stream attribution, by parse failure.",
                   _keyed("kind", "ingest", "malformed")),
    _ingest_family("evicted_streams", "counter",
                   "Streams evicted under stream-id churn; their lifetime "
                   "counters are folded into the report's aggregate bucket.",
                   lambda r: [("", None, _get(r, "ingest", "evicted", "streams") or None)]),
    _stream_counter("received", "Data datagrams received for this stream."),
    _stream_counter("bytes", "Payload bytes received for this stream."),
    _stream_counter("reassembled", "Packets fully reassembled and decoded for this stream."),
    _stream_counter("released", "Packets released in sequence order toward the fabric."),
    _stream_counter("submitted", "Released packets the fabric accepted for this stream."),
    _stream_counter("out_of_order", "Datagrams that arrived behind a later (seq, fragment) key."),
    _stream_counter("duplicates", "Duplicate datagrams discarded during reassembly."),
    _stream_counter("stale", "Datagrams for sequences already released or written off."),
    _stream_counter("gaps", "Sequence numbers declared lost with no datagram ever seen."),
    _stream_counter("resets", "Stream state resets caused by a session nonce change."),
    # Every way a *seen* packet can fail to reach a worker, by reason.
    _ingest_family("dropped", "counter",
                   "Packets that never reached a worker, by stream and typed reason "
                   "(fragment loss, corruption, staging overflow, fabric backpressure).",
                   _streams(
                       ("incomplete", {"reason": "incomplete"}),  # fragment lost in window
                       ("corrupt", {"reason": "corrupt"}),
                       ("shed_overflow", {"reason": "overflow"}),
                       ("shed_dropped", {"reason": "backpressure_dropped"}),
                       ("shed_rejected", {"reason": "backpressure_rejected"}),
                   )),
)


def fabric_prometheus_text(report: dict) -> str:
    """Render a fabric report dict as Prometheus exposition text."""
    return exposition(FABRIC_FAMILIES, report)
