"""Fabric observability: latency percentiles, JSON and Prometheus views.

The fabric report is the serving-layer sibling of the per-run trace
report (``repro.trace.report``): fabric-level counters (submissions,
drops, rejections, requeues, respawns), per-worker occupancy and
spin-up provenance, heartbeat/watchdog liveness, rolling-window
aggregates and end-to-end latency percentiles.  The JSON form is
embedded in ``BENCH_fabric_scaling.json`` and validated in CI;
:func:`fabric_prometheus_text` renders the same numbers in the
Prometheus exposition format, sharing the escaping-correct sample and
``# HELP``/``# TYPE`` builders in :mod:`repro.obs.prom` with
``repro.trace.export``.

The nearest-rank :func:`percentile` now lives in
:mod:`repro.obs.window` (the rolling windows need it and ``repro.obs``
is a stdlib-only leaf); it is re-exported here so existing importers —
``benchmarks/reporting.py``, tests — keep working unchanged.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.obs.prom import prom_header, prom_sample
from repro.obs.window import percentile

__all__ = [
    "COMPATIBLE_REPORT_SCHEMAS",
    "FABRIC_REPORT_SCHEMA",
    "fabric_prometheus_text",
    "fabric_report_json",
    "latency_percentiles",
    "latency_summary",
    "percentile",
    "scenario_accounting",
]

#: Format identifier embedded in every fabric report.  v2 added the
#: ``ingest`` section (None unless an ``IngestServer`` is attached);
#: v3 added batch-drain accounting: a top-level ``batch`` width and
#: per-worker ``batches`` / ``batched_tasks`` / ``batch_occupancy`` /
#: ``spinup_batched`` (all None/absent when batching is off).
FABRIC_REPORT_SCHEMA = "repro.fabric_report/v3"

#: Prior revisions attach-mode tooling still accepts.
COMPATIBLE_REPORT_SCHEMAS = (
    "repro.fabric_report/v1",
    "repro.fabric_report/v2",
    FABRIC_REPORT_SCHEMA,
)

_PREFIX = "repro_fabric_"
_INGEST_PREFIX = "repro_ingest_"


def latency_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """The standard p50/p95/p99 triple from a latency sample list."""
    return {
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
    }


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Percentiles plus count/mean/max; zeros when nothing completed."""
    if not samples:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    summary = {"count": len(samples)}
    summary.update(latency_percentiles(samples))
    summary["mean"] = float(sum(samples) / len(samples))
    summary["max"] = float(max(samples))
    return summary


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
# Prometheus rendering.
# ----------------------------------------------------------------------

_COUNTER_HELP = {
    "submitted": "Packets accepted by Fabric.offer().",
    "completed": "Packet results recorded (including task errors).",
    "dropped": "Packets shed immediately in drop backpressure mode.",
    "rejected": "Packets shed by a deadline, at submit or while queued.",
    "requeued": "Crash-orphaned packets moved onto surviving workers.",
    "duplicates": "Results discarded by the exactly-once guard.",
    "task_errors": "Packets whose worker raised; the worker kept serving.",
    "worker_crashes": "Worker process deaths noticed by the fabric.",
    "respawns": "Worker slots respawned from the warm template.",
    "heartbeats": "Worker heartbeat messages received by the fabric.",
    "watchdog_flags": "Worker slots flagged stuck by the watchdog.",
    "watchdog_kills": "Stuck workers killed by watchdog escalation.",
}

_GAUGE_HELP = {
    "workers": "Configured worker slots in this fabric.",
    "batch": "Batch-drain width (1 = per-packet dispatch).",
    "outstanding": "Accepted packets not yet completed (pending + in-flight).",
    "packets_per_sec": "Lifetime completed-packet throughput.",
    "wall_seconds": "Seconds since the fabric started.",
    "heartbeat_interval_seconds": "Configured worker heartbeat period (0 = disabled).",
}

_WORKER_GAUGES = (
    ("worker_completed", "completed", "Packets completed by this worker slot."),
    ("worker_occupancy", "occupancy", "Busy-time fraction of this worker slot."),
    ("worker_queue_depth", "load", "Pending plus in-flight packets on this slot."),
    ("worker_crashes", "crashes", "Crashes observed on this worker slot."),
    ("worker_heartbeats", "heartbeats", "Heartbeats received from this slot."),
    ("worker_task_seq", "task_seq", "Tasks completed per the slot's last heartbeat."),
    ("worker_host_cycles", "host_cycles",
     "Cumulative simulated cycles per the slot's last heartbeat."),
    ("worker_rss_bytes", "rss_bytes",
     "Worker resident set size per its last heartbeat."),
    ("worker_batches", "batches",
     "Batch-drain dispatches sent to this worker slot."),
    ("worker_batched_tasks", "batched_tasks",
     "Tasks carried by this slot's batch-drain dispatches."),
    ("worker_batch_occupancy", "batch_occupancy",
     "Mean fill fraction of this slot's batch dispatches "
     "(batched_tasks / (batches * batch width))."),
)


def _family(lines: List[str], name: str, mtype: str, help_text: str) -> str:
    full = _PREFIX + name
    lines.extend(prom_header(full, mtype, help_text))
    return full


def fabric_prometheus_text(report: dict) -> str:
    """Render a fabric report dict as Prometheus exposition text."""
    lines: List[str] = []
    for name, value in sorted(report.get("counters", {}).items()):
        full = _family(
            lines, name, "counter", _COUNTER_HELP.get(name, "Fabric counter.")
        )
        lines.append(prom_sample(full, value))
    gauges = [
        ("workers", report.get("workers")),
        ("batch", report.get("batch")),
        ("outstanding", report.get("outstanding")),
        ("packets_per_sec", report.get("packets_per_sec")),
        ("wall_seconds", report.get("wall_s")),
        ("heartbeat_interval_seconds", report.get("heartbeat_s")),
    ]
    for name, value in gauges:
        if value is None:
            continue
        full = _family(lines, name, "gauge", _GAUGE_HELP.get(name, "Fabric gauge."))
        lines.append(prom_sample(full, value))

    latency = report.get("latency_s", {})
    if latency:
        full = _family(
            lines, "latency_seconds", "summary",
            "End-to-end packet latency (lifetime, nearest-rank quantiles).",
        )
        # Prometheus summary convention: fractional quantile labels.
        for key, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            if key in latency:
                lines.append(
                    prom_sample(full, latency[key], {"quantile": quantile})
                )
        count = latency.get("count", 0)
        lines.append(prom_sample(full + "_count", count))
        lines.append(
            prom_sample(full + "_sum", round(latency.get("mean", 0.0) * count, 6))
        )

    _render_window(lines, report.get("window"))
    _render_workers(lines, report.get("per_worker", []))
    _render_cache(lines, report.get("cache"))
    _render_scenarios(lines, report.get("scenarios"))
    _render_ingest(lines, report.get("ingest"))
    return "\n".join(lines) + "\n"


def _render_window(lines: List[str], window) -> None:
    """The rolling-window families: last-N-seconds behaviour, not lifetime."""
    if not window:
        return
    full = _family(
        lines, "window_seconds", "gauge", "Rolling aggregation window length."
    )
    lines.append(prom_sample(full, window.get("window_s")))
    full = _family(
        lines, "window_events", "gauge",
        "Fabric events that occurred within the rolling window, by kind.",
    )
    for kind, value in sorted(window.get("counts", {}).items()):
        lines.append(prom_sample(full, value, {"kind": kind}))
    simple = [
        ("window_packets_per_sec", window.get("throughput_pps"),
         "Completed-packet throughput over the rolling window."),
        ("window_offered_per_sec", window.get("offered_pps"),
         "Accepted-submission rate over the rolling window."),
        ("window_shed", window.get("shed"),
         "Packets shed (dropped + rejected) within the rolling window."),
        ("window_queue_depth_mean", window.get("queue_depth", {}).get("mean"),
         "Mean outstanding packets sampled over the rolling window."),
        ("window_inflight_mean", window.get("inflight", {}).get("mean"),
         "Mean in-pipe packets sampled over the rolling window."),
    ]
    for name, value, help_text in simple:
        if value is None:
            continue
        full = _family(lines, name, "gauge", help_text)
        lines.append(prom_sample(full, value))
    latency = window.get("latency_s", {})
    if latency:
        full = _family(
            lines, "window_latency_seconds", "gauge",
            "Windowed nearest-rank latency quantiles (fractional quantile label).",
        )
        for key, quantile in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            if key in latency:
                lines.append(prom_sample(full, latency[key], {"quantile": quantile}))


def _render_workers(lines: List[str], per_worker: List[dict]) -> None:
    if not per_worker:
        return
    for name, key, help_text in _WORKER_GAUGES:
        if not any(worker.get(key) is not None for worker in per_worker):
            continue
        full = _family(lines, name, "gauge", help_text)
        for worker in per_worker:
            value = worker.get(key)
            if value is None:
                continue
            lines.append(prom_sample(full, value, {"worker": worker["index"]}))
    if any(worker.get("last_heartbeat_age_s") is not None for worker in per_worker):
        full = _family(
            lines, "worker_heartbeat_age_seconds", "gauge",
            "Seconds since this slot's last heartbeat (at report time).",
        )
        for worker in per_worker:
            age = worker.get("last_heartbeat_age_s")
            if age is not None:
                lines.append(prom_sample(full, age, {"worker": worker["index"]}))
    if any(worker.get("health") for worker in per_worker):
        full = _family(
            lines, "worker_healthy", "gauge",
            "1 when the slot's health verdict is pass, else 0.",
        )
        for worker in per_worker:
            verdict = worker.get("health")
            if verdict:
                lines.append(
                    prom_sample(
                        full, 1 if verdict == "pass" else 0,
                        {"worker": worker["index"], "verdict": verdict},
                    )
                )
    if any(worker.get("stall_causes") for worker in per_worker):
        full = _family(
            lines, "worker_stall_cycles", "gauge",
            "Cumulative simulated stall cycles by cause, per the slot's "
            "last heartbeat.",
        )
        for worker in per_worker:
            for cause, cycles in sorted((worker.get("stall_causes") or {}).items()):
                lines.append(
                    prom_sample(
                        full, cycles, {"worker": worker["index"], "cause": cause}
                    )
                )


_SCENARIO_FAMILIES = (
    ("scenario_packets", "packets", "counter",
     "Packets served per impairment scenario."),
    ("scenario_bits", "bits", "counter",
     "Payload bits checked against ground truth per scenario."),
    ("scenario_bit_errors", "bit_errors", "counter",
     "Decoded bit errors per scenario."),
    ("scenario_ber", "ber", "gauge",
     "Bit error rate per scenario over the whole run."),
    ("scenario_task_errors", "errors", "counter",
     "Packets per scenario whose decode raised or never completed."),
)


def _render_scenarios(lines: List[str], scenarios) -> None:
    """Per-scenario link-quality counters (``scenario_accounting`` output)."""
    if not scenarios:
        return
    for name, key, mtype, help_text in _SCENARIO_FAMILIES:
        full = _family(lines, name, mtype, help_text)
        for scenario, bucket in sorted(scenarios.items()):
            lines.append(
                prom_sample(full, bucket.get(key, 0), {"scenario": scenario})
            )


#: Per-stream ingest counter families: (suffix, report key, HELP).
_INGEST_STREAM_COUNTERS = (
    ("received", "received", "Data datagrams received for this stream."),
    ("bytes", "bytes", "Payload bytes received for this stream."),
    ("reassembled", "reassembled",
     "Packets fully reassembled and decoded for this stream."),
    ("released", "released",
     "Packets released in sequence order toward the fabric."),
    ("submitted", "submitted",
     "Released packets the fabric accepted for this stream."),
    ("out_of_order", "out_of_order",
     "Datagrams that arrived behind a later (seq, fragment) key."),
    ("duplicates", "duplicates",
     "Duplicate datagrams discarded during reassembly."),
    ("stale", "stale",
     "Datagrams for sequences already released or written off."),
    ("gaps", "gaps",
     "Sequence numbers declared lost with no datagram ever seen."),
    ("resets", "resets",
     "Stream state resets caused by a session nonce change."),
)

#: ``repro_ingest_dropped{stream,reason}``: every way a *seen* packet
#: can fail to reach a worker, by typed reason.
_INGEST_DROP_REASONS = (
    ("incomplete", "incomplete"),  # lost a fragment inside the window
    ("corrupt", "corrupt"),
    ("shed_overflow", "overflow"),
    ("shed_dropped", "backpressure_dropped"),
    ("shed_rejected", "backpressure_rejected"),
)


def _render_ingest(lines: List[str], ingest) -> None:
    """The ``repro_ingest_*`` families (attached ``IngestServer`` only)."""
    if not ingest:
        return
    full = _INGEST_PREFIX + "listener_alive"
    lines.extend(prom_header(
        full, "gauge", "1 while the ingest listener thread serves its sockets."
    ))
    lines.append(prom_sample(full, 1 if ingest.get("listening") else 0))
    full = _INGEST_PREFIX + "datagrams"
    lines.extend(prom_header(
        full, "counter", "Datagrams the listener pulled off its sockets."
    ))
    lines.append(prom_sample(full, ingest.get("datagrams", 0)))
    full = _INGEST_PREFIX + "staged"
    lines.extend(prom_header(
        full, "gauge",
        "Reassembled packets staged, awaiting submission into the fabric.",
    ))
    lines.append(prom_sample(full, ingest.get("staged", 0)))
    malformed = ingest.get("malformed") or {}
    if malformed:
        full = _INGEST_PREFIX + "malformed"
        lines.extend(prom_header(
            full, "counter",
            "Datagrams rejected before stream attribution, by parse failure.",
        ))
        for kind, value in sorted(malformed.items()):
            lines.append(prom_sample(full, value, {"kind": kind}))
    evicted = ingest.get("evicted") or {}
    if evicted.get("streams"):
        full = _INGEST_PREFIX + "evicted_streams"
        lines.extend(prom_header(
            full, "counter",
            "Streams evicted under stream-id churn; their lifetime "
            "counters are folded into the report's aggregate bucket.",
        ))
        lines.append(prom_sample(full, evicted["streams"]))
    streams = ingest.get("streams") or {}
    if not streams:
        return
    for suffix, key, help_text in _INGEST_STREAM_COUNTERS:
        full = _INGEST_PREFIX + suffix
        lines.extend(prom_header(full, "counter", help_text))
        for stream_id, view in sorted(streams.items(), key=lambda kv: int(kv[0])):
            lines.append(prom_sample(full, view.get(key, 0), {"stream": stream_id}))
    full = _INGEST_PREFIX + "dropped"
    lines.extend(prom_header(
        full, "counter",
        "Packets that never reached a worker, by stream and typed reason "
        "(fragment loss, corruption, staging overflow, fabric backpressure).",
    ))
    for stream_id, view in sorted(streams.items(), key=lambda kv: int(kv[0])):
        for key, reason in _INGEST_DROP_REASONS:
            lines.append(
                prom_sample(
                    full, view.get(key, 0), {"stream": stream_id, "reason": reason}
                )
            )


def _render_cache(lines: List[str], cache) -> None:
    """Schedule-cache and codegen counters as one labelled family."""
    if not cache:
        return
    full = _family(
        lines, "cache_events", "counter",
        "Parent-side schedule-cache and codegen cache events "
        "(hit/miss/heal/compile counters).",
    )
    for cache_name, counters in sorted(cache.items()):
        for event, value in sorted((counters or {}).items()):
            lines.append(
                prom_sample(full, value, {"cache": cache_name, "event": event})
            )


def fabric_report_json(report: dict) -> str:
    """The fabric report as pretty-printed JSON text."""
    return json.dumps(report, indent=1, sort_keys=True)
