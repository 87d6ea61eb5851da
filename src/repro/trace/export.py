"""Exporters: Chrome/Perfetto ``trace_event`` JSON and Prometheus text.

Both exporters are read-only views over a :class:`~repro.trace.tracer.Tracer`
or an activity-statistics object; neither imports the simulator (the
statistics argument is duck-typed through ``as_dict()``), keeping
``repro.trace`` a leaf package.

Chrome trace
------------
:func:`chrome_trace` returns the ``{"traceEvents": [...]}`` object the
Chrome tracing UI and https://ui.perfetto.dev load directly.  Event
categories map to named threads of one process, so the mode timeline
(``mode``), the Table-2 regions (``region``), stall instants (``stall``)
and compiler events (``compiler``) appear as parallel tracks.
Timestamps are emitted cycle-for-microsecond: one simulated cycle
renders as 1 us, which keeps Perfetto's zoom ergonomic for kernel-scale
traces.

Prometheus text
---------------
:func:`prometheus_text` renders the counters declared in
:data:`SIM_FAMILIES` with the shared :func:`repro.obs.prom.exposition`
renderer, so a run's statistics can be diffed or scraped with standard
tooling.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

# Stdlib-only leaf module (like this one); no cycle, see repro.obs.
from repro.obs.prom import Family, exposition
from repro.trace.tracer import Tracer

#: Stable thread ids per category; unknown categories get ids above these.
_CATEGORY_TIDS = {"region": 1, "mode": 2, "stall": 3, "mem": 4, "bus": 5, "compiler": 6}

PID = 1


def _tid_of(cat: str, extra: Dict[str, int]) -> int:
    if cat in _CATEGORY_TIDS:
        return _CATEGORY_TIDS[cat]
    if cat not in extra:
        extra[cat] = max(_CATEGORY_TIDS.values()) + 1 + len(extra)
    return extra[cat]


def chrome_trace_events(tracer: Tracer) -> List[dict]:
    """Map buffered events to Chrome ``trace_event`` dicts."""
    extra: Dict[str, int] = {}
    out: List[dict] = []
    seen_tids: Dict[int, str] = {}
    for event in tracer.events:
        tid = _tid_of(event.cat, extra)
        seen_tids.setdefault(tid, event.cat)
        entry = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.kind,
            "ts": event.ts,
            "pid": PID,
            "tid": tid,
        }
        if event.kind == "X":
            entry["dur"] = event.dur
        if event.kind == "i":
            entry["s"] = "t"  # thread-scoped instant
        if event.args:
            entry["args"] = event.args
        out.append(entry)
    # Thread-name metadata so Perfetto labels the tracks.
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": PID,
            "tid": tid,
            "args": {"name": cat},
        }
        for tid, cat in sorted(seen_tids.items())
    ]
    meta.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": PID,
            "tid": 0,
            "args": {"name": "repro simulated core"},
        }
    )
    return meta + out


def chrome_trace(tracer: Tracer, meta: Optional[dict] = None) -> dict:
    """The complete Chrome-trace JSON object for *tracer*."""
    other = {"clock": "core cycles (rendered as us)", "dropped_events": tracer.dropped}
    if meta:
        other.update(meta)
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(path: str, tracer: Tracer, meta: Optional[dict] = None) -> None:
    """Serialise :func:`chrome_trace` to *path*."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, meta), fh, indent=1)


# ----------------------------------------------------------------------
# Prometheus exposition format.
# ----------------------------------------------------------------------

_PREFIX = "repro_sim_"

#: ``ActivityStats`` scalar counters (``as_dict()["counters"]``), sorted.
_COUNTERS = (
    "bus_reads", "bus_writes", "cdrf_reads", "cdrf_writes", "cga_cycles",
    "cga_ops", "config_words", "cprf_reads", "cprf_writes", "dma_words",
    "icache_hits", "icache_misses", "interconnect_transfers",
    "l1_bank_conflicts", "l1_conflict_stall_cycles", "l1_reads", "l1_writes",
    "lrf_reads", "lrf_writes", "sleep_cycles", "squashed_ops", "stall_cycles",
    "vliw_cycles", "vliw_ops",
)


def _counter(name: str) -> Family:
    return Family(
        _PREFIX + name, "counter", "Simulator activity counter %s." % name,
        lambda data: [("", None, data.get("counters", {}).get(name))],
    )


def _keyed(name: str, key: str, label: str, help_text: str) -> Family:
    def samples(data):
        for item, value in sorted(data.get(key, {}).items(), key=lambda kv: str(kv[0])):
            yield "", {label: item}, value
    return Family(_PREFIX + name, "counter", help_text, samples)


#: Every Prometheus family rendered from ``ActivityStats.as_dict()``.
SIM_FAMILIES = tuple(_counter(name) for name in _COUNTERS) + (
    _keyed("fu_ops", "fu_ops", "fu", "Executed operations per functional unit."),
    _keyed("op_group_ops", "op_groups", "group",
           "Executed operations per ISA operation group."),
    _keyed("stall_cycles_by_cause", "stall_causes", "cause",
           "Stalled cycles attributed per cause (causes sum exactly to stall_cycles)."),
)


def prometheus_text(stats, labels: Optional[Dict[str, object]] = None) -> str:
    """Render *stats* (anything with ``as_dict()``) as Prometheus text.

    Scalar counters become ``repro_sim_<name>``; keyed counters become
    labelled series (``repro_sim_fu_ops{fu="3"}``,
    ``repro_sim_stall_cycles_by_cause{cause="bank_conflict"}``, ...).
    *labels* go on every sample.  Only the families in
    :data:`SIM_FAMILIES` are rendered.
    """
    return exposition(SIM_FAMILIES, stats.as_dict(), labels)
