"""Multi-core streaming fabric over the compile-once modem runtime.

The paper's processor is one slave core in a multi-core baseband
platform (Section 2.A); production systems scale *out* by tiling many
such cores behind a dispatcher (cf. the 1024-core shared-L1 SDR cluster
and the hierarchical dataflow baseband architectures in PAPERS.md).
``repro.fabric`` models that serving layer in software:

- :class:`Fabric` owns N worker processes, each a resident
  :class:`~repro.runtime.ModemRuntime` (running up to ``batch`` coalesced
  same-shape packets per lockstep call) forked from a pre-warmed parent
  template so spin-up performs zero ``ModuloScheduler.schedule`` calls;
- :class:`Dispatcher` routes packets with pluggable policies
  (``round_robin``, ``least_loaded``, ``shape_affinity``);
- submission queues are bounded with explicit backpressure modes
  (``block``, ``drop``, ``deadline``), every shed packet accounted;
- a crashed (or SIGKILLed) worker is detected via its process sentinel,
  its in-flight packets are requeued to surviving workers — results
  stay bit-identical to a serial :class:`~repro.modem.receiver.SimReceiver`
  run — and the slot is respawned;
- :mod:`repro.fabric.stream` drives Poisson packet arrivals with mixed
  CFO/SNR/shape, and :mod:`repro.fabric.report` renders per-worker and
  fabric-level counters plus latency percentiles as JSON or Prometheus
  text.
"""

from repro.fabric.dispatcher import POLICIES, Dispatcher, FabricTask, WorkerState
from repro.fabric.fabric import (
    BACKPRESSURE_MODES,
    DeadlineExceeded,
    Fabric,
    FabricClosed,
    FabricError,
    FabricTaskError,
    SubmitOutcome,
    SubmitTimeout,
)
from repro.fabric.report import (
    COMPATIBLE_REPORT_SCHEMAS,
    FABRIC_REPORT_SCHEMA,
    fabric_prometheus_text,
    fabric_report_json,
    latency_percentiles,
    latency_summary,
    percentile,
    scenario_accounting,
)
from repro.fabric.stream import (
    DEFAULT_SCENARIO_MIX,
    StreamEvent,
    mixed_scenario_stream,
    poisson_stream,
    run_stream,
    stream_truth,
)

__all__ = [
    "BACKPRESSURE_MODES",
    "COMPATIBLE_REPORT_SCHEMAS",
    "DEFAULT_SCENARIO_MIX",
    "DeadlineExceeded",
    "Dispatcher",
    "FABRIC_REPORT_SCHEMA",
    "Fabric",
    "FabricClosed",
    "FabricError",
    "FabricTask",
    "FabricTaskError",
    "POLICIES",
    "StreamEvent",
    "SubmitOutcome",
    "SubmitTimeout",
    "WorkerState",
    "fabric_prometheus_text",
    "fabric_report_json",
    "latency_percentiles",
    "latency_summary",
    "mixed_scenario_stream",
    "percentile",
    "poisson_stream",
    "run_stream",
    "scenario_accounting",
    "stream_truth",
]
