"""Multi-core streaming fabric over the compile-once modem runtime.

The paper's processor is one slave core in a multi-core baseband
platform (Section 2.A); production systems scale *out* by tiling many
such cores behind a dispatcher (cf. the 1024-core shared-L1 SDR cluster
and the hierarchical dataflow baseband architectures in PAPERS.md).
``repro.fabric`` models that serving layer in software:

- :class:`Fabric` owns N worker processes, each a resident
  :class:`~repro.runtime.ModemRuntime` forked from a pre-warmed parent
  template, so spin-up performs zero ``ModuloScheduler.schedule`` calls.
  Every dispatch carries up to ``batch`` coalesced packets, of any
  shapes, and is one ``run_batch_results`` call: the runtime runs them
  on its one resident lane set, in lockstep on the compiled tier, and
  replays a lane that faults in lockstep alone on its own core;
- :class:`Dispatcher` routes packets with pluggable policies
  (``round_robin``, ``least_loaded``);
- submission queues are bounded with explicit backpressure modes
  (``block``, ``drop``, ``deadline``), every shed packet accounted;
- a crashed (or SIGKILLed) worker is detected via its process sentinel,
  its in-flight packets are requeued to surviving workers — results
  stay bit-identical to a serial :class:`~repro.runtime.ModemRuntime`
  run — and the slot is respawned;
- :mod:`repro.fabric.stream` drives Poisson packet arrivals with mixed
  CFO/SNR/shape, and :mod:`repro.fabric.report` declares the
  Prometheus families rendered from ``Fabric.report()`` (per-worker and
  fabric-level counters plus latency percentiles).
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
    FABRIC_REPORT_SCHEMA,
    fabric_prometheus_text,
    latency_percentiles,
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
    "latency_percentiles",
    "mixed_scenario_stream",
    "poisson_stream",
    "run_stream",
    "scenario_accounting",
    "stream_truth",
]
