"""The benchmark harness: set up, serve, check, measure.

One workload run, in order:

1. generate the seeded traffic (``traffic.py``) and, for the warm
   workloads, make sure the schedule/codegen cache for this exact source
   tree exists (built once per checkout in a separate process);
2. **set-up**, timed and repeated: build a
   :class:`~repro.runtime.BatchedModemRuntime` template on the cache,
   warm it on every packet shape at every batch width 1..B, fork the
   2-worker :class:`~repro.fabric.Fabric` from it and wait until every
   worker reported ready.  In-memory caches are dropped before each
   repeat, so every repeat loads from disk the way a fresh process does;
3. **serve**: an :class:`~repro.ingest.IngestServer` (TCP or UDP) feeds
   the fabric while the :class:`~traffic.Sender` thread sends; this
   thread is the fabric's owner and polls the server until every sent
   packet is accounted;
4. **check**: the ingest ledger balances, every result is a
   :class:`~repro.modem.receiver.ReceiverOutput`, and a sample of
   packets re-run on the reference interpreter gives identical bits and
   cycle counts;
5. **measure**: end-to-end metrics always, scaled to the reference
   host by the host's speed sampled through set-up and serving
   (``hostspeed.py``); per-layer metrics from the spans when traced
   (``spans.py``), as measured.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import platform
import re
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import spans as span_lib
from hostspeed import REFERENCE_S, HostSpeed
from repro.compiler.linker import clear_schedule_cache, schedule_cache_stats
from repro.fabric import Fabric
from repro.ingest import IngestServer, iq_roundtrip
from repro.modem.receiver import ReceiverOutput
from repro.obs.window import percentile
from repro.runtime import BatchedModemRuntime, ModemRuntime
from repro.runtime.workload import make_packet
from repro.sim.codegen import clear_codegen_cache, codegen_stats
from traffic import (
    DTYPE, MIXED_PADS, STREAM_ID, WINDOW, WORKLOADS, Sender, Traffic, make_traffic,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(ROOT, "benchmarks", "out", "suite")
CACHE_ROOT = os.path.join(DEFAULT_OUT, "cache")

# The fixed serving configuration, identical for every workload.
WORKERS = 2
BATCH = 4
QUEUE_DEPTH = 16

#: Timed set-ups per warm run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: The paper's clock, for simulated time.
CLOCK_HZ = 400e6
#: Simulated-core metrics average the packets with seq below this, a
#: set fixed by the seed (not by how fast the run went).
KERNEL_SAMPLE = 16
#: One packet in this many is re-run on the reference interpreter ...
REFERENCE_EVERY = 50
#: ... and never fewer than this many.
MIN_REFERENCE_CHECKS = 4
#: A run whose generator sent later than this (p95) is flagged invalid.
MAX_SEND_LAG_S = 0.020
#: Owner-thread poll interval: bounds how late a result is observed.
POLL_S = 0.005
READY_TIMEOUT_S = 60.0
#: Hard stop for serving past the measured window.
SERVE_SLACK_S = 90.0


class HarnessError(RuntimeError):
    """The run could not be completed (as opposed to completing wrong)."""


# ----------------------------------------------------------------------
# Environment and metadata.
# ----------------------------------------------------------------------


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_fingerprint() -> str:
    """Digest of every ``src/repro`` source file.

    Keys the warm cache: the schedule cache's own key has no compiler
    fingerprint, so a cache built by other sources would hand this tree
    stale schedules.
    """
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` ("unknown" outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def max_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ----------------------------------------------------------------------
# The warm cache.
# ----------------------------------------------------------------------


def _prime(cache_dir: str, rxs: List[np.ndarray]) -> None:
    runtime = BatchedModemRuntime(batch=BATCH, cache_dir=cache_dir)
    for rx in rxs:
        for width in range(1, BATCH + 1):
            runtime.run_batch([rx] * width)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by another user
        pass
    return True


def remove_stale_caches(keep: str) -> None:
    """Delete every entry of the cache root but *keep*.

    That is the caches of other source trees and the temporary
    directories of priming runs that died; a live run's temporary
    directory stays.
    """
    for name in os.listdir(CACHE_ROOT):
        path = os.path.join(CACHE_ROOT, name)
        if path == keep:
            continue
        _, tmp, pid = name.rpartition(".tmp-")
        if tmp and pid.isdigit() and _pid_alive(int(pid)):
            continue
        shutil.rmtree(path, ignore_errors=True)


def warm_cache_dir() -> str:
    """The primed cache for this source tree, built on first use.

    Priming runs in its own process so its compile work and memory stay
    out of the measuring process, into a temporary directory renamed
    into place only when complete.  Each source tree gets its own cache,
    so once a new one is in place the others are deleted.
    """
    final = os.path.join(CACHE_ROOT, source_fingerprint())
    if os.path.isdir(final):
        return final
    os.makedirs(CACHE_ROOT, exist_ok=True)
    tmp = "%s.tmp-%d" % (final, os.getpid())
    shapes = [iq_roundtrip(make_packet(seed=0, extra_pad=pad).rx, DTYPE) for pad in MIXED_PADS]
    print("priming the schedule/codegen cache in %s ..." % final, flush=True)
    proc = multiprocessing.get_context("fork").Process(target=_prime, args=(tmp, shapes))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise HarnessError("cache priming failed (exit code %s)" % proc.exitcode)
    try:
        os.rename(tmp, final)
    except OSError:  # another run finished priming first
        shutil.rmtree(tmp, ignore_errors=True)
    remove_stale_caches(final)
    return final


# ----------------------------------------------------------------------
# Set-up.
# ----------------------------------------------------------------------


@dataclass
class SetupRecord:
    #: Per repeat: when construction started and every worker was ready.
    windows: List[Tuple[float, float]]
    #: Per repeat: codegen_stats() and schedule_cache_stats() deltas.
    counters: List[dict]
    parent_rss_mb: float

    @property
    def times(self) -> List[float]:
        return [end - start for start, end in self.windows]


def _phase(writer, name: str):
    return writer.span(name) if writer is not None else nullcontext()


def build_fabric(cache_dir: str, warm_rxs: List[np.ndarray]):
    """Template runtime warmed on every shape x width, forked fabric, ready."""
    t0 = time.perf_counter()
    template = BatchedModemRuntime(batch=BATCH, cache_dir=cache_dir)
    for rx in warm_rxs:
        for width in range(1, BATCH + 1):
            template.run_batch([rx] * width)
    fab = Fabric(
        workers=WORKERS,
        policy="round_robin",
        backpressure="block",
        queue_depth=QUEUE_DEPTH,
        batch=BATCH,
        template_runtime=template,
        cache_dir=cache_dir,
        name="bench-suite",
    )
    fab.start()
    deadline = t0 + READY_TIMEOUT_S
    while any(w["spinup_s"] is None for w in fab.report()["per_worker"]):
        if time.perf_counter() > deadline:
            fab.shutdown(drain=False)
            raise HarnessError("fabric workers not ready within %.0fs" % READY_TIMEOUT_S)
        fab.poll(0.01)
    return fab, (t0, time.perf_counter())


def set_up(cache_dir: str, warm_rxs: List[np.ndarray], repeats: int, writer):
    """Build the fabric *repeats* times; returns the last one, still running."""
    fab = None
    windows, counters = [], []
    try:
        for _ in range(repeats):
            if fab is not None:
                fab.shutdown()
                fab = None
            gc.collect()
            clear_schedule_cache()
            clear_codegen_cache()
            with _phase(writer, "bench.setup"):
                fab, window = build_fabric(cache_dir, warm_rxs)
            windows.append(window)
            counters.append({"codegen": codegen_stats(), "schedule": schedule_cache_stats()})
    except BaseException:
        if fab is not None:
            fab.shutdown(drain=False)
        raise
    return fab, SetupRecord(windows, counters, max_rss_mb())


# ----------------------------------------------------------------------
# Serving.
# ----------------------------------------------------------------------


@dataclass
class ServeRecord:
    sender: Sender
    #: seq -> when its result was observed.
    observed: Dict[int, float]
    #: seq -> fabric result, for every packet the fabric accepted.
    results: Dict[int, object]
    report: dict
    #: The ingest report's view of the stream (ledger counters).
    stream: dict
    problems: List[str]
    start: float
    end: float


def _pump(fab, server, sender: Sender, hard_stop: float) -> Dict[int, float]:
    """Poll until every sent packet is observed or written off."""
    observed: Dict[int, float] = {}
    seq_of: Dict[int, int] = {}
    mapped = set()
    accepted = completed = 0
    last_progress = time.perf_counter()
    sender.start()
    while True:
        accepted += server.poll(POLL_S)
        now = time.perf_counter()
        done = accepted - fab.outstanding
        if done != completed:
            completed = done
            last_progress = now
            for key, task_id in server.submissions().items():
                if key not in mapped:
                    mapped.add(key)
                    seq_of[task_id] = key[1]
            results = fab.results()
            for task_id in [t for t in seq_of if t in results]:
                observed[seq_of.pop(task_id)] = now
                sender.release(now)
        if not sender.is_alive():
            if len(observed) >= sender.n_sent:
                return observed
            if not fab.outstanding and now - last_progress > 1.0:
                return observed  # the rest was lost on the wire
        if now > hard_stop:
            raise HarnessError("serving did not finish (%d outstanding)" % fab.outstanding)


def serve(fab, workload, traffic: Traffic, seconds: float, writer) -> ServeRecord:
    tcp = workload.transport == "tcp"
    server = IngestServer(
        fab,
        udp_port=None if tcp else 0,
        tcp_port=0 if tcp else None,
        track_submissions=len(traffic.cases) + 1,
    )
    problems = []
    with server:
        address = server.tcp_address if tcp else server.udp_address
        sender = Sender(workload, traffic, address, seconds)
        start = time.perf_counter()
        with _phase(writer, "bench.serve"):
            try:
                observed = _pump(fab, server, sender, start + seconds + SERVE_SLACK_S)
                server.drain(idle_s=0.1, timeout=60)
            finally:
                sender.stop()
                sender.join(timeout=30)
        end = time.perf_counter()
        by_task = fab.results()
        results = {}
        for (_, seq), task_id in server.submissions().items():
            results[seq] = by_task.get(task_id)
            if seq not in observed and task_id in by_task:
                observed[seq] = end  # completed during the final drain
        if sender.error is not None:
            problems.append("sender failed: %r" % (sender.error,))
        problems += server.accounting_problems({STREAM_ID: sender.n_sent})
        stream = server.ingest_report()["streams"].get(str(STREAM_ID), {})
    return ServeRecord(
        sender, observed, results, fab.report(), stream, problems, start, end
    )


# ----------------------------------------------------------------------
# Correctness.
# ----------------------------------------------------------------------

_REFERENCE: Optional[ModemRuntime] = None


def _reference_init(cache_dir: str) -> None:
    global _REFERENCE
    _REFERENCE = ModemRuntime(interpreter="reference", cache_dir=cache_dir)


def _reference_run(rx: np.ndarray):
    out = _REFERENCE.run_packet(rx)
    return out.bits.tolist(), int(out.stats.total_cycles)


def reference_problems(cache_dir: str, traffic: Traffic, results: Dict[int, object]):
    """Re-run a sample of served packets on the reference interpreter.

    Returns ``(problems, n_checked)``; the sample is spread evenly over
    the served sequence numbers.
    """
    served = sorted(s for s, r in results.items() if isinstance(r, ReceiverOutput))
    n = min(len(served), max(MIN_REFERENCE_CHECKS, len(served) // REFERENCE_EVERY))
    picks = [served[i * len(served) // n] for i in range(n)]
    rxs = [iq_roundtrip(traffic.cases[seq].rx, DTYPE) for seq in picks]
    # Forked, not spawned: the serving threads have ended by now, and a
    # spawned process starts multiprocessing's resource-tracker process,
    # which outlives this one.
    pool = multiprocessing.get_context("fork").Pool(
        WORKERS, initializer=_reference_init, initargs=(cache_dir,)
    )
    try:
        outs = pool.map(_reference_run, rxs, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    problems = []
    for seq, (bits, cycles) in zip(picks, outs):
        served_out = results[seq]
        if served_out.bits.tolist() != bits:
            problems.append("packet %d: bits differ from the reference interpreter" % seq)
        if int(served_out.stats.total_cycles) != cycles:
            problems.append(
                "packet %d: %d cycles, reference interpreter %d"
                % (seq, served_out.stats.total_cycles, cycles)
            )
    return problems, n


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def served_ok(record: ServeRecord) -> List[int]:
    return sorted(
        seq for seq, r in record.results.items()
        if isinstance(r, ReceiverOutput) and seq in record.observed
    )


def end_to_end(setup: SetupRecord, record: ServeRecord, host: HostSpeed):
    """The end-to-end metrics as on the reference host, and as measured.

    Measured times are divided by the host's slowdown over their own
    window (each set-up's, the serving window), and the closed loop's
    throughput is multiplied by it.  The open loop's throughput is the
    offered rate, not a speed, and memory does not scale: both stay as
    measured.
    """
    # A closed loop's first window of packets is all due at once and
    # queues behind itself: a ramp, not the loop's steady state.  After
    # it, WINDOW packets are always outstanding, so the closed loop's
    # mean latency is WINDOW / throughput (Little's law): there the
    # latency metrics restate throughput; only the open loop's are
    # independent of it.
    ramp = 0 if record.sender.workload.open_loop else WINDOW
    served = served_ok(record)
    ok = [s for s in served if s >= ramp] or served
    due = record.sender.due
    latencies = [record.observed[s] - due[s] for s in ok]
    span = max(record.observed[s] for s in ok) - min(due[s] for s in ok)
    worker_rss = max(w["rss_bytes"] or 0 for w in record.report["per_worker"])
    measured = {
        "throughput_pps": len(ok) / span,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "setup_s": statistics.median(setup.times),
        "rss_mb": setup.parent_rss_mb + worker_rss / 1e6,
    }
    slowdown = host.factor(record.start, record.end)
    setup_slowdowns = [host.factor(a, b) for a, b in setup.windows]
    scaled = dict(
        measured,
        latency_p50_s=measured["latency_p50_s"] / slowdown,
        latency_p90_s=measured["latency_p90_s"] / slowdown,
        setup_s=statistics.median(t / f for t, f in zip(setup.times, setup_slowdowns)),
    )
    if not record.sender.workload.open_loop:
        scaled["throughput_pps"] = measured["throughput_pps"] * slowdown
    return scaled, measured


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def simulated(record: ServeRecord, traffic: Traffic) -> Dict[str, float]:
    """Simulated-core metrics, averaged over the first packets of the stream."""
    sample = [
        (record.results[s], traffic.cases[s]) for s in range(KERNEL_SAMPLE)
        if isinstance(record.results.get(s), ReceiverOutput)
    ]
    n = len(sample)
    out: Dict[str, float] = {}
    if not n:
        return out
    out["kernels.preamble_us"] = sum(o.preamble_cycles for o, _ in sample) / n / CLOCK_HZ * 1e6
    out["kernels.data_pair_us"] = sum(o.data_cycles for o, _ in sample) / n / CLOCK_HZ * 1e6
    out["kernels.cga_ipc"] = _ratio(
        sum(o.stats.cga_ops for o, _ in sample), sum(o.stats.cga_cycles for o, _ in sample)
    )
    out["kernels.vliw_ipc"] = _ratio(
        sum(o.stats.vliw_ops for o, _ in sample), sum(o.stats.vliw_cycles for o, _ in sample)
    )
    for o, _ in sample:
        for cause, cycles in o.stats.stall_breakdown().items():
            name = "kernels.stall_cycles.%s" % cause
            out[name] = out.get(name, 0.0) + cycles / n
        for phase, regions in (("preamble", o.preamble_regions), ("data", o.data_regions)):
            for region in regions:
                name = "kernels.%s.%s.cycles" % (phase, _slug(region.name))
                out[name] = out.get(name, 0.0) + region.profile.cycles / n
    out["modem.ber"] = sum(float(np.mean(o.bits != case.bits)) for o, case in sample) / n
    return out


def _arg_sum(spans: List[dict], name: str, arg: str) -> float:
    return sum((s["args"] or {}).get(arg, 0) for s in spans if s["name"] == name)


def per_layer(
    trace_dir: str, setup: SetupRecord, record: ServeRecord, sim: Dict[str, float],
    span_cost_s: float,
):
    """Per-layer metrics from the merged spans; returns ``(metrics, problems)``."""
    spans = span_lib.load(trace_dir)
    phases = [s for s in spans if s["layer"] == "bench"]
    work = [s for s in spans if s["layer"] != "bench"]
    serve_phase = next(s for s in phases if s["name"] == "bench.serve")
    setups = [
        span_lib.in_window(work, s["start"], s["end"])
        for s in phases if s["name"] == "bench.setup"
    ]
    serve = span_lib.in_window(work, serve_phase["start"], serve_phase["end"])
    tot = span_lib.totals_by_name(serve)

    def wall(name):
        return tot.get(name, {}).get("wall_s", 0.0)

    def per_setup(fn):
        return statistics.mean(fn(window) for window in setups)

    def setup_total(window, name):
        return span_lib.totals_by_name(window).get(name, {}).get("wall_s", 0.0)

    def counter(cache, key):
        return statistics.mean(c[cache][key] for c in setup.counters)

    calls = [s["args"] for s in serve if s["name"] == "runtime.run_batch"]
    packets = sum(a["packets"] for a in calls)
    # Lockstep = ran as a lane of a multi-packet batch and never fell
    # back; a single-packet dispatch runs per packet by design.
    lockstep = sum(a["packets"] - a["fallbacks"] for a in calls if a["packets"] > 1)
    report = record.report
    workers = report["per_worker"]
    batches = sum(w["batches"] or 0 for w in workers)
    sim_cycles = sum(
        r.stats.total_cycles for r in record.results.values() if isinstance(r, ReceiverOutput)
    )
    serve_wall = record.end - record.start
    index = {(s["pid"], s["id"]) for s in serve}
    top_busy = sum(
        s["end"] - s["start"] for s in serve if (s["pid"], s["parent"]) not in index
    )
    m = {
        "ingest.datagrams": float(record.stream.get("received", 0)),
        "ingest.reassemble_s": wall("ingest.reassemble"),
        "ingest.poll_self_s": tot.get("ingest.poll", {}).get("self_s", 0.0),
        "fabric.offer_s": wall("fabric.offer"),
        "fabric.task_latency_p50_s": report["latency_s"]["p50"],
        "fabric.task_latency_p95_s": report["latency_s"]["p95"],
        "fabric.worker_busy_fraction": sum(w["busy_s"] for w in workers)
        / (WORKERS * serve_wall),
        "fabric.batch_occupancy": _ratio(
            sum(w["batched_tasks"] or 0 for w in workers), batches * BATCH
        ),
        "fabric.spinup_s": max(w["spinup_s"] or 0.0 for w in workers),
        "runtime.run_batch_s": wall("runtime.run_batch"),
        "runtime.packets_per_call": _ratio(packets, len(calls)),
        "runtime.lockstep_fraction": _ratio(lockstep, packets),
        "modem.host_prep_s_per_packet": _ratio(
            tot.get("runtime.run_batch", {}).get("self_s", 0.0), packets
        ),
        "sim.batch_run_s": wall("sim.batch_run"),
        "sim.lanes_per_call": _ratio(
            _arg_sum(serve, "sim.batch_run", "lanes"), tot.get("sim.batch_run", {}).get("count", 0)
        ),
        "sim.core_run_s": wall("sim.core_run"),
        "sim.host_us_per_kcycle": _ratio(
            span_lib.layer_busy(serve, "sim") * 1e6, sim_cycles / 1000
        ),
        "codegen.build_s": per_setup(lambda w: span_lib.layer_busy(w, "codegen")),
        "codegen.compilations": counter("codegen", "compilations"),
        "codegen.disk_hits": counter("codegen", "disk_hits"),
        "codegen.memory_hits": counter("codegen", "memory_hits"),
        "compiler.schedule_calls": per_setup(
            lambda w: sum(1 for s in w if s["name"] == "compiler.schedule")
        ),
        "compiler.schedule_s": per_setup(lambda w: setup_total(w, "compiler.schedule")),
        "compiler.link_s": per_setup(lambda w: setup_total(w, "compiler.link")),
        "compiler.schedule_cache_misses": counter("schedule", "misses"),
        "compiler.schedule_disk_hits": counter("schedule", "disk_hits"),
        "compiler.ii_excess": per_setup(lambda w: _arg_sum(w, "compiler.link", "ii_excess")),
        "trace.spans": float(len(serve)),
        "trace.overhead_fraction": _ratio(len(serve) * span_cost_s, top_busy),
    }
    m.update(sim)
    problems = []
    compiled = _arg_sum(serve, "codegen.build", "compiled")
    if compiled:
        problems.append("%d codegen compilations inside the timed window" % compiled)
    scheduled = sum(1 for s in serve if s["name"] == "compiler.schedule")
    if scheduled:
        problems.append("%d modulo-scheduler calls inside the timed window" % scheduled)
    span_lib.write_chrome_trace(os.path.join(trace_dir, "trace.json"), spans)
    return m, problems


# ----------------------------------------------------------------------
# One workload, end to end.
# ----------------------------------------------------------------------


def _declared_units(declared: dict, section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in declared[section]}


def _cpu_seconds() -> Dict[str, float]:
    """CPU seconds so far of this process and of its reaped children."""
    return {
        name: usage.ru_utime + usage.ru_stime
        for name, usage in (
            ("parent", resource.getrusage(resource.RUSAGE_SELF)),
            ("workers", resource.getrusage(resource.RUSAGE_CHILDREN)),
        )
    }


@dataclass
class RunRecord:
    """Everything one workload run measured, before metrics are derived."""

    setup: SetupRecord
    serve: ServeRecord
    problems: List[str]
    reference_checks: int
    #: Wall seconds per harness phase, and serving CPU seconds.
    phase_s: Dict[str, float]
    serve_cpu_s: Dict[str, float]
    host: HostSpeed


def execute(workload, traffic: Traffic, seconds: float, trace_dir: Optional[str],
            repeats: int, cache_dir: str, host_path: str) -> RunRecord:
    """Set up, serve and check one workload (spans go to *trace_dir*).

    The host's speed is sampled through set-up and serving, into
    *host_path* (deleted once read).
    """
    installation = span_lib.install(trace_dir) if trace_dir is not None else None
    writer = installation.writer if installation is not None else None
    host = HostSpeed(host_path).start()
    marks = [time.perf_counter()]
    fab = None
    try:
        fab, setup = set_up(cache_dir, traffic.warm_packets(), repeats, writer)
        marks.append(time.perf_counter())
        cpu_before = _cpu_seconds()
        record = serve(fab, workload, traffic, seconds, writer)
        fab.shutdown()
        fab = None
        cpu_after = _cpu_seconds()
        marks.append(time.perf_counter())
    finally:
        if fab is not None:
            fab.shutdown(drain=False)
        host.stop()
        if installation is not None:
            installation.remove()
    problems, checked = reference_problems(cache_dir, traffic, record.results)
    marks.append(time.perf_counter())
    return RunRecord(
        setup=setup,
        serve=record,
        problems=record.problems + problems,
        reference_checks=checked,
        phase_s={
            name: b - a for name, a, b in zip(("setup", "serve", "reference"), marks, marks[1:])
        },
        serve_cpu_s={k: cpu_after[k] - cpu_before[k] for k in cpu_after},
        host=host,
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
                 smoke: bool) -> int:
    """One workload run: prints the metrics and the result line; exit code."""
    declared = load_declared()
    workload = WORKLOADS[name]
    repeats = 1 if (smoke or workload.cold) else SETUP_REPEATS
    os.makedirs(out_dir, exist_ok=True)
    # Run length and smoke mode are in the name, so a short run never
    # overwrites a full run's result.
    tag = "%s-seed%d-%gs-trace%d%s" % (name, seed, seconds, int(trace), "-smoke" if smoke else "")
    trace_dir = os.path.join(out_dir, "trace-" + tag) if trace else None
    traffic = make_traffic(workload, seed, seconds)
    span_cost_s = 0.0
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        span_cost_s = span_lib.calibrate_overhead(trace_dir + ".calibrate")
    if workload.cold:
        cache_dir = os.path.join(out_dir, "cold-cache-%d" % os.getpid())
        shutil.rmtree(cache_dir, ignore_errors=True)
    else:
        cache_dir = warm_cache_dir()
    try:
        run = execute(workload, traffic, seconds, trace_dir, repeats, cache_dir,
                      os.path.join(out_dir, "hostspeed-%d.txt" % os.getpid()))
    finally:
        if workload.cold:
            shutil.rmtree(cache_dir, ignore_errors=True)

    record = run.serve
    problems = list(run.problems)
    ok = served_ok(record)
    errored = sum(1 for r in record.results.values() if not isinstance(r, ReceiverOutput))
    if errored:
        problems.append("%d results are not ReceiverOutput" % errored)
    section = "per_layer" if trace else "end_to_end"
    units = _declared_units(declared, section)
    metrics: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    if not ok:
        problems.append("no packet was served")
    elif trace:
        metrics, layer_problems = per_layer(
            trace_dir, run.setup, record, simulated(record, traffic), span_cost_s
        )
        problems += layer_problems
    else:
        metrics, measured = end_to_end(run.setup, record, run.host)
    if ok and set(metrics) != set(units):
        problems.append(
            "emitted metrics differ from BENCHMARK.json: undeclared %s, missing %s"
            % (sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics)))
        )
    lags = record.sender.lags()
    send_lag_p95 = percentile(lags, 95) if lags else 0.0
    meta = {
        "commit": git_commit(),
        "source_fingerprint": source_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "host": {
            "reference_loop_s": REFERENCE_S,
            "samples": len(run.host.samples),
            "loop_s": {
                "setup": [run.host.loop_s(a, b) for a, b in run.setup.windows],
                "serve": run.host.loop_s(record.start, record.end),
            },
        },
        "measured": measured,
        "client": {"send_lag_p95_s": send_lag_p95, "valid": send_lag_p95 <= MAX_SEND_LAG_S},
        "packets": {
            "sent": record.sender.n_sent,
            "served": len(ok),
            "lost": sum(record.stream.get(k, 0) for k in ("gaps", "incomplete", "corrupt")),
            "shed": sum(v for k, v in record.stream.items() if k.startswith("shed_")),
            "errored": errored,
        },
        "setup_s": run.setup.times,
        "phase_s": run.phase_s,
        "serve_cpu_s": run.serve_cpu_s,
        "reference_checks": run.reference_checks,
        "config": {
            "workers": WORKERS, "batch": BATCH, "queue_depth": QUEUE_DEPTH,
            "policy": "round_robin", "backpressure": "block",
            "transport": workload.transport, "setup_repeats": repeats,
        },
    }
    result = {
        "correct": not problems,
        "attempted": record.sender.n_sent,
        "failed": record.sender.n_sent - len(ok),
        "metrics": {k: {"value": metrics[k], "unit": units.get(k, "")} for k in sorted(metrics)},
    }
    with open(os.path.join(out_dir, "result-%s.json" % tag), "w") as fh:
        json.dump(dict(result, workload=name, trace=trace, problems=problems, meta=meta),
                  fh, indent=1)

    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    if not meta["client"]["valid"]:
        print("warning: the generator ran %.1f ms late (p95); run flagged invalid"
              % (1e3 * send_lag_p95))
    print("%s seed %d: %d sent, %d served, %d failed, %d reference checks%s"
          % (name, seed, result["attempted"], len(ok), result["failed"],
             run.reference_checks, ", trace in %s" % trace_dir if trace else ""))
    for spec in declared[section]:
        if spec["name"] in metrics:
            print("  %-44s %16.6f %s" % (spec["name"], metrics[spec["name"]], spec["unit"]))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1
