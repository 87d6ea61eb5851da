"""Layer spans for the traced benchmark run.

:func:`install` wraps the public entry point of every serving layer —
ingest, fabric, runtime, simulator, code generator and compiler — from
the benchmark's side; nothing inside ``src/`` is instrumented.  The
wrappers are class or module attributes, so fabric workers forked after
:func:`install` inherit them.  Each process appends its spans, one JSON
object per line and flushed per span, to ``spans-<pid>.jsonl`` in the
trace directory; a span records its name, layer (the name up to the
first dot), start and end (``time.perf_counter``, CLOCK_MONOTONIC on
Linux and so comparable across processes), pid, thread, parent span
and the packet key ``[stream, seq]`` where the layer knows it.

:func:`load` merges the files, :func:`self_times` subtracts each span's
direct children from its duration, and :func:`chrome_trace` renders the
merged spans in the Chrome trace-event format that ``repro.trace``
already emits, so Perfetto opens them.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import shutil
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List


class SpanWriter:
    """Per-process span sink: one ``spans-<pid>.jsonl`` file per process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._reset()
        # A forked child must not inherit the parent's open file, span
        # stacks or (possibly held) lock.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fh = None
        self._next_id = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key=None):
        """Record one span around the body; yields its mutable record."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "layer": name.split(".", 1)[0],
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "key": key,
            "args": None,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self._write(record)

    def _write(self, record: dict) -> None:
        line = json.dumps(record) + "\n"
        with self._lock:
            if self._fh is None:
                path = os.path.join(self.directory, "spans-%d.jsonl" % os.getpid())
                self._fh = open(path, "a")
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# ----------------------------------------------------------------------
# What each layer's span records besides its timing.
# ----------------------------------------------------------------------


def _datagram_key(args):
    from repro.ingest.protocol import ProtocolError, parse_datagram

    try:
        header, _ = parse_datagram(args[1])
    except ProtocolError:
        return None
    return [header.stream_id, header.seq]


def _released(args, result):
    return {"released": [[p.stream_id, p.seq] for p in result]}


def _offered(args, result):
    return {"packets": len(result)}


def _batch_outcome(args, result):
    return {"packets": len(result), "fallbacks": sum(1 for r in result if r.fell_back)}


def _lanes(args, result):
    return {"lanes": len(args[1])}


def _ii_excess(args, result):
    results = args[0].kernel_results
    return {"kernels": len(results), "ii_excess": sum(r.ii - r.mii for r in results)}


#: (span name, module, attribute path, args recorder).  The codegen
#: entry points are wrapped on the module, where sim.cga, sim.vliw and
#: sim.batch look them up at call time.
ENTRY_POINTS = (
    ("ingest.reassemble", "repro.ingest.reassembly", "Reassembler.offer", _released),
    ("ingest.poll", "repro.ingest.server", "IngestServer.poll", None),
    ("fabric.offer", "repro.fabric.fabric", "Fabric.offer_many", _offered),
    ("fabric.poll", "repro.fabric.fabric", "Fabric.poll", None),
    ("runtime.run_batch", "repro.runtime.batched",
     "BatchedModemRuntime.run_batch_results", _batch_outcome),
    ("sim.batch_run", "repro.sim.batch", "BatchProgramRunner.run", _lanes),
    ("sim.core_run", "repro.sim.core", "Core.run", None),
    ("codegen.build", "repro.sim.codegen", "cga_runner", None),
    ("codegen.build", "repro.sim.codegen", "cga_batch_runner", None),
    ("codegen.build", "repro.sim.codegen", "vliw_runner", None),
    ("codegen.build", "repro.sim.codegen", "vliw_batch_runner", None),
    ("compiler.schedule", "repro.compiler.modulo", "ModuloScheduler.schedule", None),
    ("compiler.link", "repro.compiler.linker", "ProgramLinker.link", _ii_excess),
)


def _wrap(writer: SpanWriter, name: str, fn: Callable, describe) -> Callable:
    key_of = _datagram_key if name == "ingest.reassemble" else None
    compiles = name == "codegen.build"
    if compiles:
        from repro.sim.codegen import codegen_stats

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        key = key_of(args) if key_of is not None else None
        with writer.span(name, key) as record:
            if compiles:
                before = codegen_stats()["compilations"]
            result = fn(*args, **kwargs)
            if describe is not None:
                record["args"] = describe(args, result)
            elif compiles:
                record["args"] = {"compiled": codegen_stats()["compilations"] - before}
            return result

    return wrapped


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


class Installation:
    """The wrappers :func:`install` put in place; :meth:`remove` undoes them."""

    def __init__(self, writer: SpanWriter, originals: list) -> None:
        self.writer = writer
        self._originals = originals

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []
        self.writer.close()


def install(directory: str) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS`, writing to *directory*."""
    os.makedirs(directory, exist_ok=True)
    writer = SpanWriter(directory)
    originals = []
    for name, module, path, describe in ENTRY_POINTS:
        owner, attr = _owner(module, path)
        original = getattr(owner, attr)
        originals.append((owner, attr, original))
        setattr(owner, attr, _wrap(writer, name, original, describe))
    return Installation(writer, originals)


# ----------------------------------------------------------------------
# Analysis of merged spans.
# ----------------------------------------------------------------------


def load(directory: str) -> List[dict]:
    """Every span of every process in *directory*, ordered by start."""
    spans = []
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    spans.sort(key=lambda s: s["start"])
    return spans


def self_times(spans: Iterable[dict]) -> Dict[tuple, float]:
    """``(pid, id) -> self seconds``: duration minus direct children's.

    Children run on their parent's thread, nested inside it, so their
    intervals never overlap one another.
    """
    spans = list(spans)
    child_s: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_s[(span["pid"], span["parent"])] += span["end"] - span["start"]
    return {
        (s["pid"], s["id"]): (s["end"] - s["start"]) - child_s[(s["pid"], s["id"])]
        for s in spans
    }


def totals_by_name(spans: Iterable[dict]) -> Dict[str, dict]:
    """Per span name: ``count``, total ``wall_s`` and ``self_s``."""
    spans = list(spans)
    selfs = self_times(spans)
    out: Dict[str, dict] = defaultdict(lambda: {"count": 0, "wall_s": 0.0, "self_s": 0.0})
    for span in spans:
        entry = out[span["name"]]
        entry["count"] += 1
        entry["wall_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[(span["pid"], span["id"])]
    return dict(out)


def layer_busy(spans: List[dict], layer: str) -> float:
    """Wall seconds in *layer*, not double-counting its spans nested in itself."""
    index = {(s["pid"], s["id"]): s for s in spans}
    busy = 0.0
    for span in spans:
        if span["layer"] != layer:
            continue
        parent = index.get((span["pid"], span["parent"]))
        if parent is None or parent["layer"] != layer:
            busy += span["end"] - span["start"]
    return busy


def in_window(spans: Iterable[dict], start: float, end: float) -> List[dict]:
    """The spans that began inside ``[start, end]`` (any process)."""
    return [s for s in spans if start <= s["start"] <= end]


def chrome_trace(spans: List[dict]) -> dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = []
    threads = {}
    for span in spans:
        threads.setdefault((span["pid"], span["tid"]), len(threads) + 1)
        args = dict(span["args"] or {})
        if span["key"] is not None:
            args["key"] = span["key"]
        event = {
            "name": span["name"],
            "cat": span["layer"],
            "ph": "X",
            "ts": round((span["start"] - t0) * 1e6, 3),
            "dur": round((span["end"] - span["start"]) * 1e6, 3),
            "pid": span["pid"],
            "tid": threads[(span["pid"], span["tid"])],
        }
        if args:
            event["args"] = args
        events.append(event)
    names = [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": "thread-%d" % tid}}
        for (pid, _), tid in sorted(threads.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": names + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "host microseconds from the first span"},
    }


def write_chrome_trace(path: str, spans: List[dict]) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)


def calibrate_overhead(scratch_dir: str, n: int = 2000) -> float:
    """Seconds one recorded span adds, measured on a no-op body.

    *scratch_dir* must not be a trace directory: it is deleted after.
    """
    os.makedirs(scratch_dir, exist_ok=True)
    writer = SpanWriter(scratch_dir)
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            with writer.span("bench.calibrate"):
                pass
        return (time.perf_counter() - t0) / n
    finally:
        writer.close()
        shutil.rmtree(scratch_dir, ignore_errors=True)
