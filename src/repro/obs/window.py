"""Rolling-window aggregation: bounded ring-buffer time series.

Lifetime averages hide everything an operator cares about — a fabric
that served 10k packets an hour ago and nothing since still reports a
healthy-looking packets/s.  These windows keep the last ``horizon_s``
seconds of behaviour in bounded deques (ring buffers), so a live
``/metrics`` scrape reports *recent* throughput, queue depth and
latency percentiles.

Every class takes an injectable ``clock`` (defaulting to
:func:`time.monotonic`) so window eviction is unit-testable with a fake
clock, and takes an internal lock so a scrape from the
:class:`~repro.obs.server.ObsServer` thread never races the fabric's
pump thread mid-append.

:func:`percentile` — nearest-rank, every reported number an
actually-observed sample — lives here (stdlib-only leaf module).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *samples*.

    Nearest-rank keeps every reported number an actually-observed
    latency (no interpolation between samples), which is what you want
    when the tail is the story.  Raises on an empty sample list.
    """
    if not samples:
        raise ValueError("percentile of an empty sample list")
    if not 0 <= q <= 100:
        raise ValueError("percentile q=%r outside 0..100" % (q,))
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def window_summary(samples: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 plus count/mean/max; all-zeros for an empty window.

    The zero-filled empty shape (rather than an exception) is the
    contract scrape endpoints need: an idle fabric must still render.
    """
    if not samples:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "count": len(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "mean": float(sum(samples) / len(samples)),
        "max": float(max(samples)),
    }


class WindowedCounter:
    """Event counts over a sliding time horizon (bounded ring buffer).

    ``add(n)`` appends ``(now, n)``; entries older than ``horizon_s``
    are evicted on every access, so ``total()`` and ``rate()`` describe
    only the last window.  ``max_entries`` bounds memory under event
    storms (oldest entries fold away first — the window is a *view*,
    not an archive).
    """

    def __init__(
        self,
        horizon_s: float = 60.0,
        clock=time.monotonic,
        max_entries: int = 4096,
    ) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive, got %r" % (horizon_s,))
        self.horizon_s = float(horizon_s)
        self._clock = clock
        self._entries: Deque[Tuple[float, float]] = deque(maxlen=max_entries)
        self._born = float(clock())
        self._lock = threading.Lock()

    def _evict(self, now: float) -> None:
        floor = now - self.horizon_s
        entries = self._entries
        while entries and entries[0][0] < floor:
            entries.popleft()

    def add(self, n: float = 1.0) -> None:
        now = float(self._clock())
        with self._lock:
            self._evict(now)
            self._entries.append((now, float(n)))

    def total(self) -> float:
        """Sum of events recorded within the current window."""
        now = float(self._clock())
        with self._lock:
            self._evict(now)
            return float(sum(n for _, n in self._entries))

    def rate(self) -> float:
        """Events per second over the window.

        Before a full horizon has elapsed the divisor is the counter's
        age, so a stream that just started is not under-reported.
        """
        now = float(self._clock())
        with self._lock:
            self._evict(now)
            span = min(self.horizon_s, now - self._born)
            if span <= 0:
                return 0.0
            return float(sum(n for _, n in self._entries)) / span


class WindowedSeries:
    """Gauge/latency samples over a sliding time horizon.

    ``observe(v)`` appends ``(now, v)``; ``summary()`` reports
    nearest-rank percentiles (via :func:`percentile`) over what is left
    after eviction.  ``max_samples`` bounds memory; when it trips, the
    oldest samples fall off first, which only ever *narrows* the window.
    """

    def __init__(
        self,
        horizon_s: float = 60.0,
        clock=time.monotonic,
        max_samples: int = 4096,
    ) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive, got %r" % (horizon_s,))
        self.horizon_s = float(horizon_s)
        self._clock = clock
        self._samples: Deque[Tuple[float, float]] = deque(maxlen=max_samples)
        self._lock = threading.Lock()

    def _evict(self, now: float) -> None:
        floor = now - self.horizon_s
        samples = self._samples
        while samples and samples[0][0] < floor:
            samples.popleft()

    def observe(self, value: float) -> None:
        now = float(self._clock())
        with self._lock:
            self._evict(now)
            self._samples.append((now, float(value)))

    def values(self) -> List[float]:
        """The in-window sample values, oldest first."""
        now = float(self._clock())
        with self._lock:
            self._evict(now)
            return [v for _, v in self._samples]

    def summary(self) -> Dict[str, float]:
        """:func:`window_summary` over the in-window samples."""
        return window_summary(self.values())


#: Fabric events the rolling window counts.  The first block mirrors
#: fabric lifetime counters; the ``ingest_*`` kinds are recorded by an
#: attached :class:`~repro.ingest.server.IngestServer` (datagrams seen,
#: packets reassembled, packets shed at submission).
WINDOW_COUNTS = (
    "submitted",
    "completed",
    "dropped",
    "rejected",
    "requeued",
    "task_errors",
    "worker_crashes",
    "watchdog_flags",
    "ingest_datagrams",
    "ingest_packets",
    "ingest_shed",
)


class MetricsWindow:
    """The fabric-facing aggregate: one rolling view of serving health.

    Owns one :class:`WindowedCounter` per event kind in
    :data:`WINDOW_COUNTS`, a latency :class:`WindowedSeries`, and gauge
    series for queue depth / in-flight (sampled each pump round).
    ``snapshot()`` is what ``Fabric.report()`` embeds under ``window``
    and what the ``repro_fabric_window_*`` gauges render.
    """

    def __init__(self, horizon_s: float = 60.0, clock=time.monotonic) -> None:
        self.horizon_s = float(horizon_s)
        self._counts = {
            name: WindowedCounter(horizon_s, clock) for name in WINDOW_COUNTS
        }
        self._latency = WindowedSeries(horizon_s, clock)
        self._depth = WindowedSeries(horizon_s, clock)
        self._inflight = WindowedSeries(horizon_s, clock)

    def count(self, name: str, n: float = 1.0) -> None:
        counter = self._counts.get(name)
        if counter is not None:
            counter.add(n)

    def observe_latency(self, seconds: float) -> None:
        self._latency.observe(seconds)

    def observe_depth(self, outstanding: int, inflight: int) -> None:
        self._depth.observe(float(outstanding))
        self._inflight.observe(float(inflight))

    def snapshot(self) -> dict:
        counts = {name: counter.total() for name, counter in self._counts.items()}
        return {
            "window_s": self.horizon_s,
            "counts": {name: int(value) for name, value in counts.items()},
            "throughput_pps": round(self._counts["completed"].rate(), 3),
            "offered_pps": round(self._counts["submitted"].rate(), 3),
            "shed": int(counts["dropped"] + counts["rejected"]),
            "latency_s": {
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in self._latency.summary().items()
            },
            "queue_depth": _gauge_view(self._depth),
            "inflight": _gauge_view(self._inflight),
        }


def _gauge_view(series: WindowedSeries) -> Dict[str, float]:
    summary = series.summary()
    return {
        "mean": round(summary["mean"], 4),
        "max": summary["max"],
        "samples": summary["count"],
    }


class EventLog:
    """Bounded ring of recent lifecycle events (behind ``/events.json``).

    The fabric appends crash / respawn / shed / watchdog events here
    unconditionally, so a live operator can always ask "what just
    happened" without having armed anything before the incident.
    """

    def __init__(self, capacity: int = 256, clock=time.time) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %d" % capacity)
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()

    def append(self, event: str, args: Optional[dict] = None) -> None:
        with self._lock:
            self._seq += 1
            self._events.append(
                {
                    "seq": self._seq,
                    "ts": round(float(self._clock()), 6),
                    "event": event,
                    "args": dict(args or {}),
                }
            )

    def snapshot(self) -> List[dict]:
        """The buffered events, oldest first (shallow copies)."""
        with self._lock:
            return [dict(e) for e in self._events]

    @property
    def total(self) -> int:
        """Events ever appended (including ones the ring evicted)."""
        return self._seq
