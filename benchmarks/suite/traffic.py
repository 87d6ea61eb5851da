"""Seeded traffic for the benchmark workloads, and the client that sends it.

A workload's inputs are a pure function of ``--seed``: the packets
(waveforms plus ground-truth bits), their wire datagrams and, for the
open loop, every packet's due time.  All of it is generated and encoded
before timing starts, so the only client work inside the timed window is
the :class:`Sender` thread's socket writes.

Two arrival disciplines:

* **closed loop** — at most :data:`WINDOW` packets are outstanding; a
  packet is due the moment an earlier packet's result frees its slot.
  :data:`WINDOW` is the fabric's whole queue capacity (workers x
  queue depth), so both workers always hold full batches.  Round-robin
  dispatch skips a full worker, so a slower worker cannot hoard the
  backlog (with fewer outstanding packets it does, and the latency tail
  then swings with which worker happened to be slower); and since the
  client never has more outstanding than the fabric holds, ``block``
  backpressure never stalls the owner thread;
* **open loop** — packets are due on a fixed schedule regardless of
  progress: ``STEADY_RATE_HZ`` per second, each gap drawn uniformly
  within ``STEADY_JITTER`` of the mean.  The bounded jitter keeps the
  tail latency of a short run steady across seeds, which a Poisson
  schedule's occasional clumps do not.

Latency is always timed from the due time, so generator lateness counts
against the system (the open-loop rule) and is reported separately as
the send lag.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.fabric import mixed_scenario_stream, poisson_stream
from repro.ingest import encode_packet, end_marker, iq_roundtrip
from repro.runtime.workload import PacketCase

#: Closed-loop outstanding packets: workers 2 x queue depth 16.
WINDOW = 32
#: Open-loop mean arrival rate: 104 packets in a 16 s run, so the p90
#: latency has ten samples beyond it.
STEADY_RATE_HZ = 6.5
#: Open-loop gaps are drawn uniformly within this share of the mean:
#: round-robin hands every other packet to one worker, so two gaps
#: (at least 1.8 mean gaps = 277 ms) separate its packets, more than a
#: packet's service time even when the host runs 1.5x slower.
STEADY_JITTER = 0.1
#: Closed-loop packets generated per measured second: the sender stops
#: early, and the run measures less, only above this throughput.
POOL_RATE_HZ = 60.0
#: Trailing pads of the mixed traffic: three packet shapes.
MIXED_PADS = (0, 64, 160)
STREAM_ID = 1
DTYPE = "c64"
N_SYMBOLS = 2
#: End-of-stream markers sent after the last packet (idempotent).
END_MARKERS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    mix: str  # "uniform" | "mixed"
    transport: str  # "tcp" | "udp"
    open_loop: bool
    #: Build the fabric on an empty schedule/codegen cache.
    cold: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_start", "uniform", "tcp", open_loop=False, cold=True),
        Workload("steady_mixed", "mixed", "udp", open_loop=True),
    )
}


@dataclass
class Traffic:
    """One run's pre-generated inputs."""

    cases: List[PacketCase]
    #: Per packet: the datagrams as sent (UDP) or one length-framed
    #: blob (TCP).
    wire: list
    #: Open loop: due offsets from the start of the run, else None.
    offsets: Optional[List[float]]
    session: int

    def warm_packets(self) -> List[np.ndarray]:
        """One wire-roundtripped packet per distinct shape, in seq order."""
        seen = {}
        for case in self.cases:
            seen.setdefault(case.rx.shape[1], case.rx)
        return [iq_roundtrip(rx, DTYPE) for rx in seen.values()]


def make_traffic(workload: Workload, seed: int, seconds: float) -> Traffic:
    """Generate and encode *workload*'s inputs for a *seconds*-long run."""
    rng = np.random.default_rng([seed, 7])
    offsets = None
    if workload.open_loop:
        # Exactly rate x seconds packets: the jittered gaps are scaled
        # to fill the window, so every seed offers the same mean rate.
        n = max(1, round(STEADY_RATE_HZ * seconds))
        gaps = rng.uniform(1 - STEADY_JITTER, 1 + STEADY_JITTER, size=n)
        offsets = (np.cumsum(gaps) - gaps[0]) * (seconds / gaps.sum())
        offsets = [float(t) for t in offsets]
    else:
        n = int(seconds * POOL_RATE_HZ)
    # Per-packet seeds are base_seed + 1000 + seq; spacing the bases
    # keeps every seed's packets distinct.
    base_seed = 100_000 * seed
    if workload.mix == "uniform":
        events = poisson_stream(
            1.0, n_packets=n, base_seed=base_seed, cfo_choices=(50e3,), snr_choices=(30.0,)
        )
    else:
        events = mixed_scenario_stream(
            1.0, n_packets=n, base_seed=base_seed, pad_choices=MIXED_PADS
        )
    cases = [event.case for event in events]
    session = int(rng.integers(1, 2**32))
    wire = []
    for seq, case in enumerate(cases):
        frames = encode_packet(
            STREAM_ID, seq, case.rx, n_symbols=N_SYMBOLS, dtype=DTYPE, session=session
        )
        if workload.transport == "tcp":
            wire.append(b"".join(struct.pack("<I", len(f)) + f for f in frames))
        else:
            wire.append(frames)
    return Traffic(cases=cases, wire=wire, offsets=offsets, session=session)


class Sender(threading.Thread):
    """The client: sends packets when due and records due and send times.

    Closed loop: call :meth:`release` once per observed result; the
    release time is when the next packet is due.
    """

    def __init__(self, workload: Workload, traffic: Traffic, address, seconds: float) -> None:
        super().__init__(name="bench-sender", daemon=True)
        self.workload = workload
        self.traffic = traffic
        self.address = address
        self.seconds = seconds
        n = len(traffic.cases)
        self.due: List[Optional[float]] = [None] * n
        self.sent_at: List[Optional[float]] = [None] * n
        self.n_sent = 0
        self.t0: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._slots: "queue.SimpleQueue[float]" = queue.SimpleQueue()
        self._halt = threading.Event()

    def release(self, now: float) -> None:
        if not self.workload.open_loop:
            self._slots.put(now)

    def stop(self) -> None:
        self._halt.set()

    def start(self) -> None:
        self.t0 = time.perf_counter()
        if not self.workload.open_loop:
            for _ in range(WINDOW):
                self._slots.put(self.t0)
        super().start()

    def lags(self) -> List[float]:
        return [s - d for s, d in zip(self.sent_at[: self.n_sent], self.due[: self.n_sent])]

    def run(self) -> None:
        try:
            if self.workload.transport == "tcp":
                with socket.create_connection(self.address, timeout=30) as sock:
                    self._send_all(lambda blobs: sock.sendall(b"".join(blobs)))
                    self._send_end(lambda d: sock.sendall(struct.pack("<I", len(d)) + d))
            else:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:

                    def send(packets):
                        for frames in packets:
                            for frame in frames:
                                sock.sendto(frame, self.address)

                    self._send_all(send)
                    self._send_end(lambda d: sock.sendto(d, self.address))
        except Exception as exc:  # reported by the harness as a failed run
            self.error = exc

    def _next_due(self, seq: int) -> Optional[float]:
        t_end = self.t0 + self.seconds
        if self.workload.open_loop:
            due = self.t0 + self.traffic.offsets[seq]
            while not self._halt.is_set():
                delay = due - time.perf_counter()
                if delay <= 0:
                    return due
                self._halt.wait(delay)
            return None
        while not self._halt.is_set():
            if time.perf_counter() >= t_end:
                return None
            try:
                return self._slots.get(timeout=0.05)
            except queue.Empty:
                continue
        return None

    def _send_all(self, send) -> None:
        """Send every packet when due; *send* takes a list of payloads.

        A closed loop's slots free a batch at a time.  Every slot already
        free goes out in the same write: sent one by one, the last of
        them would wait for the listener thread to take in each earlier
        one, which the harness would book as generator lateness.
        """
        wire = self.traffic.wire
        seq = 0
        while seq < len(wire):
            due = self._next_due(seq)
            if due is None:
                return
            dues = [due]
            while not self.workload.open_loop and seq + len(dues) < len(wire):
                try:
                    dues.append(self._slots.get_nowait())
                except queue.Empty:
                    break
            now = time.perf_counter()
            for i, due in enumerate(dues, start=seq):
                self.sent_at[i] = now
                self.due[i] = due
            send(wire[seq: seq + len(dues)])
            seq += len(dues)
            self.n_sent = seq

    def _send_end(self, send) -> None:
        marker = end_marker(STREAM_ID, self.n_sent, self.traffic.session)
        for _ in range(END_MARKERS):
            send(marker)
