"""Per-stream datagram reassembly with bounded reordering and accounting.

The network hands the listener an unordered, lossy, possibly duplicated
datagram soup; the fabric wants *whole modem packets, in per-stream
sequence order, each exactly once*.  :class:`Reassembler` is the
translation:

- fragments are collected per ``(stream_id, seq)`` until a packet's
  ``frag_count`` chunks are all present, then the payload is decoded
  into a complex128 rx array;
- completed packets are *released in sequence order*.  A missing
  sequence number holds later completions back, but only within a
  bounded ``window``: once ``max_seen - next_seq`` would exceed it, the
  hole is declared lost — never-seen sequences count as ``gaps``,
  partially received ones as ``incomplete`` — and the stream moves on.
  A bounded window is what makes memory and latency finite under loss;
- a datagram whose ``session`` differs from the stream's current one
  resets that stream's state (counted in ``resets``).  This is how a
  restarted sender reusing a stream id — or two senders colliding on
  one — is handled: sequence numbering restarts cleanly instead of the
  new traffic drowning as "stale duplicates" of the old epoch;
- a complete packet whose header claims other than the receiver's
  :data:`~repro.phy.params.DATA_SYMBOLS` data symbols is written off as
  ``corrupt``, like one whose payload does not decode: it never reaches
  the fabric;
- every datagram lands in exactly one counter.  Malformed traffic that
  cannot be attributed to a stream (bad magic, truncation, wrong
  version, corrupt fields) is accounted on the listener level.  A
  sequence written off as ``corrupt`` is tombstoned so the later window
  advance never recounts it as a gap, and a stream evicted under
  stream-id churn has its settled lifetime counters folded into the
  aggregate ``evicted`` bucket instead of being lost.

Each stream's counters are its whole ledger, through submission: a
released packet carries its ``ledger``, :meth:`Reassembler.book` counts
its outcome there (or on ``evicted`` once that stream is gone, never on
a later stream reusing the id), and ``staged`` is derived from it.

The class is single-threaded on purpose (the listener serialises calls
with its own lock); it does no I/O and no fabric calls, so every edge
case is unit-testable with bytes in, packets out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ingest.protocol import (
    BadMagic,
    CorruptHeader,
    Header,
    ProtocolError,
    TruncatedDatagram,
    VersionMismatch,
    decode_payload,
    parse_datagram,
)
from repro.phy.params import DATA_SYMBOLS

__all__ = ["ReassembledPacket", "Reassembler", "SHED_COUNTERS", "STREAM_COUNTERS", "staged"]

#: Shed counters of released packets (submission stage), by typed reason.
SHED_COUNTERS = ("shed_overflow", "shed_dropped", "shed_rejected")

#: Per-stream counter names, in render order.  ``received`` counts
#: datagrams, ``bytes`` their payload bytes; the rest count packets
#: except ``out_of_order``/``duplicates``/``stale`` (datagrams) and
#: ``resets`` (session changes).
STREAM_COUNTERS = (
    "received",
    "bytes",
    "reassembled",
    "released",
    "submitted",
    "out_of_order",
    "duplicates",
    "stale",
    "gaps",
    "incomplete",
    "corrupt",
    "resets",
) + SHED_COUNTERS

#: Listener-level counters for traffic no stream can own.
LISTENER_COUNTERS = ("bad_magic", "truncated", "version_mismatch", "corrupt_header")


def staged(ledger: Dict[str, int]) -> int:
    """Released packets a ledger has not booked as submitted or shed."""
    return ledger["released"] - ledger["submitted"] - sum(ledger[n] for n in SHED_COUNTERS)


@dataclass
class ReassembledPacket:
    """One complete modem packet, decoded and ready for the fabric."""

    stream_id: int
    session: int
    seq: int
    rx: np.ndarray  # (n_ant, n_samples) complex128
    dtype: str
    ledger: Dict[str, int] = field(repr=False, compare=False)  # its stream's counters


@dataclass
class _Partial:
    """Fragments collected so far for one (stream, seq)."""

    header: Header  # header of the first fragment seen
    chunks: Dict[int, bytes] = field(default_factory=dict)
    nbytes: int = 0
    chunk_len: Optional[int] = None  # uniform non-last fragment size


class _Stream:
    """Reassembly state for one stream id."""

    def __init__(self, session: int) -> None:
        self.session = session
        self.next_seq = 0
        self.max_seen = -1
        self.end_seq: Optional[int] = None
        self.pending: Dict[int, _Partial] = {}
        self.ready: Dict[int, ReassembledPacket] = {}
        #: Sequences already written off as ``corrupt``: tombstones keep
        #: the window advance from recounting them as gaps, and late
        #: fragments for them from resurrecting a _Partial.  A seq is in
        #: at most one of pending/ready/corrupt_seqs at any time.
        self.corrupt_seqs: Set[int] = set()
        self.last_key: Optional[Tuple[int, int]] = None  # (seq, frag) arrival order
        self.counters = {name: 0 for name in STREAM_COUNTERS}


class Reassembler:
    """Turn a datagram soup into in-order, exactly-once modem packets.

    *window* bounds per-stream reordering: completed packets are held
    back for at most ``window - 1`` later sequence numbers before the
    hole in front of them is declared lost.  *max_streams* bounds state
    under stream-id churn.  The sender's fragmentation chunk size is
    learned per packet from the wire (uniform chunking is enforced, the
    exact size is not assumed), so senders with different MTUs coexist.
    """

    def __init__(self, window: int = 64, max_streams: int = 256) -> None:
        if window < 1:
            raise ValueError("window must be >= 1, got %d" % window)
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1, got %d" % max_streams)
        self.window = int(window)
        self.max_streams = int(max_streams)
        self._streams: Dict[int, _Stream] = {}
        self.listener = {name: 0 for name in LISTENER_COUNTERS}
        #: Lifetime counters of streams evicted under stream-id churn,
        #: folded into one aggregate (with later bookings of packets
        #: they released) so their accounting is never lost;
        #: ``streams`` counts the evictions themselves.
        self.evicted = {name: 0 for name in STREAM_COUNTERS}
        self.evicted["streams"] = 0

    # ------------------------------------------------------------------
    # Intake.
    # ------------------------------------------------------------------

    def offer(self, data: bytes) -> List[ReassembledPacket]:
        """Feed one datagram; returns packets released *in seq order*."""
        try:
            header, payload = parse_datagram(data)
        except BadMagic:
            self.listener["bad_magic"] += 1
            return []
        except TruncatedDatagram:
            self.listener["truncated"] += 1
            return []
        except VersionMismatch:
            self.listener["version_mismatch"] += 1
            return []
        except (CorruptHeader, ProtocolError):
            self.listener["corrupt_header"] += 1
            return []
        stream = self._stream_for(header)
        if header.is_end:
            # Idempotent: the largest count wins if markers disagree.
            if stream.end_seq is None or header.seq > stream.end_seq:
                stream.end_seq = header.seq
            return self._release(stream)
        counters = stream.counters
        counters["received"] += 1
        counters["bytes"] += len(payload)
        key = (header.seq, header.frag_index)
        if stream.last_key is not None and key < stream.last_key:
            counters["out_of_order"] += 1
        stream.last_key = max(key, stream.last_key or key)
        if header.seq < stream.next_seq:
            # Already released, or already declared lost: late either way.
            counters["stale"] += 1
            return []
        self._add_fragment(stream, header, payload)
        stream.max_seen = max(stream.max_seen, header.seq)
        return self._release(stream)

    def _stream_for(self, header: Header) -> _Stream:
        stream = self._streams.get(header.stream_id)
        if stream is None:
            if len(self._streams) >= self.max_streams:
                # Evict the stream with the least outstanding state.
                victim = min(
                    self._streams,
                    key=lambda sid: len(self._streams[sid].pending)
                    + len(self._streams[sid].ready),
                )
                self._evict(victim)
            stream = _Stream(header.session)
            self._streams[header.stream_id] = stream
        elif stream.session != header.session:
            # A restarted sender (or a colliding one) on a known stream
            # id: write off the old epoch's outstanding state (those
            # packets can never complete now), keep lifetime counters.
            self._settle(stream)
            fresh = _Stream(header.session)
            fresh.counters = stream.counters
            fresh.counters["resets"] += 1
            stream = fresh
            self._streams[header.stream_id] = stream
        return stream

    def _settle(self, stream: _Stream) -> None:
        """Write off everything a stream still owes, without releasing.

        Buffered packets — reassembled-but-unreleased and partial alike
        — count ``incomplete`` (seen but never delivered), never-seen
        holes up to ``max_seen``/the end marker count ``gaps``, corrupt
        tombstones were already counted.  Keeps the exactly-once ledger
        conserved when a stream's state is torn down mid-flight.
        """
        limit = stream.max_seen + 1
        if stream.end_seq is not None:
            limit = max(limit, stream.end_seq)
        if limit <= stream.next_seq:
            return
        buffered = len(stream.ready) + len(stream.pending)
        stream.counters["incomplete"] += buffered
        stream.counters["gaps"] += (
            limit - stream.next_seq - buffered - len(stream.corrupt_seqs)
        )
        stream.ready.clear()
        stream.pending.clear()
        stream.corrupt_seqs.clear()
        stream.next_seq = limit

    def _evict(self, stream_id: int) -> None:
        """Drop a stream, folding its settled counters into ``evicted``."""
        victim = self._streams.pop(stream_id)
        self._settle(victim)
        for name, value in victim.counters.items():
            self.evicted[name] += value
        self.evicted["streams"] += 1

    def _poison(self, stream: _Stream, seq: int) -> None:
        """Write one seq off as corrupt, exactly once, and tombstone it."""
        stream.counters["corrupt"] += 1
        stream.pending.pop(seq, None)
        stream.corrupt_seqs.add(seq)

    def _add_fragment(self, stream: _Stream, header: Header, payload: bytes) -> None:
        counters = stream.counters
        if header.seq in stream.ready:
            counters["duplicates"] += 1
            return
        if header.seq in stream.corrupt_seqs:
            # Already written off as corrupt: late traffic for a settled
            # sequence, and it must not resurrect a _Partial (that would
            # count the seq a second time, as incomplete).
            counters["stale"] += 1
            return
        partial = stream.pending.get(header.seq)
        if partial is None:
            partial = stream.pending[header.seq] = _Partial(header)
        ref = partial.header
        if (
            header.frag_count != ref.frag_count
            or header.n_samples != ref.n_samples
            or header.n_ant != ref.n_ant
            or header.dtype != ref.dtype
        ):
            # Same (stream, session, seq) with a different geometry:
            # someone is lying; drop the whole packet once.
            self._poison(stream, header.seq)
            return
        if header.frag_index in partial.chunks:
            counters["duplicates"] += 1
            return
        # Uniform fragmentation: a single-fragment packet carries the
        # whole payload, and every non-last fragment shares one chunk
        # size (learned from the first one seen — the sender's MTU is
        # not assumed).  Each fragment's length is checked against the
        # claimed packet size *before* it is buffered, so a lying
        # frag_count/n_samples cannot make the receiver hoard bytes:
        # frag_count chunks of chunk_len (last short, non-empty) must
        # tile packet_nbytes, which parse_datagram already capped.
        last = ref.frag_count - 1
        if ref.frag_count == 1:
            if len(payload) != ref.packet_nbytes:
                self._poison(stream, header.seq)
                return
        elif header.frag_index < last:
            if partial.chunk_len is None:
                partial.chunk_len = len(payload)
            chunk_len = partial.chunk_len
            if (
                len(payload) != chunk_len
                or chunk_len == 0
                or chunk_len * last >= ref.packet_nbytes
                or chunk_len * ref.frag_count < ref.packet_nbytes
            ):
                self._poison(stream, header.seq)
                return
        else:  # the last, possibly short, fragment
            if partial.chunk_len is not None:
                if len(payload) != ref.packet_nbytes - partial.chunk_len * last:
                    self._poison(stream, header.seq)
                    return
            # chunk_len unknown (last fragment arrived first): the last
            # chunk can never exceed ceil(packet_nbytes / frag_count).
            elif not 0 < len(payload) <= -(-ref.packet_nbytes // ref.frag_count):
                self._poison(stream, header.seq)
                return
        partial.chunks[header.frag_index] = payload
        partial.nbytes += len(payload)
        if len(partial.chunks) < ref.frag_count:
            return
        # Complete: decode (ruling out total-size lies) and stage.  A
        # packet that claims other than the receiver's symbol pair could
        # never decode, so it is written off like an undecodable one.
        blob = b"".join(partial.chunks[i] for i in range(ref.frag_count))
        try:
            rx = decode_payload(blob, ref.dtype, ref.n_ant, ref.n_samples)
        except ProtocolError:
            rx = None
        if rx is None or ref.n_symbols != DATA_SYMBOLS:
            self._poison(stream, header.seq)
            return
        del stream.pending[header.seq]
        counters["reassembled"] += 1
        stream.ready[header.seq] = ReassembledPacket(
            header.stream_id, header.session, header.seq, rx, ref.dtype_name,
            counters,
        )

    # ------------------------------------------------------------------
    # In-order release and loss declaration.
    # ------------------------------------------------------------------

    def _advance(self, stream: _Stream, floor: int) -> List[ReassembledPacket]:
        """Release everything below *floor*, declaring holes lost.

        All counts are computed arithmetically over the (window-bounded)
        buffered state — never by iterating sequence numbers — so a
        forged far-future ``seq`` (a u32 straight off the wire) jumps
        the window in O(window), not O(2^32): the listener cannot be
        spun by a single datagram.
        """
        if floor <= stream.next_seq:
            return []
        counters = stream.counters
        released = sorted(seq for seq in stream.ready if seq < floor)
        out = [stream.ready.pop(seq) for seq in released]
        counters["released"] += len(out)
        incomplete = [seq for seq in stream.pending if seq < floor]
        for seq in incomplete:
            del stream.pending[seq]
        counters["incomplete"] += len(incomplete)
        tombstones = [seq for seq in stream.corrupt_seqs if seq < floor]
        stream.corrupt_seqs.difference_update(tombstones)
        # Every skipped seq lands in exactly one bucket: released,
        # incomplete, corrupt (counted when poisoned) — or, by
        # subtraction, a never-seen gap.
        counters["gaps"] += (
            floor - stream.next_seq - len(out) - len(incomplete) - len(tombstones)
        )
        stream.next_seq = floor
        return out

    def _release(self, stream: _Stream) -> List[ReassembledPacket]:
        out: List[ReassembledPacket] = []
        while True:
            if stream.next_seq in stream.corrupt_seqs:
                # A poisoned packet never blocks the line: skip it (it
                # was counted corrupt when poisoned) and keep releasing.
                stream.corrupt_seqs.discard(stream.next_seq)
                stream.next_seq += 1
                continue
            packet = stream.ready.pop(stream.next_seq, None)
            if packet is None:
                break
            stream.counters["released"] += 1
            out.append(packet)
            stream.next_seq += 1
        # Bounded reordering: a hole may hold the line back by at most
        # window-1 newer sequences before it is written off.
        floor = stream.max_seen - self.window + 1
        if floor > stream.next_seq:
            out.extend(self._advance(stream, floor))
            out.extend(self._release(stream))
        return out

    def flush(self) -> List[ReassembledPacket]:
        """Release everything still buffered, declaring trailing losses.

        Uses each stream's end-of-stream marker when one arrived (so
        packets lost *after* the last delivered one are still counted as
        gaps); otherwise accounts up to the highest sequence seen.
        """
        out: List[ReassembledPacket] = []
        for stream in self._streams.values():
            limit = stream.max_seen + 1
            if stream.end_seq is not None:
                limit = max(limit, stream.end_seq)
            out.extend(self._advance(stream, limit))
        return out

    # ------------------------------------------------------------------
    # Accounting views.
    # ------------------------------------------------------------------

    def book(self, packet: ReassembledPacket, outcome: str) -> None:
        """Count a released packet's ``submitted`` or :data:`SHED_COUNTERS`
        outcome on its ledger, or on ``evicted`` (which holds its
        ``released``) if its stream was evicted since."""
        stream = self._streams.get(packet.stream_id)
        live = stream is not None and stream.counters is packet.ledger
        (packet.ledger if live else self.evicted)[outcome] += 1

    def stream_ids(self) -> List[int]:
        return sorted(self._streams)

    def stats(self) -> Dict[str, dict]:
        """Counter snapshot:
        ``{"listener": {...}, "streams": {id: {...}}, "evicted": {...}}``."""
        streams = {}
        for stream_id, stream in sorted(self._streams.items()):
            view = dict(stream.counters)
            view["staged"] = staged(stream.counters)
            view["pending"] = len(stream.pending)
            view["ready"] = len(stream.ready)
            view["next_seq"] = stream.next_seq
            view["session"] = stream.session
            streams[str(stream_id)] = view
        return {
            "listener": dict(self.listener),
            "streams": streams,
            "evicted": dict(self.evicted),
        }
