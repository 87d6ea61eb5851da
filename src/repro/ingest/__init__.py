"""`repro.ingest` — networked packetized-IQ ingest feeding the fabric.

The serving front door: external clients push IQ sample streams at a
listener over UDP datagrams or length-prefixed TCP frames, and complete
modem packets come out the other side as :class:`~repro.fabric.Fabric`
submissions — in per-stream sequence order, each exactly once, with
every loss accounted.  Layers, bottom up:

- :mod:`repro.ingest.protocol` — the wire format: a fixed 36-byte
  little-endian header (magic / version / stream id / session / seq /
  shape / fragmentation) over Q15, complex64 or complex128 payload.
- :mod:`repro.ingest.reassembly` — per-stream fragment reassembly and
  bounded-window reordering, declaring gaps/duplicates/corruption into
  a strict counter taxonomy; each stream's record is its whole ledger,
  through submission and shedding.
- :mod:`repro.ingest.server` — :class:`IngestServer`: the socket
  listener thread, the staging queue, fabric submission with typed
  backpressure shedding, and the observability surface
  (``fabric.report()["ingest"]``, ``repro_ingest_*`` Prometheus
  families, the ``ingest:listener`` health check).
- :mod:`repro.ingest.client` — :func:`send_stream`: the encoder the
  tests, benchmarks and example use to drive it over loopback, with
  seeded reorder/drop/duplicate chaos injection.

Wire-format specification: DESIGN.md §5.14.
"""

from repro.ingest.client import SendReport, send_datagrams, send_stream
from repro.ingest.protocol import (
    DTYPES,
    FLAG_END,
    HEADER_SIZE,
    MAGIC,
    MAX_PACKET_NBYTES,
    VERSION,
    BadMagic,
    CorruptHeader,
    Header,
    ProtocolError,
    TruncatedDatagram,
    VersionMismatch,
    decode_payload,
    encode_packet,
    encode_payload,
    end_marker,
    iq_roundtrip,
    parse_datagram,
    payload_nbytes,
)
from repro.ingest.reassembly import (
    LISTENER_COUNTERS,
    SHED_COUNTERS,
    STREAM_COUNTERS,
    ReassembledPacket,
    Reassembler,
)
from repro.ingest.server import IngestError, IngestServer

__all__ = [
    "BadMagic",
    "CorruptHeader",
    "DTYPES",
    "FLAG_END",
    "HEADER_SIZE",
    "Header",
    "IngestError",
    "IngestServer",
    "LISTENER_COUNTERS",
    "MAGIC",
    "MAX_PACKET_NBYTES",
    "ProtocolError",
    "ReassembledPacket",
    "Reassembler",
    "SHED_COUNTERS",
    "STREAM_COUNTERS",
    "SendReport",
    "TruncatedDatagram",
    "VERSION",
    "VersionMismatch",
    "decode_payload",
    "encode_packet",
    "encode_payload",
    "end_marker",
    "iq_roundtrip",
    "parse_datagram",
    "payload_nbytes",
    "send_datagrams",
    "send_stream",
]
