"""The packetized-IQ wire format: one header, three payload codecs.

A modem packet travels as one or more *datagrams* (UDP payloads, or
length-prefixed TCP frames carrying the identical bytes).  Every
datagram opens with a fixed 36-byte little-endian header:

======  ====  ==========  =================================================
offset  size  field       meaning
======  ====  ==========  =================================================
0       4     magic       ``0x51493135`` — rejects non-protocol traffic
4       2     version     wire-format revision (this module: ``1``)
6       1     dtype       payload codec: 1=Q15, 2=complex64, 3=complex128
7       1     n_ant       antennas (rows of the rx array), 1..8
8       4     stream_id   the logical IQ stream this packet belongs to
12      4     session     per-sender nonce; a change resets the stream
16      4     seq         packet sequence number within the stream
20      4     n_samples   samples per antenna in the *whole* packet
24      2     n_symbols   data symbols: must be 2 (the receiver's pair)
26      2     frag_index  which fragment of the packet this datagram is
28      2     frag_count  fragments the packet was split into (0 = control)
30      2     flags       bit 0: end-of-stream marker (``seq`` = count)
32      4     payload_len payload bytes following the header
======  ====  ==========  =================================================

Payload codecs (per complex sample): **Q15** — interleaved int16
``(I, Q)`` pairs via :func:`repro.phy.fixed.q15` (4 bytes, the ADC-true
transport the paper's front-end would produce); **complex64** (8
bytes); **complex128** (16 bytes, bit-exact transport of the
reference-channel waveforms).  Antennas are concatenated row-major, so
fragment boundaries never need to align with antenna rows.

Fragmentation is uniform: a packet's payload is split into
``frag_count`` chunks of one fixed size (last chunk short), so joining
the chunks in ``frag_index`` order reconstructs the payload — no
per-fragment offset field, and arbitrary fragment reordering is
tolerated.  The chunk size itself is *not* part of the protocol: the
receiver learns it per packet from the first non-last fragment seen
(and enforces uniformity), so senders with different MTUs coexist on
one listener.

The parser checks the header's shape, not its content: a well-formed
packet whose ``n_symbols`` is not the receiver's
:data:`repro.phy.params.DATA_SYMBOLS` parses here and is written off
as ``corrupt`` by the reassembler once complete.

The parser raises typed :class:`ProtocolError` subclasses so the
reassembler can account malformed traffic per cause without string
matching.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.phy.fixed import from_q15, q15

__all__ = [
    "DTYPES",
    "FLAG_END",
    "HEADER_SIZE",
    "Header",
    "MAGIC",
    "MAX_PACKET_NBYTES",
    "ProtocolError",
    "BadMagic",
    "CorruptHeader",
    "TruncatedDatagram",
    "VersionMismatch",
    "VERSION",
    "decode_payload",
    "encode_packet",
    "encode_payload",
    "end_marker",
    "fragment_extent",
    "iq_roundtrip",
    "parse_datagram",
    "payload_nbytes",
]

#: First four wire bytes of every datagram (little-endian ``"51IQ"``).
MAGIC = 0x51493135

#: Wire-format revision this module speaks.
VERSION = 1

#: Header layout (little-endian, 36 bytes) — see the module docstring.
_HEADER_FMT = "<IHBBIIIIHHHHI"
HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: Payload codec ids and their bytes per complex sample.
DTYPES = {"q15": 1, "c64": 2, "c128": 3}
_DTYPE_NAMES = {v: k for k, v in DTYPES.items()}
_ITEMSIZE = {1: 4, 2: 8, 3: 16}

#: Flags bit 0: end-of-stream control datagram (``seq`` = packet count).
FLAG_END = 0x0001

#: Hard bound on one packet's payload (64 MiB).  ``n_samples`` is a
#: u32, so without a cap a single forged header could promise a
#: ~512 GiB packet and the receiver would buffer fragments toward it;
#: with the cap, any datagram claiming more is rejected at parse time
#: before a byte is buffered.  Enforced symmetrically by the encoder.
MAX_PACKET_NBYTES = 1 << 26

_MAX_ANTENNAS = 8


class ProtocolError(ValueError):
    """Base class for wire-format violations (typed, per cause)."""


class TruncatedDatagram(ProtocolError):
    """Datagram shorter than its header claims (or than the header)."""


class BadMagic(ProtocolError):
    """The first four bytes are not the protocol magic."""


class VersionMismatch(ProtocolError):
    """A well-framed datagram from an incompatible protocol revision."""

    def __init__(self, got: int, want: int = VERSION) -> None:
        super().__init__("wire version %d, this receiver speaks %d" % (got, want))
        self.got = got
        self.want = want


class CorruptHeader(ProtocolError):
    """Magic and version parse but a header field is inconsistent."""


@dataclass(frozen=True)
class Header:
    """One parsed datagram header (all fields host-order ints)."""

    dtype: int
    n_ant: int
    stream_id: int
    session: int
    seq: int
    n_samples: int
    n_symbols: int
    frag_index: int
    frag_count: int
    flags: int
    payload_len: int

    @property
    def is_end(self) -> bool:
        """True for the end-of-stream control datagram."""
        return bool(self.flags & FLAG_END)

    @property
    def dtype_name(self) -> str:
        return _DTYPE_NAMES[self.dtype]

    @property
    def packet_nbytes(self) -> int:
        """Total payload bytes of the whole (unfragmented) packet."""
        return self.n_ant * self.n_samples * _ITEMSIZE[self.dtype]


def _dtype_code(dtype: "int | str") -> int:
    if isinstance(dtype, str):
        if dtype not in DTYPES:
            raise ValueError(
                "unknown payload dtype %r; expected one of %s" % (dtype, sorted(DTYPES))
            )
        return DTYPES[dtype]
    if dtype not in _DTYPE_NAMES:
        raise ValueError("unknown payload dtype code %r" % (dtype,))
    return int(dtype)


def payload_nbytes(dtype: "int | str", n_ant: int, n_samples: int) -> int:
    """Encoded payload size of one whole packet, in bytes."""
    return int(n_ant) * int(n_samples) * _ITEMSIZE[_dtype_code(dtype)]


# ----------------------------------------------------------------------
# Payload codecs.
# ----------------------------------------------------------------------


def encode_payload(rx: np.ndarray, dtype: "int | str" = "c64") -> bytes:
    """Encode an ``(n_ant, n_samples)`` complex array for the wire."""
    code = _dtype_code(dtype)
    rx = np.ascontiguousarray(np.atleast_2d(rx))
    if code == DTYPES["q15"]:
        pairs = np.empty(rx.shape + (2,), dtype=np.int16)
        pairs[..., 0] = q15(rx.real)
        pairs[..., 1] = q15(rx.imag)
        return pairs.tobytes()
    if code == DTYPES["c64"]:
        return rx.astype(np.complex64).tobytes()
    return rx.astype(np.complex128).tobytes()


def decode_payload(
    data: bytes, dtype: "int | str", n_ant: int, n_samples: int
) -> np.ndarray:
    """Decode wire bytes back to an ``(n_ant, n_samples)`` complex128 array."""
    code = _dtype_code(dtype)
    expected = payload_nbytes(code, n_ant, n_samples)
    if len(data) != expected:
        raise CorruptHeader(
            "payload is %d bytes, dtype/shape say %d" % (len(data), expected)
        )
    if code == DTYPES["q15"]:
        pairs = np.frombuffer(data, dtype=np.int16).reshape(n_ant, n_samples, 2)
        return from_q15(pairs[..., 0]) + 1j * from_q15(pairs[..., 1])
    if code == DTYPES["c64"]:
        flat = np.frombuffer(data, dtype=np.complex64)
    else:
        flat = np.frombuffer(data, dtype=np.complex128)
    return flat.reshape(n_ant, n_samples).astype(np.complex128)


def iq_roundtrip(rx: np.ndarray, dtype: "int | str" = "c64") -> np.ndarray:
    """What a receiver sees after one encode/decode round trip.

    This *defines* the delivered payload for lossy codecs: a loopback
    ingest run is bit-identical to an in-process baseline fed
    ``iq_roundtrip(rx, dtype)``.  For ``c128`` the round trip is exact.
    """
    rx = np.atleast_2d(rx)
    return decode_payload(
        encode_payload(rx, dtype), dtype, int(rx.shape[0]), int(rx.shape[1])
    )


# ----------------------------------------------------------------------
# Datagram building.
# ----------------------------------------------------------------------


def _pack(
    dtype: int,
    n_ant: int,
    stream_id: int,
    session: int,
    seq: int,
    n_samples: int,
    n_symbols: int,
    frag_index: int,
    frag_count: int,
    flags: int,
    payload: bytes,
) -> bytes:
    header = struct.pack(
        _HEADER_FMT,
        MAGIC,
        VERSION,
        dtype,
        n_ant,
        stream_id,
        session,
        seq,
        n_samples,
        n_symbols,
        frag_index,
        frag_count,
        flags,
        len(payload),
    )
    return header + payload


def fragment_extent(header: Header, max_payload: int) -> Tuple[int, int]:
    """Byte ``(offset, length)`` of one fragment within its packet payload."""
    offset = header.frag_index * max_payload
    length = min(max_payload, header.packet_nbytes - offset)
    return offset, length


def encode_packet(
    stream_id: int,
    seq: int,
    rx: np.ndarray,
    n_symbols: int = 2,
    dtype: "int | str" = "c64",
    session: int = 0,
    max_payload: int = 1408,
) -> List[bytes]:
    """Encode one modem packet as its ordered list of wire datagrams.

    *max_payload* bounds each datagram's payload (1408 + the 36-byte
    header stays under a 1500-byte MTU); the packet is split into
    uniform chunks so the receiver derives offsets from ``frag_index``.
    """
    if max_payload < 1:
        raise ValueError("max_payload must be >= 1, got %d" % max_payload)
    code = _dtype_code(dtype)
    rx = np.atleast_2d(rx)
    n_ant, n_samples = int(rx.shape[0]), int(rx.shape[1])
    if not 1 <= n_ant <= _MAX_ANTENNAS:
        raise ValueError("n_ant must be 1..%d, got %d" % (_MAX_ANTENNAS, n_ant))
    payload = encode_payload(rx, code)
    if len(payload) > MAX_PACKET_NBYTES:
        raise ValueError(
            "packet payload of %d bytes exceeds the %d-byte protocol cap"
            % (len(payload), MAX_PACKET_NBYTES)
        )
    frag_count = max(1, -(-len(payload) // max_payload))
    if frag_count > 0xFFFF:
        raise ValueError("packet needs %d fragments (> 65535)" % frag_count)
    out = []
    for idx in range(frag_count):
        chunk = payload[idx * max_payload : (idx + 1) * max_payload]
        out.append(
            _pack(
                code, n_ant, stream_id, session, seq, n_samples, n_symbols,
                idx, frag_count, 0, chunk,
            )
        )
    return out


def end_marker(stream_id: int, n_packets: int, session: int = 0) -> bytes:
    """The end-of-stream control datagram (``seq`` carries the count).

    Advisory, not load-bearing: it lets a receiver account trailing
    gaps precisely at flush time.  Senders on lossy transports should
    repeat it; duplicates are idempotent.
    """
    return _pack(
        DTYPES["c64"], 1, stream_id, session, n_packets, 0, 0, 0, 0, FLAG_END, b""
    )


# ----------------------------------------------------------------------
# Parsing.
# ----------------------------------------------------------------------


def parse_datagram(data: bytes) -> Tuple[Header, bytes]:
    """Parse one datagram into ``(Header, payload)``, validating hard.

    Raises the typed :class:`ProtocolError` family: short data →
    :class:`TruncatedDatagram`, foreign magic → :class:`BadMagic`,
    wrong revision → :class:`VersionMismatch`, and any internally
    inconsistent field → :class:`CorruptHeader`.
    """
    if len(data) < HEADER_SIZE:
        if len(data) >= 4 and struct.unpack_from("<I", data)[0] != MAGIC:
            raise BadMagic("first bytes are not the ingest magic")
        raise TruncatedDatagram(
            "datagram of %d bytes is shorter than the %d-byte header"
            % (len(data), HEADER_SIZE)
        )
    (
        magic, version, dtype, n_ant, stream_id, session, seq, n_samples,
        n_symbols, frag_index, frag_count, flags, payload_len,
    ) = struct.unpack_from(_HEADER_FMT, data)
    if magic != MAGIC:
        raise BadMagic("magic 0x%08x != 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise VersionMismatch(version)
    header = Header(
        dtype, n_ant, stream_id, session, seq, n_samples, n_symbols,
        frag_index, frag_count, flags, payload_len,
    )
    payload = data[HEADER_SIZE:]
    if len(payload) < payload_len:
        raise TruncatedDatagram(
            "payload truncated: header says %d bytes, datagram carries %d"
            % (payload_len, len(payload))
        )
    if len(payload) > payload_len:
        raise CorruptHeader(
            "%d trailing bytes after the declared payload" % (len(payload) - payload_len)
        )
    if header.is_end:
        if frag_count != 0 or payload_len != 0:
            raise CorruptHeader("end-of-stream marker carries a payload")
        return header, b""
    if dtype not in _DTYPE_NAMES:
        raise CorruptHeader("unknown payload dtype code %d" % dtype)
    if not 1 <= n_ant <= _MAX_ANTENNAS:
        raise CorruptHeader("n_ant %d outside 1..%d" % (n_ant, _MAX_ANTENNAS))
    if frag_count < 1:
        raise CorruptHeader("data datagram with frag_count 0")
    if frag_index >= frag_count:
        raise CorruptHeader(
            "frag_index %d >= frag_count %d" % (frag_index, frag_count)
        )
    if n_samples < 1:
        raise CorruptHeader("n_samples must be >= 1, got %d" % n_samples)
    if header.packet_nbytes > MAX_PACKET_NBYTES:
        raise CorruptHeader(
            "packet claims %d payload bytes, cap is %d"
            % (header.packet_nbytes, MAX_PACKET_NBYTES)
        )
    if frag_count > header.packet_nbytes:
        raise CorruptHeader(
            "frag_count %d exceeds the packet's %d payload bytes"
            % (frag_count, header.packet_nbytes)
        )
    return header, payload
