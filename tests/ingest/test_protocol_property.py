"""Property test of :func:`repro.ingest.parse_datagram` on mutated input.

Valid datagrams (one fragment of an encoded packet, or an end-of-stream
marker) are mutated by byte flips, truncation, extension and rewrites of
single header fields.  Whatever the mutation, the parser either returns
a header inside the bounds its docstring and the module's header table
document, with the payload the header declares, or raises a
:class:`ProtocolError` subclass; any other exception is a bug.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import (
    DTYPES,
    HEADER_SIZE,
    MAX_PACKET_NBYTES,
    ProtocolError,
    encode_packet,
    end_marker,
    parse_datagram,
)

#: ``(offset, struct format)`` of every header field after the magic.
_FIELDS = ((4, "<H"), (6, "<B"), (7, "<B"), (8, "<I"), (12, "<I"), (16, "<I"), (20, "<I"),
           (24, "<H"), (26, "<H"), (28, "<H"), (30, "<H"), (32, "<I"))


@st.composite
def _valid_datagrams(draw):
    if draw(st.integers(0, 5)) == 0:
        return end_marker(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)),
                          session=draw(st.integers(0, 2**32 - 1)))
    n_ant = draw(st.integers(1, 3))
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rx = (rng.standard_normal((n_ant, n)) + 1j * rng.standard_normal((n_ant, n))) / 4
    frames = encode_packet(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)), rx,
                           n_symbols=draw(st.integers(0, 65535)),
                           dtype=draw(st.sampled_from(sorted(DTYPES))),
                           max_payload=draw(st.integers(1, 200)))
    return draw(st.sampled_from(frames))


@st.composite
def _mutated(draw):
    data = bytearray(draw(_valid_datagrams()))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("flip", "truncate", "extend", "field")))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "extend":
            data += draw(st.binary(min_size=1, max_size=64))
        elif kind == "field" and len(data) >= HEADER_SIZE:
            offset, fmt = draw(st.sampled_from(_FIELDS))
            bits = 8 * struct.calcsize(fmt)
            value = draw(st.one_of(st.integers(0, 2**bits - 1),
                                   st.sampled_from((0, 1, 2, 3, 8, 9, 2**bits - 1))))
            struct.pack_into(fmt, data, offset, value)
    return bytes(data)


def _check_bounds(header, payload, data):
    assert header.payload_len == len(payload) == len(data) - HEADER_SIZE
    if header.is_end:
        assert header.frag_count == 0 and payload == b""
        return
    assert header.dtype in DTYPES.values()
    assert 1 <= header.n_ant <= 8
    assert header.n_samples >= 1
    assert 0 <= header.frag_index < header.frag_count
    assert header.packet_nbytes <= MAX_PACKET_NBYTES
    assert header.frag_count <= header.packet_nbytes


@settings(max_examples=400, deadline=None)
@given(_mutated())
def test_mutated_datagrams_parse_in_bounds_or_raise_protocol_errors(data):
    try:
        header, payload = parse_datagram(data)
    except ProtocolError:
        return
    _check_bounds(header, payload, data)


@settings(max_examples=100, deadline=None)
@given(_valid_datagrams())
def test_valid_datagrams_parse_in_bounds(data):
    header, payload = parse_datagram(data)
    _check_bounds(header, payload, data)
