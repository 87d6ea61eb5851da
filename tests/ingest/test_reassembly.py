"""Reassembler edge cases: reordering, loss, duplication, epoch resets.

Every test also checks the accounting taxonomy — the exactly-once
invariant lives or dies on these counters.
"""

import struct

import numpy as np

from repro.ingest import Reassembler, encode_packet, end_marker, iq_roundtrip


def _rx(seed, n=80):  # 2x80 c64 = 1280 B: single-fragment by default
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))) / 4


def _frames(seq, seed=None, session=0, max_payload=1408, stream_id=1, dtype="c64"):
    return encode_packet(
        stream_id, seq, _rx(seed if seed is not None else seq),
        dtype=dtype, session=session, max_payload=max_payload,
    )


def _counters(r, stream_id=1):
    return r.stats()["streams"][str(stream_id)]


def test_in_order_stream_releases_immediately():
    r = Reassembler(window=4)
    out = []
    for seq in range(5):
        out.extend(r.offer(_frames(seq)[0]))
    assert [p.seq for p in out] == [0, 1, 2, 3, 4]
    c = _counters(r)
    assert c["released"] == 5 and c["gaps"] == 0 and c["out_of_order"] == 0
    np.testing.assert_array_equal(out[0].rx, iq_roundtrip(_rx(0), "c64"))


def test_out_of_order_within_window_is_reordered():
    r = Reassembler(window=8)
    order = [2, 0, 1, 4, 3]
    out = []
    for seq in order:
        out.extend(r.offer(_frames(seq)[0]))
    assert [p.seq for p in out] == [0, 1, 2, 3, 4], "released in sequence order"
    c = _counters(r)
    assert c["released"] == 5
    assert c["gaps"] == 0
    assert c["out_of_order"] >= 2  # 0 after 2, 3 after 4


def test_reorder_beyond_window_declares_the_hole_lost():
    r = Reassembler(window=2)
    out = []
    for seq in [1, 2, 3]:  # seq 0 never arrives
        out.extend(r.offer(_frames(seq)[0]))
    # window=2: once seq 2 is seen, the line cannot wait for 0 anymore.
    assert [p.seq for p in out] == [1, 2, 3]
    c = _counters(r)
    assert c["gaps"] == 1 and c["released"] == 3
    # The hole's datagram arriving *after* the write-off is stale, and
    # never resurrects the sequence.
    assert r.offer(_frames(0)[0]) == []
    assert _counters(r)["stale"] == 1
    assert _counters(r)["released"] == 3


def test_duplicate_datagrams_are_dropped_and_counted():
    r = Reassembler(window=4)
    frames = _frames(0, max_payload=200)  # multi-fragment
    assert len(frames) > 2
    out = list(r.offer(frames[0]))
    out.extend(r.offer(frames[0]))  # duplicate fragment, packet pending
    for f in frames[1:]:
        out.extend(r.offer(f))
    assert [p.seq for p in out] == [0]
    c = _counters(r)
    assert c["duplicates"] == 1 and c["reassembled"] == 1 and c["released"] == 1


def test_fragment_loss_mid_packet_counts_incomplete():
    r = Reassembler(window=1)
    frames = _frames(0, max_payload=200)
    for f in frames[:-1]:  # lose the last fragment of seq 0
        r.offer(f)
    out = []
    for f in _frames(1, max_payload=200):  # seq 1 arrives whole
        out.extend(r.offer(f))
    c = _counters(r)
    assert c["incomplete"] == 1, c
    assert [p.seq for p in out] == [1]
    assert c["gaps"] == 0


def test_malformed_traffic_lands_in_listener_counters():
    r = Reassembler()
    good = _frames(0)[0]
    assert r.offer(b"garbage traffic") == []
    assert r.offer(good[:20]) == []
    bad_version = bytearray(good)
    struct.pack_into("<H", bad_version, 4, 7)
    assert r.offer(bytes(bad_version)) == []
    bad_dtype = bytearray(good)
    struct.pack_into("<B", bad_dtype, 6, 200)
    assert r.offer(bytes(bad_dtype)) == []
    listener = r.stats()["listener"]
    assert listener == {
        "bad_magic": 1, "truncated": 1, "version_mismatch": 1, "corrupt_header": 1,
    }
    assert r.stats()["streams"] == {}, "malformed traffic creates no stream"


def test_session_change_resets_the_stream_epoch():
    """A restarted sender reuses stream id 1 with a fresh session nonce:
    its seq numbering restarts cleanly instead of drowning as stale."""
    r = Reassembler(window=4)
    out = []
    for seq in range(3):
        out.extend(r.offer(_frames(seq, session=100)[0]))
    # Restart: same stream id, new session, seq starts over at 0.
    for seq in range(2):
        out.extend(r.offer(_frames(seq, seed=50 + seq, session=200)[0]))
    assert [p.seq for p in out] == [0, 1, 2, 0, 1]
    assert [p.session for p in out] == [100, 100, 100, 200, 200]
    c = _counters(r)
    assert c["resets"] == 1
    assert c["released"] == 5, "lifetime counters survive the reset"
    assert c["stale"] == 0, "the new epoch is not mistaken for old traffic"


def test_geometry_lie_on_one_seq_counts_corrupt():
    r = Reassembler(window=4)
    frames = _frames(0, max_payload=200)
    r.offer(frames[0])
    # Same (stream, session, seq) but different claimed sample count.
    liar = encode_packet(1, 0, _rx(0, n=64), dtype="c64", max_payload=200)[0]
    assert r.offer(liar) == []
    c = _counters(r)
    assert c["corrupt"] == 1
    assert c["pending"] == 0, "the poisoned packet was discarded whole"


def test_packet_claiming_other_than_the_symbol_pair_counts_corrupt():
    r = Reassembler(window=4)
    three = encode_packet(1, 1, _rx(1), n_symbols=3, dtype="c64", max_payload=400)
    out = r.offer(_frames(0)[0])
    for frame in three:
        out += r.offer(frame)
    out += r.offer(_frames(2)[0])
    assert [p.seq for p in out] == [0, 2], "the written-off seq never blocks the line"
    c = _counters(r)
    assert c["corrupt"] == 1 and c["reassembled"] == 2 and c["released"] == 2
    assert c["pending"] == 0 and c["gaps"] == 0


def test_flush_uses_end_marker_to_account_trailing_gaps():
    r = Reassembler(window=16)
    released = []
    for seq in [0, 1, 3]:  # 2 lost mid-stream, 4 lost at the tail
        released.extend(r.offer(_frames(seq)[0]))
    released.extend(r.offer(end_marker(1, 5)))
    assert [p.seq for p in released] == [0, 1]
    flushed = r.flush()
    assert [p.seq for p in flushed] == [3]
    c = _counters(r)
    assert c["gaps"] == 2, "both the mid-stream and the trailing loss"
    assert c["released"] == 3
    # Exactly-once ledger: released + gaps == sender's packet count.
    assert c["released"] + c["gaps"] == 5


def test_duplicate_end_markers_are_idempotent():
    r = Reassembler()
    r.offer(_frames(0)[0])
    for _ in range(3):
        r.offer(end_marker(1, 1))
    assert r.flush() == []
    c = _counters(r)
    assert c["released"] == 1 and c["gaps"] == 0


def test_max_streams_evicts_least_outstanding():
    r = Reassembler(max_streams=2)
    r.offer(_frames(0, stream_id=10)[0])
    r.offer(_frames(0, stream_id=11, max_payload=200)[0])  # pending fragments
    r.offer(_frames(0, stream_id=12)[0])  # forces an eviction
    ids = r.stream_ids()
    assert len(ids) == 2 and 12 in ids
    assert 11 in ids, "the stream holding fragments was kept"


def test_eviction_folds_counters_into_aggregate_bucket():
    r = Reassembler(max_streams=2)
    r.offer(_frames(0, stream_id=10)[0])  # clean: 1 released
    r.offer(_frames(0, stream_id=11, max_payload=200)[0])  # outstanding state
    r.offer(_frames(0, stream_id=12)[0])  # evicts the clean stream 10
    assert r.stream_ids() == [11, 12]
    ev = r.stats()["evicted"]
    assert ev["streams"] == 1
    assert ev["released"] == 1, "the evicted stream's history survives"
    assert ev["gaps"] == 0 and ev["incomplete"] == 0


def test_eviction_settles_outstanding_state():
    r = Reassembler(window=64, max_streams=1)
    r.offer(_frames(1, stream_id=10)[0])  # held: seq 0 still missing
    r.offer(_frames(0, stream_id=11)[0])  # evicts stream 10
    ev = r.stats()["evicted"]
    assert ev["streams"] == 1 and ev["received"] == 1
    assert ev["incomplete"] == 1, "the held packet was written off"
    assert ev["gaps"] == 1, "the never-seen seq 0"
    assert ev["released"] == 0


def test_session_reset_settles_the_old_epoch():
    r = Reassembler(window=64)
    r.offer(_frames(0, session=1)[0])
    r.offer(_frames(2, session=1)[0])  # held: seq 1 still missing
    out = r.offer(_frames(0, seed=9, session=2)[0])
    assert [p.seq for p in out] == [0], "the new epoch releases cleanly"
    c = _counters(r)
    assert c["resets"] == 1
    assert c["incomplete"] == 1, "the old epoch's held seq 2"
    assert c["gaps"] == 1, "the old epoch's never-seen seq 1"
    # Ledger: 3 packets of the old epoch + 1 of the new, each once.
    assert c["released"] + c["gaps"] + c["incomplete"] == 4


def test_forged_far_future_seq_advances_arithmetically():
    """One datagram with seq near 2^32 (an unvalidated u32 off the wire)
    must jump the window in O(window), not spin per sequence — and the
    exactly-once ledger must still balance over the whole jump."""
    r = Reassembler(window=4)
    r.offer(_frames(0)[0])
    far = 2**32 - 1
    assert r.offer(_frames(far, seed=1)[0]) == []  # held behind the jumped floor
    flushed = r.flush()
    assert [p.seq for p in flushed] == [far]
    c = _counters(r)
    assert c["released"] == 2
    assert c["released"] + c["gaps"] == 2**32
    # Everything the jump wrote off is stale now, never resurrected.
    assert r.offer(_frames(1)[0]) == []
    assert _counters(r)["stale"] == 1


def test_forged_end_marker_flushes_arithmetically():
    r = Reassembler(window=4)
    r.offer(_frames(0)[0])
    r.offer(end_marker(1, 2**32 - 1))  # forged count near u32 max
    assert r.flush() == []
    c = _counters(r)
    assert c["released"] == 1
    assert c["released"] + c["gaps"] == 2**32 - 1


def test_corrupt_seq_lands_in_exactly_one_counter():
    """A poisoned seq is tombstoned: the window advance never recounts
    it as a gap, late fragments cannot resurrect it, and it never
    blocks the release line."""
    r = Reassembler(window=2)
    frames = _frames(0, max_payload=200)
    r.offer(frames[0])
    liar = encode_packet(1, 0, _rx(0, n=64), dtype="c64", max_payload=200)[0]
    r.offer(liar)  # poisons seq 0 at the head of the line
    assert r.offer(frames[1]) == [], "a late fragment cannot resurrect it"
    out = []
    for seq in [1, 2, 3]:
        out.extend(r.offer(_frames(seq)[0]))
    assert [p.seq for p in out] == [1, 2, 3], "the poison never blocked the line"
    r.offer(end_marker(1, 4))
    assert r.flush() == []
    c = _counters(r)
    assert c["corrupt"] == 1
    assert c["gaps"] == 0 and c["incomplete"] == 0
    assert c["stale"] == 1
    assert c["released"] + c["gaps"] + c["incomplete"] + c["corrupt"] == 4


def test_corrupt_mid_window_not_double_counted_on_advance():
    r = Reassembler(window=2)
    r.offer(_frames(1, max_payload=200)[0])
    liar = encode_packet(1, 1, _rx(5, n=64), dtype="c64", max_payload=200)[0]
    r.offer(liar)  # seq 1 poisoned while seq 0 is still awaited
    out = []
    for seq in [2, 3]:
        out.extend(r.offer(_frames(seq)[0]))
    assert [p.seq for p in out] == [2, 3]
    c = _counters(r)
    assert c["corrupt"] == 1
    assert c["gaps"] == 1, "only seq 0, never seq 1 again"
    assert c["released"] + c["gaps"] + c["corrupt"] == 4


def test_frag_count_lie_is_poisoned_before_buffering():
    """A header claiming absurdly many fragments for its payload size is
    rejected on the *first* fragment — the receiver never hoards bytes
    toward a total the packet's claimed shape cannot tile."""
    r = Reassembler(window=4)
    frame = bytearray(_frames(0, max_payload=200)[0])
    struct.pack_into("<H", frame, 28, 1000)  # frag_count: 7 -> 1000
    assert r.offer(bytes(frame)) == []
    c = _counters(r)
    assert c["corrupt"] == 1
    assert c["pending"] == 0, "the lying packet buffered nothing"
