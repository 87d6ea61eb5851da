"""The ingest ledger under stream-id churn and a Hypothesis state
machine, with no sockets.

The churn tests pin that a stream's submissions and sheds are booked on
the record that released it, or on the ``evicted`` aggregate once that
record is gone, and that no per-stream structure outgrows
``max_streams``.  The state machine drives the :class:`~repro.ingest.Reassembler` behind an
:class:`~repro.ingest.IngestServer` (its staging queue, submission and
shedding) through a stub fabric whose outcomes the rules choose.  The
rules deliver a packet's fragments reordered, duplicated, dropped or
corrupted, re-deliver old datagrams late, reset sessions, churn more
stream ids than a small ``max_streams``, overflow the staging buffer,
accept/drop/reject at submission and flush.  After every step, for
each live stream and for the ``evicted`` aggregate:

- ``released == submitted + shed + staged``, where ``staged`` counts
  the packets actually sitting in the server's staging queue for that
  ledger (and is what the report says);
- ``sent == released + gaps + incomplete + corrupt + buffered``, where
  ``sent`` counts every sequence up to each epoch's horizon (its highest
  delivered sequence or end-marker count: a packet lost whole after it
  cannot be known yet) and ``buffered`` is what the stream still owes
  (pending, ready and undeclared holes); the aggregate owes nothing;
- at most ``max_streams`` streams live, each holding at most ``window``
  packets of reordering state.
"""

from collections import deque

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.fabric import SubmitOutcome
from repro.ingest import SHED_COUNTERS, IngestServer, Reassembler, encode_packet, end_marker

WINDOW = 4
MAX_STREAMS = 2
STREAM_BUFFER = 2
STREAM_IDS = st.integers(0, 3)
#: 2 x 16 complex64 = 256 payload bytes in three fragments.
_MAX_PAYLOAD = 100
_RX = (np.arange(32).reshape(2, 16) * (1 + 1j) / 64).astype(np.complex128)
_RX_LIE = _RX[:, :12]  # same seq, other geometry: written off as corrupt


class _StubFabric:
    """The fabric surface IngestServer uses; outcomes cycle a pattern."""

    def __init__(self):
        self.outcomes = ["accept"]
        self.next_id = 0

    def attach_ingest(self, ingest):
        pass

    def ingest_event(self, kind, n=1):
        pass

    def offer_many(self, rxs):
        out = []
        for k in range(len(rxs)):
            kind = self.outcomes[k % len(self.outcomes)]
            if kind == "accept":
                out.append(SubmitOutcome(self.next_id))
                self.next_id += 1
            else:
                out.append(SubmitOutcome(None, kind))
        return out

    def poll(self, timeout=0.0):
        return 0

    def drain(self, timeout=None):
        pass

    def results(self):
        return {}


def _single_packet_streams(server, stream_ids, session=0):
    """One single-datagram packet per stream id, polled after each."""
    for stream_id in stream_ids:
        for datagram in encode_packet(stream_id, 0, _RX, session=session):
            server._ingest_datagram(datagram)
        server.poll()


def test_churn_of_single_packet_streams_balances_through_evicted():
    """2,000 single-packet stream ids: 256 records stay live, the other
    1,744 balance through the aggregate, and nothing grows past 256."""
    server = IngestServer(_StubFabric(), udp_port=0, track_submissions=64)
    _single_packet_streams(server, range(2000))
    assert server.accounting_problems({sid: 1 for sid in range(2000)}) == []
    report = server.ingest_report()
    assert len(report["streams"]) == 256
    evicted = report["evicted"]
    assert evicted["streams"] == 1744
    assert evicted["submitted"] == evicted["released"] == 1744
    for owner in (server, server._reassembler):
        for name, value in vars(owner).items():
            if isinstance(value, (dict, list, set, deque)):
                assert len(value) <= 256, (type(owner).__name__, name, len(value))


def test_reused_stream_id_reports_only_its_own_epoch():
    """An id evicted after 4 submissions and reused by a new sender
    reports its 1 packet; the 4 stay in the aggregate."""
    server = IngestServer(_StubFabric(), udp_port=0)
    for seq in range(4):
        for datagram in encode_packet(0, seq, _RX):
            server._ingest_datagram(datagram)
    server.poll()
    _single_packet_streams(server, range(1, 257))  # evicts stream 0
    assert "0" not in server.ingest_report()["streams"]
    _single_packet_streams(server, [0], session=1)
    view = server.ingest_report()["streams"]["0"]
    assert (view["released"], view["submitted"], view["staged"]) == (1, 1, 0), view
    sent = {sid: 1 for sid in range(257)}
    sent[-1] = 4  # stream 0's evicted epoch
    assert server.accounting_problems(sent) == []


def test_packet_staged_across_eviction_is_booked_on_evicted():
    """A packet released before its stream was evicted is booked on the
    aggregate, never on a new record that reuses the id."""
    server = IngestServer(_StubFabric(), udp_port=0)
    server._reassembler = Reassembler(max_streams=1)
    for datagram in encode_packet(0, 0, _RX):
        server._ingest_datagram(datagram)  # staged, not polled
    for datagram in encode_packet(1, 0, _RX) + encode_packet(0, 0, _RX, session=1):
        server._ingest_datagram(datagram)  # evicts 0, then 1; 0 is new
    server.fabric.outcomes = ["accept", "dropped", "rejected"]
    server.poll()
    report = server.ingest_report()
    view, evicted = report["streams"]["0"], report["evicted"]
    assert (view["released"], view["shed_rejected"], view["submitted"]) == (1, 1, 0)
    assert (evicted["released"], evicted["submitted"], evicted["shed_dropped"]) == (2, 1, 1)
    assert server.accounting_problems({0: 1, 1: 1, -1: 1}) == []


class _Record:
    """The model of one live reassembler record (one ledger)."""

    def __init__(self, session):
        self.session = session
        self.settled = 0  # sequences of its earlier, reset epochs
        self.horizon = 0  # sequences the current epoch can know of


class IngestLedger(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fabric = _StubFabric()
        self.server = IngestServer(self.fabric, udp_port=0, stream_buffer=STREAM_BUFFER)
        self.reassembler = Reassembler(window=WINDOW, max_streams=MAX_STREAMS)
        self.server._reassembler = self.reassembler
        self.sender = {}  # stream id -> [session, next seq to produce]
        self.records = {}  # stream id -> _Record
        self.evicted_sent = 0
        self.history = []  # (stream id, session, seq, datagram)

    # -- delivery, mirrored into the model ----------------------------

    def _ledger(self, stream_id):
        """The live record's ledger and its packets in the staging queue."""
        state = self.reassembler._streams.get(stream_id)
        if state is None:
            return None, 0
        return state.counters, self._staged_by_ledger().get(id(state.counters), 0)

    def _deliver(self, stream_id, session, datagram, horizon):
        before = set(self.reassembler.stream_ids())
        ledger, queued = self._ledger(stream_id)
        released = ledger["released"] if ledger else 0
        overflow = ledger["shed_overflow"] if ledger else 0
        self.server._ingest_datagram(datagram)
        # Staging admits the released packets while the stream has fewer
        # than STREAM_BUFFER staged, and sheds the newest beyond that.
        after, after_queued = self._ledger(stream_id)
        if after is not ledger:
            released = overflow = queued = 0
        n = after["released"] - released
        kept = min(n, STREAM_BUFFER - queued)
        assert after_queued == queued + kept
        assert after["shed_overflow"] - overflow == n - kept
        for gone in before - set(self.reassembler.stream_ids()):
            record = self.records.pop(gone)
            self.evicted_sent += record.settled + record.horizon
        record = self.records.get(stream_id)
        if record is None:
            record = self.records[stream_id] = _Record(session)
        elif record.session != session:
            record.settled += record.horizon
            record.horizon = 0
            record.session = session
        record.horizon = max(record.horizon, horizon)

    # -- rules --------------------------------------------------------

    @rule(
        stream_id=STREAM_IDS,
        new_session=st.booleans(),
        frags=st.one_of(*[st.permutations([0, 1, 2])] * 3, st.lists(st.integers(0, 2), max_size=5)),
        corrupt=st.sampled_from([None, None, None, "symbols", "geometry"]),
    )
    def send_packet(self, stream_id, new_session, frags, corrupt):
        """Produce the sender's next packet and deliver a reordered,
        duplicated or thinned selection of its fragments."""
        session, seq = self.sender.setdefault(stream_id, [0, 0])
        if new_session:
            session, seq = session + 1, 0
        self.sender[stream_id] = [session, seq + 1]
        n_symbols = 3 if corrupt == "symbols" else 2
        datagrams = encode_packet(stream_id, seq, _RX, n_symbols=n_symbols,
                                  session=session, max_payload=_MAX_PAYLOAD)
        if corrupt == "geometry":
            datagrams = datagrams[:1] + encode_packet(
                stream_id, seq, _RX_LIE, session=session, max_payload=_MAX_PAYLOAD)[1:]
        for index in frags:
            datagram = datagrams[min(index, len(datagrams) - 1)]
            self.history.append((stream_id, session, seq, datagram))
            self._deliver(stream_id, session, datagram, seq + 1)

    @rule(pick=st.integers(0, 1 << 16))
    def deliver_late(self, pick):
        """Re-deliver an old datagram of the stream's current session:
        out of order, duplicate or stale by then."""
        late = [h for h in self.history
                if h[0] in self.records and self.records[h[0]].session == h[1]]
        if late:
            stream_id, session, seq, datagram = late[pick % len(late)]
            self._deliver(stream_id, session, datagram, seq + 1)

    @rule(stream_id=STREAM_IDS)
    def send_end_marker(self, stream_id):
        if stream_id in self.records:
            session, count = self.sender[stream_id]
            self._deliver(stream_id, session, end_marker(stream_id, count, session), count)

    @rule()
    def send_garbage(self):
        self.server._ingest_datagram(b"not a datagram at all, just bytes")

    @rule(outcomes=st.lists(st.sampled_from(["accept", "dropped", "rejected"]),
                            min_size=1, max_size=3))
    def poll(self, outcomes):
        self.fabric.outcomes = outcomes
        self.server.poll()

    @rule()
    def flush(self):
        self.server.drain(idle_s=0.0, timeout=10.0)
        sent = {sid: r.settled + r.horizon for sid, r in self.records.items()}
        sent[-1] = self.evicted_sent  # never a live id: the evicted total
        assert self.server.accounting_problems(sent) == []

    # -- invariants ---------------------------------------------------

    def _staged_by_ledger(self):
        counts = {}
        for packet in self.server._staged:
            counts[id(packet.ledger)] = counts.get(id(packet.ledger), 0) + 1
        return counts

    @invariant()
    def ledgers_balance(self):
        staged = self._staged_by_ledger()
        streams = self.reassembler.stats()["streams"]
        assert len(streams) <= MAX_STREAMS
        live = 0
        for stream_id, record in self.records.items():
            view = streams[str(stream_id)]
            state = self.reassembler._streams[stream_id]
            in_queue = staged.get(id(state.counters), 0)
            live += in_queue
            shed = sum(view[name] for name in SHED_COUNTERS)
            assert view["staged"] == in_queue <= STREAM_BUFFER, (stream_id, view)
            assert view["released"] == view["submitted"] + shed + in_queue, view
            assert view["pending"] + view["ready"] <= WINDOW, view
            assert view["next_seq"] <= record.horizon, (view, record.horizon)
            buffered = record.horizon - view["next_seq"] - len(state.corrupt_seqs)
            assert buffered >= view["pending"] + view["ready"], view
            lost = view["gaps"] + view["incomplete"] + view["corrupt"]
            assert record.settled + record.horizon == view["released"] + lost + buffered
        assert set(streams) == {str(sid) for sid in self.records}
        evicted = self.reassembler.stats()["evicted"]
        in_queue = len(self.server._staged) - live
        shed = sum(evicted[name] for name in SHED_COUNTERS)
        assert evicted["released"] == evicted["submitted"] + shed + in_queue, evicted
        lost = evicted["gaps"] + evicted["incomplete"] + evicted["corrupt"]
        assert self.evicted_sent == evicted["released"] + lost, evicted


IngestLedger.TestCase.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None, derandomize=True
)
TestIngestLedger = IngestLedger.TestCase
