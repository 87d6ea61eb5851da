"""IngestServer over loopback sockets: transport, chaos, accounting.

A cheap checksum stub runner keeps the transport tests fast (transport
bit-identity is about the *bytes*, not the modem); one end-to-end test
runs real waveforms through real forked modem workers and pins the
decode bit-identical to a serial run.
"""

import json
import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.fabric import FABRIC_REPORT_SCHEMA, Fabric
from repro.ingest import (
    IngestServer,
    encode_packet,
    end_marker,
    iq_roundtrip,
    send_datagrams,
    send_stream,
)
from repro.obs.prom import lint_exposition
from repro.runtime import BatchPacketResult
from repro.trace import schema_errors

_SCHEMA_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "fabric_report.schema.json"
)


class _ChecksumRunner:
    """Stands in for a ModemRuntime: deterministic digest of the rx bytes."""

    def run_batch_results(self, rxs):
        return [BatchPacketResult(output={
            "digest": rx.tobytes(),
            "n": int(rx.shape[1]),
        }) for rx in rxs]


def _checksum_factory():
    return _ChecksumRunner()


class _SlowRunner:
    def run_batch_results(self, rxs):
        time.sleep(0.2 * len(rxs))
        return [BatchPacketResult(output={"n": int(rx.shape[1])}) for rx in rxs]


def _slow_factory():
    return _SlowRunner()


class _SlowBatchRunner(_SlowRunner):
    """Batched flavour: one slow call serves a whole dispatch group."""

    def run_batch_results(self, rxs):
        time.sleep(0.2)
        return [BatchPacketResult(output={"n": int(rx.shape[1])}) for rx in rxs]


def _slow_batch_factory():
    return _SlowBatchRunner()


def _waveforms(n, seed=0, n_samples=600):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((2, n_samples)) + 1j * rng.standard_normal((2, n_samples)))
        / 4
        for _ in range(n)
    ]


def _delivered_digests(server, results):
    """(stream_id, seq) -> worker digest for every delivered packet."""
    out = {}
    for (stream_id, seq), task_id in server.submissions().items():
        out[(stream_id, seq)] = results[task_id]["digest"]
    return out


def test_udp_chaos_stream_is_bit_identical_and_fully_accounted():
    """The acceptance-criteria shape in miniature: reordering + drops +
    duplication over loopback UDP, every delivered packet bit-identical
    to the local encode/decode round trip, every packet accounted."""
    waves = _waveforms(60, seed=3)
    fab = Fabric(workers=2, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        with IngestServer(fab, udp_port=0, window=32) as server:
            report = send_stream(
                waves,
                udp=server.udp_address,
                stream_id=1,
                dtype="c64",
                reorder=0.3,
                drop=0.05,
                duplicate=0.05,
                seed=7,
            )
            results = server.drain(timeout=60)
        assert report.reordered > 0 and report.dropped > 0
        delivered = _delivered_digests(server, results)
        # Chaos only drops datagrams the sender *knows about*: loopback
        # UDP with a 4MB receive buffer loses nothing else, so intact
        # packets must all arrive and broken ones must not.
        intact = set(report.intact_seqs)
        assert {seq for _, seq in delivered} == intact
        for seq in intact:
            expected = iq_roundtrip(waves[seq], "c64").tobytes()
            assert delivered[(1, seq)] == expected, "seq %d not bit-identical" % seq
        problems = server.accounting_problems({1: report.n_packets})
        assert problems == [], problems


def test_tcp_stream_delivers_everything_in_order():
    waves = _waveforms(20, seed=5, n_samples=300)
    fab = Fabric(workers=2, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        server = IngestServer(fab, udp_port=None, tcp_port=0).start()
        try:
            report = send_stream(
                waves, tcp=server.tcp_address, stream_id=4, dtype="c128"
            )
            results = server.drain(timeout=60)
        finally:
            server.stop()
        delivered = _delivered_digests(server, results)
        assert len(delivered) == 20
        for seq, rx in enumerate(waves):
            assert delivered[(4, seq)] == rx.astype(np.complex128).tobytes()
        assert server.accounting_problems({4: report.n_packets}) == []
        ingest = fab.report()["ingest"]
        assert ingest["tcp_connections"] == 1
        view = ingest["streams"]["4"]
        assert view["released"] == 20 and view["submitted"] == 20


def test_packets_claiming_other_than_the_symbol_pair_are_corrupt():
    """The receiver decodes one data-symbol pair per packet: packets
    whose header claims 3 symbols, mixed into a pair stream, are written
    off as ``corrupt`` by the reassembler and never reach the runner,
    and the exactly-once ledger still balances."""
    waves = _waveforms(12, seed=17, n_samples=200)
    three = {1, 4, 5, 11}
    wire = []
    for seq, rx in enumerate(waves):
        wire += encode_packet(
            9, seq, rx, n_symbols=3 if seq in three else 2, session=5, max_payload=512
        )
    wire.append(end_marker(9, len(waves), session=5))
    fab = Fabric(workers=1, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        with IngestServer(fab, udp_port=0) as server:
            send_datagrams(wire, udp=server.udp_address)
            results = server.drain(timeout=60)
        view = fab.report()["ingest"]["streams"]["9"]
        delivered = _delivered_digests(server, results)
        assert view["corrupt"] == len(three)
        assert view["released"] == view["submitted"] == len(waves) - len(three)
        assert sorted(seq for _, seq in delivered) == sorted(
            set(range(len(waves))) - three
        )
        for (_, seq), digest in delivered.items():
            assert digest == iq_roundtrip(waves[seq], "c64").tobytes()
        assert fab.report()["counters"]["completed"] == len(waves) - len(three)
        assert server.accounting_problems({9: len(waves)}) == []


def test_fabric_backpressure_shed_is_accounted_per_stream():
    """drop-mode fabric with one slow worker: ingest keeps up, the
    fabric sheds — every shed packet lands in shed_dropped, and the
    exactly-once ledger still balances."""
    waves = _waveforms(12, seed=11, n_samples=200)
    fab = Fabric(
        workers=1, runner_factory=_slow_factory, queue_depth=1, backpressure="drop"
    )
    with fab:
        with IngestServer(fab, udp_port=0) as server:
            report = send_stream(waves, udp=server.udp_address, stream_id=2)
            server.drain(timeout=60)
        view = fab.report()["ingest"]["streams"]["2"]
        assert view["released"] == 12
        assert view["shed_dropped"] > 0
        assert view["submitted"] + view["shed_dropped"] == 12
        assert server.accounting_problems({2: report.n_packets}) == []


def test_batched_submission_shed_keeps_ledger_exactly_once():
    """Regression for the batch-aware submission path: a burst pushed
    through one ``offer_many`` call against a shedding batch-drain
    fabric must account every packet exactly once — no packet may be
    both submitted and shed, none may vanish — and the shed total must
    land in the rolling window under ``ingest_shed``."""
    waves = _waveforms(24, seed=13, n_samples=200)
    fab = Fabric(
        workers=1,
        runner_factory=_slow_batch_factory,
        queue_depth=2,
        batch=4,
        backpressure="drop",
    )
    with fab:
        with IngestServer(fab, udp_port=0, window=64) as server:
            report = send_stream(waves, udp=server.udp_address, stream_id=6)
            server.drain(timeout=60)
        fabric_report = fab.report()
        view = fabric_report["ingest"]["streams"]["6"]
        assert view["released"] == 24
        assert view["shed_dropped"] > 0
        assert view["submitted"] + view["shed_dropped"] == 24
        assert server.accounting_problems({6: report.n_packets}) == []
        assert (
            fabric_report["window"]["counts"].get("ingest_shed", 0)
            == view["shed_dropped"]
        )
        # Every accepted packet really completed through the batched
        # dispatch path.
        assert fabric_report["counters"]["completed"] == view["submitted"]


def test_report_schema_metrics_lint_and_health():
    waves = _waveforms(8, seed=2, n_samples=200)
    fab = Fabric(workers=1, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        server = IngestServer(fab, udp_port=0, tcp_port=0).start()
        # Malformed traffic must surface in the counters, not kill the
        # listener.
        junk = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        junk.sendto(b"definitely not the protocol", server.udp_address)
        junk.close()
        send_stream(waves, udp=server.udp_address, stream_id=9)
        server.drain(timeout=60)

        report = fab.report()
        assert report["schema"] == FABRIC_REPORT_SCHEMA == "repro.fabric_report/v3"
        with open(_SCHEMA_PATH) as fh:
            schema = json.load(fh)
        errors = schema_errors(report, schema)
        assert errors == [], errors
        assert report["ingest"]["malformed"]["bad_magic"] == 1
        assert report["window"]["counts"]["ingest_datagrams"] > 0
        assert report["window"]["counts"]["ingest_packets"] == 8

        text = fab.metrics_text()
        problems = lint_exposition(text)
        assert problems == [], problems
        assert 'repro_ingest_received{stream="9"}' in text
        assert 'repro_ingest_malformed{kind="bad_magic"} 1' in text
        assert "repro_ingest_listener_alive 1" in text

        health = fab.health()
        assert health["checks"]["ingest:listener"][0]["status"] == "pass"
        assert health["status"] == "pass"
        server.stop()
        health = fab.health()
        assert health["checks"]["ingest:listener"][0]["status"] == "warn"
        assert "repro_ingest_listener_alive 0" in fab.metrics_text()


def test_overflow_sheds_newest_with_accounting():
    """With no poll() running and a tiny staging buffer, the listener
    must shed the overflow — never block the socket thread or grow
    without bound."""
    waves = _waveforms(10, seed=4, n_samples=200)
    fab = Fabric(workers=1, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        with IngestServer(fab, udp_port=0, stream_buffer=4) as server:
            send_stream(waves, udp=server.udp_address, stream_id=3)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                view = fab.report()["ingest"]["streams"].get("3")
                if view and view["released"] == 10:
                    break
                time.sleep(0.05)
            server.drain(timeout=60)
        view = fab.report()["ingest"]["streams"]["3"]
        assert view["shed_overflow"] == 6, view
        assert view["submitted"] == 4
        assert server.accounting_problems({3: 10}) == []


def test_submissions_retention_is_bounded():
    """A long-running server must not leak one task-id mapping per
    packet ever served: only the newest track_submissions survive."""
    waves = _waveforms(10, seed=6, n_samples=200)
    fab = Fabric(workers=1, runner_factory=_checksum_factory, queue_depth=8)
    with fab:
        with IngestServer(fab, udp_port=0, track_submissions=4) as server:
            send_stream(waves, udp=server.udp_address, stream_id=7)
            server.drain(timeout=60)
        tasks = server.submissions()
        assert set(tasks) == {(7, seq) for seq in range(6, 10)}, tasks
        view = fab.report()["ingest"]["streams"]["7"]
        assert view["submitted"] == 10, "accounting is unaffected by the bound"
        assert server.accounting_problems({7: 10}) == []


# ----------------------------------------------------------------------
# The listener's wake: a staged packet ends the owner's wait.
# ----------------------------------------------------------------------


def _quiet_fabric(factory):
    """A started 1-worker fabric whose start-up messages are read, with
    heartbeats too rare to end a pump's wait during a test."""
    fab = Fabric(workers=1, runner_factory=factory, queue_depth=8, heartbeat_s=60.0)
    fab.start()
    while fab.poll(0.2):
        pass
    return fab


def _stage_one(server, stream_id, seq):
    """Send one packet and wait until the listener has staged it."""
    rx = _waveforms(1, seed=seq, n_samples=200)[0]
    send_datagrams(encode_packet(stream_id, seq, rx), udp=server.udp_address)
    deadline = time.monotonic() + 10
    while server.ingest_report()["staged"] == 0:
        assert time.monotonic() < deadline, "packet never staged"
        time.sleep(0.01)


def test_poll_offers_a_packet_staged_during_its_wait():
    """A datagram completing a packet while the owner waits in
    ``IngestServer.poll(timeout=2.0)`` ends the wait: the poll returns
    within 0.5 s of the send, with that packet already accepted."""
    fab = _quiet_fabric(_checksum_factory)
    try:
        with IngestServer(fab, udp_port=0) as server:
            rx = _waveforms(1, seed=8, n_samples=200)[0]
            sent = []

            def send_later():
                time.sleep(0.3)
                sent.append(time.monotonic())
                send_datagrams(encode_packet(5, 0, rx), udp=server.udp_address)

            sender = threading.Thread(target=send_later)
            sender.start()
            accepted = server.poll(timeout=2.0)
            returned = time.monotonic()
            sender.join()
            assert accepted == 1
            assert set(server.submissions()) == {(5, 0)}
            assert returned - sent[0] < 0.5, returned - sent[0]
            server.drain(timeout=30)
    finally:
        fab.shutdown()


def test_a_pending_wake_does_not_spin_the_pump():
    """A wake nobody polls for ends one pump wait, then is gone: an idle
    ``Fabric.poll(0.3)`` after it sleeps, and ``Fabric.drain`` waits for
    a slow packet in a handful of pump rounds, not thousands."""
    fab = _quiet_fabric(_slow_factory)
    rounds = []
    pump = fab._pump

    def counting(timeout):
        rounds.append(timeout)
        return pump(timeout)

    fab._pump = counting
    try:
        with IngestServer(fab, udp_port=0) as server:
            _stage_one(server, 6, 0)
            cpu = time.process_time()
            fab.poll(0.3)  # the wake ends this wait...
            start = time.monotonic()
            fab.poll(0.3)  # ...and not this one
            assert time.monotonic() - start >= 0.25
            assert len(rounds) == 2
            assert server.poll(0.0) == 1  # a slow packet in flight
            _stage_one(server, 6, 1)  # and a wake pending
            del rounds[:]
            fab.drain(timeout=10)
            assert fab.outstanding == 0
            assert len(rounds) <= 5, len(rounds)
            assert time.process_time() - cpu < 0.2
            server.drain(timeout=30)
    finally:
        fab.shutdown()


def test_lifecycle_validation():
    fab = Fabric(workers=1, runner_factory=_checksum_factory)
    with pytest.raises(ValueError, match="transport"):
        IngestServer(fab, udp_port=None, tcp_port=None)
    with pytest.raises(ValueError, match="stream_buffer"):
        IngestServer(fab, stream_buffer=0)
    with pytest.raises(ValueError, match="track_submissions"):
        IngestServer(fab, track_submissions=0)


# ----------------------------------------------------------------------
# Real modem end-to-end (one warm template, a few packets).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def template():
    from repro.runtime import ModemRuntime, generate_packets

    cases = generate_packets(1, base_seed=42, cfo_hz=50e3)
    runtime = ModemRuntime()
    runtime.run_packet(cases[0].rx)
    return runtime


def test_real_modem_over_udp_matches_serial(template):
    from repro.runtime import generate_packets

    cases = generate_packets(3, base_seed=42, cfo_hz=50e3)
    serial = [template.run_packet(case.rx) for case in cases]
    fab = Fabric(workers=2, template_runtime=template, queue_depth=4)
    with fab:
        with IngestServer(fab, udp_port=0) as server:
            # c128 transport: the delivered waveform is bit-exact, so
            # the decode must match the serial run exactly.
            send_stream(
                [case.rx for case in cases],
                udp=server.udp_address,
                stream_id=1,
                dtype="c128",
                reorder=0.3,
                seed=1,
            )
            results = server.drain(timeout=300)
        tasks = server.submissions()
        assert len(tasks) == 3
        for seq, serial_out in enumerate(serial):
            out = results[tasks[(1, seq)]]
            assert list(out.bits) == list(serial_out.bits)
            assert out.detect_pos == serial_out.detect_pos
            assert out.coarse_cfo_hz == serial_out.coarse_cfo_hz
            assert out.fine_cfo_hz == serial_out.fine_cfo_hz
            assert out.stats == serial_out.stats
        assert server.accounting_problems({1: 3}) == []
