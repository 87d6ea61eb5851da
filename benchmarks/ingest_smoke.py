#!/usr/bin/env python
"""Networked-ingest smoke: chaos UDP stream, bit-identity, accounting.

Generates a mixed-scenario stream of real waveforms, sends it over
loopback UDP with injected datagram reordering and drops, reassembles it
through an :class:`~repro.ingest.IngestServer` into a 2-worker fabric,
and checks:

* every packet the sender delivered intact comes out **bit-identical**
  to an in-process :func:`~repro.fabric.run_stream` baseline over the
  same (codec-roundtripped) waveforms;
* exactly-once accounting balances — every sent packet lands in exactly
  one of released / gaps / incomplete / corrupt, every released packet
  in submitted or shed, nothing left buffered;
* a few packets whose header claims 3 data symbols, sent on a second
  stream, are all written off as ``corrupt`` (the receiver decodes one
  symbol pair) and never reach the runner, and that stream's ledger
  balances too;
* the live ``/metrics`` scrape passes
  :func:`~repro.obs.lint_exposition` and carries the ``repro_ingest_*``
  families;
* churn: single-packet streams on more stream ids than the reassembler
  keeps (its default ``max_streams``, 256) all balance — the evicted
  streams through the ``evicted`` aggregate, whose released packets
  must all be submitted or shed;
* handoff: a packet completed while the owner waits in
  ``IngestServer.poll(timeout=2.0)`` ends that wait (the listener's
  wake socket), so the poll returns within 0.5 s of the send with the
  packet accepted.

A cheap digest runner stands in for the modem (transport bit-identity
is about the bytes, not the decode — ``tests/ingest`` pins the real
modem path).  Exit status 0 on success — this is the CI
``ingest-smoke`` gate.

Run:  PYTHONPATH=src python benchmarks/ingest_smoke.py [--packets 200]
"""

import argparse
import os
import sys
import threading
import time
import urllib.request
from dataclasses import replace

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.fabric import Fabric, mixed_scenario_stream, run_stream
from repro.ingest import (
    SHED_COUNTERS,
    IngestServer,
    encode_packet,
    iq_roundtrip,
    send_datagrams,
    send_stream,
)
from repro.obs import lint_exposition
from repro.runtime import BatchPacketResult

#: Metric families the scrape must carry (prefixed repro_ingest_).
_REQUIRED_FAMILIES = (
    "repro_ingest_listener_alive",
    "repro_ingest_datagrams",
    "repro_ingest_received",
    "repro_ingest_reassembled",
    "repro_ingest_released",
    "repro_ingest_submitted",
)

_STREAM_ID = 7
#: Stream carrying packets that claim 3 data symbols.
_BAD_STREAM_ID = 8
_BAD_PACKETS = 4
#: Single-packet streams of the churn leg: more ids than the
#: reassembler's default ``max_streams`` (256), so some are evicted.
_CHURN_STREAMS = 300
#: The handoff leg: the owner's poll timeout, the send's delay into it
#: and the most the poll may return after the send.
_HANDOFF_POLL_S = 2.0
_HANDOFF_DELAY_S = 0.3
_HANDOFF_MAX_S = 0.5


class _DigestRunner:
    """Deterministic digest of the delivered rx bytes (picklable)."""

    def run_batch_results(self, rxs):
        return [BatchPacketResult(output={"digest": rx.tobytes(), "n": int(rx.shape[1])})
                for rx in rxs]


def _digest_factory():
    return _DigestRunner()


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


def _churn_leg(failures) -> dict:
    """Serve one small packet on each of ``_CHURN_STREAMS`` stream ids
    over loopback UDP; returns the ``evicted`` aggregate."""
    rx = np.full((2, 80), 0.25 + 0.25j)
    datagrams = [
        datagram
        for stream_id in range(_CHURN_STREAMS)
        for datagram in encode_packet(stream_id, 0, rx, dtype="c64")
    ]
    fab = Fabric(workers=1, runner_factory=_digest_factory, queue_depth=16,
                 name="ingest-churn")
    with fab:
        with IngestServer(fab, udp_port=0) as server:
            send_datagrams(datagrams, udp=server.udp_address)
            server.drain(timeout=600)
        problems = server.accounting_problems(
            {stream_id: 1 for stream_id in range(_CHURN_STREAMS)}
        )
        evicted = server.ingest_report()["evicted"]
    if problems:
        failures.append("churn accounting: %s" % problems[:5])
    shed = sum(evicted[name] for name in SHED_COUNTERS)
    if not evicted["streams"] or evicted["released"] != evicted["submitted"] + shed:
        failures.append(
            "churn: %d streams evicted, released %d != submitted %d + shed %d"
            % (evicted["streams"], evicted["released"], evicted["submitted"], shed)
        )
    return evicted


def _handoff_leg(failures) -> float:
    """Send one packet while the owner waits in ``IngestServer.poll``;
    returns how long after the send the poll returned."""
    rx = np.full((2, 80), 0.25 - 0.25j)
    # Heartbeats too rare to end the wait: only the wake may.
    fab = Fabric(workers=1, runner_factory=_digest_factory, heartbeat_s=60.0,
                 name="ingest-handoff")
    with fab:
        while fab.poll(0.2):  # read the start-up messages
            pass
        with IngestServer(fab, udp_port=0) as server:
            sent = []

            def send_later():
                time.sleep(_HANDOFF_DELAY_S)
                sent.append(time.monotonic())
                send_datagrams(encode_packet(_STREAM_ID, 0, rx, dtype="c64"),
                               udp=server.udp_address)

            sender = threading.Thread(target=send_later)
            sender.start()
            accepted = server.poll(timeout=_HANDOFF_POLL_S)
            handoff = time.monotonic() - sent[0] if sent else float("inf")
            sender.join()
            server.drain(timeout=60)
    if accepted != 1 or handoff > _HANDOFF_MAX_S:
        failures.append(
            "handoff: poll accepted %d packets %.3f s after the send (at most %.1f s)"
            % (accepted, handoff, _HANDOFF_MAX_S)
        )
    return handoff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=200, help="stream length")
    parser.add_argument(
        "--reorder", type=float, default=0.05, help="datagram reorder probability"
    )
    parser.add_argument(
        "--drop", type=float, default=0.02, help="datagram drop probability"
    )
    parser.add_argument("--seed", type=int, default=13, help="chaos seed")
    args = parser.parse_args(argv)

    events = list(
        mixed_scenario_stream(rate_hz=1e6, n_packets=args.packets, base_seed=21)
    )
    waves = [ev.case.rx for ev in events]
    print("generated %d mixed-scenario packets" % len(waves))

    # In-process baseline: the same stream, codec-roundtripped exactly as
    # the wire delivers it, through run_stream into an identical fabric.
    roundtripped = [
        replace(ev.case, rx=iq_roundtrip(ev.case.rx, "c64")) for ev in events
    ]
    baseline_events = [
        replace(ev, case=case) for ev, case in zip(events, roundtripped)
    ]
    baseline_fab = Fabric(workers=2, runner_factory=_digest_factory, queue_depth=16)
    with baseline_fab:
        offered = run_stream(baseline_fab, baseline_events)
        baseline_results = baseline_fab.drain(timeout=600)
    baseline_digest = {
        ev.seq: baseline_results[task_id]["digest"] for task_id, ev in offered
    }

    failures = []
    fab = Fabric(
        workers=2,
        runner_factory=_digest_factory,
        queue_depth=16,
        name="ingest-smoke",
        obs_port=0,
    )
    with fab:
        with IngestServer(fab, udp_port=0, window=64) as server:
            report = send_stream(
                waves,
                udp=server.udp_address,
                stream_id=_STREAM_ID,
                dtype="c64",
                reorder=args.reorder,
                drop=args.drop,
                seed=args.seed,
            )
            bad = send_stream(
                waves[:_BAD_PACKETS],
                udp=server.udp_address,
                stream_id=_BAD_STREAM_ID,
                n_symbols=3,
                dtype="c64",
            )
            results = server.drain(timeout=600)

            url = fab.obs_url
            print("telemetry at %s" % url)
            status, page = _get(url + "/metrics")
            if status != 200:
                failures.append("/metrics returned HTTP %d" % status)
            problems = lint_exposition(page)
            if problems:
                failures.append("exposition lint: %s" % problems)
            for family in _REQUIRED_FAMILIES:
                if family not in page:
                    failures.append("/metrics missing family %s" % family)
            sample = 'repro_ingest_released{stream="%d"}' % _STREAM_ID
            if sample not in page:
                failures.append("/metrics missing per-stream sample %s" % sample)

        # Bit-identity: exactly the intact packets arrive, and each one
        # matches the in-process baseline digest byte for byte.
        delivered = {
            seq: results[task_id]["digest"]
            for (stream_id, seq), task_id in server.submissions().items()
            if stream_id == _STREAM_ID
        }
        intact = set(report.intact_seqs)
        if set(delivered) != intact:
            failures.append(
                "delivered %d packets, sender delivered %d intact (missing %r, extra %r)"
                % (
                    len(delivered),
                    len(intact),
                    sorted(intact - set(delivered))[:5],
                    sorted(set(delivered) - intact)[:5],
                )
            )
        mismatched = [
            seq for seq in sorted(set(delivered) & intact)
            if delivered[seq] != baseline_digest[seq]
        ]
        if mismatched:
            failures.append(
                "%d packets differ from the run_stream baseline (first: %r)"
                % (len(mismatched), mismatched[:5])
            )

        problems = server.accounting_problems(
            {_STREAM_ID: report.n_packets, _BAD_STREAM_ID: bad.n_packets}
        )
        if problems:
            failures.append("accounting: %s" % problems)
        streams = fab.report()["ingest"]["streams"]
        view = streams[str(_STREAM_ID)]
        bad_view = streams[str(_BAD_STREAM_ID)]
        if bad_view["corrupt"] != bad.n_packets or bad_view["submitted"]:
            failures.append(
                "3-symbol stream: %d of %d packets corrupt, %d submitted"
                % (bad_view["corrupt"], bad.n_packets, bad_view["submitted"])
            )

    evicted = _churn_leg(failures)
    handoff = _handoff_leg(failures)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "ingest smoke ok: %d/%d packets delivered bit-identical "
        "(%d datagrams dropped, %d reordered; gaps=%d incomplete=%d), "
        "%d/%d 3-symbol packets corrupt, scrape clean; churn: %d of %d "
        "streams evicted, their %d packets submitted; handoff %.1f ms"
        % (
            len(delivered),
            report.n_packets,
            report.dropped,
            report.reordered,
            view["gaps"],
            view["incomplete"],
            bad_view["corrupt"],
            bad.n_packets,
            evicted["streams"],
            _CHURN_STREAMS,
            evicted["submitted"],
            handoff * 1e3,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
