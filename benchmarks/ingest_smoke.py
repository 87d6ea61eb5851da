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
* the live ``/metrics`` scrape passes
  :func:`~repro.obs.lint_exposition` and carries the ``repro_ingest_*``
  families.

A cheap digest runner stands in for the modem (transport bit-identity
is about the bytes, not the decode — ``tests/ingest`` pins the real
modem path).  Exit status 0 on success — this is the CI
``ingest-smoke`` gate.

Run:  PYTHONPATH=src python benchmarks/ingest_smoke.py [--packets 200]
"""

import argparse
import os
import sys
import urllib.request
from dataclasses import replace

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

from repro.fabric import Fabric, mixed_scenario_stream, run_stream
from repro.ingest import IngestServer, iq_roundtrip, send_stream
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


class _DigestRunner:
    """Deterministic digest of the delivered rx bytes (picklable)."""

    def run_batch_results(self, rxs, n_symbols=2, detect_hint=None):
        return [BatchPacketResult(output={"digest": rx.tobytes(), "n": int(rx.shape[1])})
                for rx in rxs]


def _digest_factory():
    return _DigestRunner()


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode("utf-8")


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
            for (_, seq), task_id in server.submissions().items()
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

        problems = server.accounting_problems({_STREAM_ID: report.n_packets})
        if problems:
            failures.append("accounting: %s" % problems)
        view = fab.report()["ingest"]["streams"][str(_STREAM_ID)]

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print(
        "ingest smoke ok: %d/%d packets delivered bit-identical "
        "(%d datagrams dropped, %d reordered; gaps=%d incomplete=%d), "
        "scrape clean"
        % (
            len(delivered),
            report.n_packets,
            report.dropped,
            report.reordered,
            view["gaps"],
            view["incomplete"],
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
