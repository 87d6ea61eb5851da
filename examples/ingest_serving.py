#!/usr/bin/env python
"""Serve packetized IQ over loopback UDP into a live modem fabric.

The networked twin of ``fabric_serving.py``: instead of in-process
submission, waveforms travel the :mod:`repro.ingest` wire format —
fragmented into MTU-sized datagrams, sent over a real UDP socket, then
reassembled, reordered and accounted by an
:class:`~repro.ingest.IngestServer` feeding a 2-worker
:class:`~repro.fabric.Fabric` of forked modem runtimes.

Two streams share the listener:

* stream 1 carries ``c128`` payloads over a clean loopback — every
  delivered waveform is bit-exact, so every decode must match its
  ground-truth payload;
* stream 2 carries ``c64`` payloads through injected chaos (datagram
  reordering, drops, duplicates) — what survives intact must still
  decode, and what the chaos killed must land in the loss counters.

At the end the per-stream accounting ledger is printed and checked:
every sent packet in exactly one of released / gaps / incomplete,
every released packet in submitted or shed, nothing left buffered.

With ``--obs-port`` the fabric serves its telemetry plane for the whole
run — ``curl <url>/metrics`` while it streams to watch the
``repro_ingest_*`` families move.

Run:  PYTHONPATH=src python examples/ingest_serving.py \\
          [--packets 10] [--reorder 0.25] [--drop 0.04] [--obs-port 9100]
"""

import argparse
import json
import time

import numpy as np

from repro.fabric import Fabric
from repro.ingest import IngestServer, send_stream
from repro.runtime import ModemRuntime, generate_packets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=10, help="packets per stream")
    parser.add_argument(
        "--reorder", type=float, default=0.25, help="stream-2 datagram reorder rate"
    )
    parser.add_argument(
        "--drop", type=float, default=0.04, help="stream-2 datagram drop rate"
    )
    parser.add_argument("--seed", type=int, default=7, help="chaos seed")
    parser.add_argument(
        "--obs-port",
        type=int,
        default=None,
        help="serve live /metrics and /healthz on this port "
        "(0 picks a free one; omit to disable)",
    )
    args = parser.parse_args(argv)

    cases = generate_packets(args.packets, base_seed=42, cfo_hz=50e3)
    print("warming the parent template (workers fork it fully linked) ...")
    t0 = time.perf_counter()
    template = ModemRuntime()
    template.run_packet(cases[0].rx)
    fab = Fabric(
        workers=2,
        queue_depth=8,
        template_runtime=template,
        name="ingest-serving",
        obs_port=args.obs_port,
    )
    fab.start()
    print("fabric of 2 workers up in %.2fs" % (time.perf_counter() - t0))

    with fab:
        with IngestServer(fab, udp_port=0, window=32) as server:
            host, port = server.udp_address
            print("ingest listening on udp://%s:%d" % (host, port))
            if fab.obs_url is not None:
                print(
                    "live telemetry at %s  (try: curl %s/metrics)"
                    % (fab.obs_url, fab.obs_url)
                )

            waves = [case.rx for case in cases]
            clean = send_stream(
                waves, udp=server.udp_address, stream_id=1, dtype="c128"
            )
            chaos = send_stream(
                waves,
                udp=server.udp_address,
                stream_id=2,
                dtype="c64",
                reorder=args.reorder,
                drop=args.drop,
                duplicate=0.05,
                seed=args.seed,
            )
            print(
                "sent %d datagrams (stream 2 chaos: %d dropped, %d reordered, "
                "%d duplicated)"
                % (
                    clean.datagrams + chaos.datagrams,
                    chaos.dropped,
                    chaos.reordered,
                    chaos.duplicated,
                )
            )
            results = server.drain(timeout=300)

        # Decode correctness: c128 transport is bit-exact so stream 1
        # must decode every payload; stream 2's survivors must too (the
        # q15/c64 round trip is far above the modem's noise floor).
        tasks = server.submissions()
        decoded = {1: 0, 2: 0}
        for (stream_id, seq), task_id in sorted(tasks.items()):
            ber = float(np.mean(results[task_id].bits != cases[seq].bits))
            assert ber == 0.0, "stream %d seq %d BER %.3f" % (stream_id, seq, ber)
            decoded[stream_id] += 1
        assert decoded[1] == args.packets, "clean stream lost packets on loopback"
        assert decoded[2] == len(chaos.intact_seqs), (
            "chaos stream: decoded %d, sender delivered %d intact"
            % (decoded[2], len(chaos.intact_seqs))
        )

        sent = {1: clean.n_packets, 2: chaos.n_packets}
        problems = server.accounting_problems(sent)
        assert problems == [], problems

        print("\n--- per-stream accounting (exactly-once ledger balances) ---")
        ingest = fab.report()["ingest"]
        for stream_id, view in sorted(ingest["streams"].items()):
            lost = view["gaps"] + view["incomplete"] + view["corrupt"]
            print(
                "stream %s: sent=%d released=%d submitted=%d lost=%d "
                "(gaps=%d incomplete=%d) out_of_order=%d duplicates=%d"
                % (
                    stream_id,
                    sent[int(stream_id)],
                    view["released"],
                    view["submitted"],
                    lost,
                    view["gaps"],
                    view["incomplete"],
                    view["out_of_order"],
                    view["duplicates"],
                )
            )
        print("\n--- ingest report (JSON) ---")
        print(json.dumps(ingest, indent=1, sort_keys=True))
    print(
        "\ndecoded %d/%d clean + %d/%d chaos packets, all bit-exact; "
        "every loss accounted"
        % (decoded[1], args.packets, decoded[2], args.packets)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
