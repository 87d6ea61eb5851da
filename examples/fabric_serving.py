#!/usr/bin/env python
"""Serve a live Poisson packet stream through a multi-core fabric.

A 4-worker :class:`~repro.fabric.Fabric` (each worker a resident modem
runtime forked from one warm parent template) serves a 10-second
Poisson arrival process of mixed traffic — three carrier offsets, two
SNRs and two frame lengths, routed with the ``least_loaded`` policy
(every length runs the same linked programs, so any worker serves
either length without a re-link).  Submission is paced to the arrival
times, like a front-end handing over frames in real time; ``deadline``
backpressure sheds what a saturated fabric cannot serve in time.

Every completed packet is checked against its ground-truth payload,
then the fabric report is printed as JSON next to its Prometheus
rendering.

With ``--obs-port`` the fabric also serves its live telemetry plane
(``/metrics``, ``/healthz``, ``/report.json``, ``/events.json``) for
the whole run — point a browser or ``curl`` at the printed URL while
the stream is in flight — and the script self-scrapes ``/metrics``
once at the end to prove the exposition page lints clean.

Run:  PYTHONPATH=src python examples/fabric_serving.py \\
          [--duration 10] [--rate 3] [--workers 4] [--obs-port 9100]
"""

import argparse
import json
import time
import urllib.request

import numpy as np

from repro.fabric import (
    DeadlineExceeded,
    Fabric,
    FabricTaskError,
    fabric_prometheus_text,
    poisson_stream,
    run_stream,
    stream_truth,
)
from repro.runtime import ModemRuntime, make_packet


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=10.0, help="stream seconds")
    parser.add_argument("--rate", type=float, default=3.0, help="mean arrivals/s")
    parser.add_argument("--workers", type=int, default=4, help="fabric size")
    parser.add_argument("--seed", type=int, default=7, help="stream seed")
    parser.add_argument(
        "--obs-port",
        type=int,
        default=None,
        help="serve live /metrics, /healthz, /report.json on this port "
        "(0 picks a free one; omit to disable)",
    )
    args = parser.parse_args(argv)

    print("warming the parent template (workers fork it fully linked) ...")
    t0 = time.perf_counter()
    template = ModemRuntime()
    template.run_packet(make_packet(0, cfo_hz=50e3).rx)
    fab = Fabric(
        workers=args.workers,
        policy="least_loaded",
        backpressure="deadline",
        deadline_s=5.0,
        queue_depth=8,
        template_runtime=template,
        name="serving",
        obs_port=args.obs_port,
    )
    fab.start()
    print("fabric of %d worker(s) up in %.2fs" % (args.workers, time.perf_counter() - t0))
    if fab.obs_url is not None:
        print(
            "live telemetry at %s  (try: curl %s/metrics)"
            % (fab.obs_url, fab.obs_url)
        )

    events = poisson_stream(
        rate_hz=args.rate,
        duration_s=args.duration,
        base_seed=args.seed,
        cfo_choices=(20e3, 50e3, 80e3),
        snr_choices=(None, 30.0),
        pad_choices=(0, 64),
    )
    print(
        "serving a %.0fs Poisson stream at %.1f packets/s ..."
        % (args.duration, args.rate)
    )
    offered = run_stream(fab, events, realtime=True)
    results = fab.drain(timeout=300)
    report = fab.report()
    if fab.obs_url is not None:
        # Self-scrape while the server is still up: the page must lint
        # clean and /healthz must agree the fabric is serving.
        from repro.obs import lint_exposition

        page = urllib.request.urlopen(fab.obs_url + "/metrics", timeout=5).read()
        problems = lint_exposition(page.decode("utf-8"))
        assert not problems, "exposition lint failed: %s" % problems
        with urllib.request.urlopen(fab.obs_url + "/healthz", timeout=5) as resp:
            health = json.loads(resp.read())
        print(
            "self-scrape: /metrics %d bytes (lint clean), /healthz %s"
            % (len(page), health["status"])
        )
    fab.shutdown()

    truth = stream_truth(offered)
    clean = noisy = errored = late = 0
    noisy_bers = []
    for task_id, case in truth.items():
        out = results[task_id]
        if isinstance(out, DeadlineExceeded):
            late += 1  # accepted, then shed while queued
            continue
        if isinstance(out, FabricTaskError):
            errored += 1
            continue
        ber = float(np.mean(out.bits != case.bits))
        if case.snr_db is None:
            # Noiseless packets must decode exactly; at finite SNR a
            # small residual BER is physics, not a fabric bug.
            assert ber == 0.0, "clean packet %d decoded wrong" % task_id
            clean += 1
        else:
            assert ber < 0.05, "packet %d BER %.3f at %g dB" % (task_id, ber, case.snr_db)
            noisy += 1
            noisy_bers.append(ber)
    shed = sum(1 for task_id, _ in offered if task_id is None)
    print(
        "offered %d packets: %d noiseless decoded exactly, %d noisy "
        "(mean ber %.4f), %d errored, %d shed at submit, %d shed late"
        % (
            len(offered),
            clean,
            noisy,
            float(np.mean(noisy_bers)) if noisy_bers else 0.0,
            errored,
            shed,
            late,
        )
    )

    print("\n--- fabric report (JSON) ---")
    print(json.dumps(report, indent=1, sort_keys=True))
    print("\n--- fabric report (Prometheus) ---")
    print(fabric_prometheus_text(report), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
