"""Fabric over the real simulated modem: the ISSUE acceptance criteria.

Workers fork a pre-warmed parent template runtime, so each spins up
with zero ``ModuloScheduler.schedule`` calls; a SIGKILLed worker's
packets are requeued and the whole stream stays bit-identical to a
serial :class:`~repro.runtime.ModemRuntime` run.  That runtime is the
one packet driver everywhere: every region runs on its one resident
lane set (in lockstep on the untraced compiled tier, one lane at a
time on the reference tier used here), and a lane that faults in
lockstep is replayed alone on its own core.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.fabric import Fabric
from repro.runtime import ModemRuntime, generate_packets, make_packet


@pytest.fixture(scope="module")
def template():
    """One warm parent-side runtime shared by every fabric in the module.

    The reference tier keeps each packet in flight long enough for the
    crash tests to kill a worker mid-stream."""
    cases = generate_packets(1, base_seed=42, cfo_hz=50e3)
    runtime = ModemRuntime(interpreter="reference")
    runtime.run_packet(cases[0].rx)
    return runtime


@pytest.fixture(scope="module")
def cases():
    return generate_packets(5, base_seed=42, cfo_hz=50e3)


@pytest.fixture(scope="module")
def serial_outputs(template, cases):
    return [template.run_packet(case.rx) for case in cases]


def _assert_identical(fabric_out, serial_out):
    assert list(fabric_out.bits) == list(serial_out.bits)
    assert fabric_out.detect_pos == serial_out.detect_pos
    assert fabric_out.ltf1_start == serial_out.ltf1_start
    assert fabric_out.coarse_cfo_hz == serial_out.coarse_cfo_hz
    assert fabric_out.fine_cfo_hz == serial_out.fine_cfo_hz
    assert fabric_out.stats == serial_out.stats
    assert fabric_out.image == serial_out.image


def test_fabric_results_bit_identical_to_serial(template, cases, serial_outputs):
    fab = Fabric(workers=2, template_runtime=template, queue_depth=4)
    with fab:
        ids = [fab.offer(case.rx).task_id for case in cases]
        results = fab.drain(timeout=300)
    assert sorted(results) == sorted(ids)
    for task_id, serial_out in zip(ids, serial_outputs):
        _assert_identical(results[task_id], serial_out)
    report = fab.report()
    # Forked workers inherit the linked template: spin-up scheduled nothing.
    for worker in report["per_worker"]:
        assert worker["spinup_schedule_misses"] == 0
        assert worker["spinup_codegen_compilations"] == 0
    assert report["counters"]["completed"] == len(cases)
    assert report["counters"]["worker_crashes"] == 0


def test_sigkill_mid_stream_requeues_and_respawns(template, cases, serial_outputs):
    """ISSUE acceptance: SIGKILL one worker mid-stream -> its packets are
    requeued and completed, the respawn counter increments, and no packet
    is lost or duplicated."""
    fab = Fabric(workers=2, template_runtime=template, queue_depth=4)
    with fab:
        ids = [fab.offer(case.rx).task_id for case in cases]
        time.sleep(0.5)  # let both workers get busy mid-stream
        os.kill(fab.worker_pids()[0], signal.SIGKILL)
        results = fab.drain(timeout=300)
        report = fab.report()  # before shutdown marks every slot stopped
    assert sorted(results) == sorted(ids), "no packet lost"
    for task_id, serial_out in zip(ids, serial_outputs):
        _assert_identical(results[task_id], serial_out)
    counters = report["counters"]
    assert counters["worker_crashes"] == 1
    assert counters["respawns"] == 1
    assert counters["requeued"] >= 1
    assert counters["duplicates"] == 0
    assert counters["completed"] == len(cases)
    crashed = [w for w in report["per_worker"] if w["crashes"] == 1]
    assert len(crashed) == 1 and crashed[0]["alive"], "slot was respawned"


def test_sigstop_watchdog_escalation_stays_bit_identical(
    template, cases, serial_outputs
):
    """A SIGSTOPped (stuck, not dead) worker goes heartbeat-silent, the
    watchdog SIGKILLs it, and the existing salvage/requeue/respawn path
    completes the stream bit-identical to serial — observability's
    escalation hook changes *when* recovery starts, never *what* the
    fabric computes."""
    fab = Fabric(
        workers=2,
        template_runtime=template,
        queue_depth=4,
        heartbeat_s=0.1,
        watchdog_escalate=True,
    )
    with fab:
        ids = [fab.offer(case.rx).task_id for case in cases]
        time.sleep(0.3)  # both workers busy mid-stream
        os.kill(fab.worker_pids()[0], signal.SIGSTOP)
        results = fab.drain(timeout=300)
        report = fab.report()  # before shutdown marks every slot stopped
    assert sorted(results) == sorted(ids), "no packet lost across escalation"
    for task_id, serial_out in zip(ids, serial_outputs):
        _assert_identical(results[task_id], serial_out)
    counters = report["counters"]
    assert counters["watchdog_flags"] >= 1
    assert counters["watchdog_kills"] >= 1
    assert counters["worker_crashes"] >= 1
    assert counters["respawns"] >= 1
    assert counters["duplicates"] == 0
    assert counters["completed"] == len(cases)
    assert report["watchdog"]["escalate"] is True


def test_mixed_shapes_with_affinity_decode_correctly(template):
    """Two frame lengths under the default policy: payloads decode clean
    on whichever worker each packet lands (neither shape costs a
    re-link: both run the same programs)."""
    mixed = [
        make_packet(60 + k, cfo_hz=50e3, extra_pad=(64 if k % 2 else 0))
        for k in range(4)
    ]
    fab = Fabric(workers=2, template_runtime=template, queue_depth=4)
    with fab:
        ids = [fab.offer(case.rx).task_id for case in mixed]
        results = fab.drain(timeout=300)
    for task_id, case in zip(ids, mixed):
        assert float(np.mean(results[task_id].bits != case.bits)) == 0.0


def test_batch_drain_fabric_serves_on_its_template_tier(cases):
    """A ``batch > 1`` fabric serves packets on its template's tier: a
    reference-tier template gives the reference tier's results."""
    template = ModemRuntime(interpreter="reference", batch=4)
    fab = Fabric(workers=1, batch=4, template_runtime=template)
    with fab:
        assert fab.template_runtime.interpreter == "reference"
        task_id = fab.offer(cases[0].rx).task_id
        results = fab.drain(timeout=300)
    solo = ModemRuntime(interpreter="reference").run_packet(cases[0].rx)
    _assert_identical(results[task_id], solo)
