"""Input validation and tracer-robustness tests for the receive pipeline."""

import numpy as np
import pytest

from repro.modem.receiver import (
    _ACORR_SPAN,
    _DETECT_START,
    _SYNC_SAMPLES,
    MIN_PACKET_SAMPLES,
)
from repro.runtime import ModemRuntime
from repro.sim.icache import InstructionCache
from repro.trace.tracer import Tracer


@pytest.fixture(scope="module")
def receiver():
    return ModemRuntime()


class TestPacketValidation:
    def test_short_packet_raises_with_minimum(self, receiver):
        rx = np.zeros((2, MIN_PACKET_SAMPLES - 1), dtype=np.complex128)
        with pytest.raises(ValueError, match=str(MIN_PACKET_SAMPLES)):
            receiver.run_packet(rx)

    def test_very_short_packet_raises_not_negative_loop(self, receiver):
        # Used to produce a negative tail pair count deep in the pipeline.
        rx = np.zeros((2, 64), dtype=np.complex128)
        with pytest.raises(ValueError, match="packet too short"):
            receiver.run_packet(rx)

    def test_oversized_packet_raises(self, receiver):
        rx = np.zeros((2, 1025), dtype=np.complex128)
        with pytest.raises(ValueError, match="packet too long"):
            receiver.run_packet(rx)

    def test_first_detect_candidate_not_negative(self):
        # The earliest of the three candidates sits 16 samples before
        # _DETECT_START and must not read before the packet start.
        assert _DETECT_START - 16 >= 0

    def test_last_detect_candidate_in_sync_region(self):
        # The last of the three candidates (_DETECT_START + 16) plus its
        # autocorrelation span must end inside the 352-sample sync region.
        assert _DETECT_START + 16 + _ACORR_SPAN <= _SYNC_SAMPLES

    def test_detection_reports_a_fixed_candidate(self, receiver):
        # A packet with no preamble still runs detection over the fixed
        # candidates without a range error and reports one of them.
        rx = np.zeros((2, 400), dtype=np.complex128)
        out = receiver.run_packet(rx)
        assert out.detect_pos in (_DETECT_START - 16, _DETECT_START, _DETECT_START + 16)


class TestTracerRobustness:
    def test_tracer_reenabled_after_setup_fault(self, monkeypatch):
        """A fault inside ``Core.reset``'s I$ warm-up must not leave the
        caller's tracer disabled: the warm-up sets the tags directly
        (no fetch, so no trace event) and never turns the tracer off.  A
        traced lane runs alone, so its fault is final: no replay warms
        again."""
        tracer = Tracer(capacity=1024, enabled=True)
        runtime = ModemRuntime(tracer=tracer)
        warmups = []

        def boom(self, n_bundles):
            warmups.append(tracer.enabled)
            raise RuntimeError("I$ warm-up fault")

        monkeypatch.setattr(InstructionCache, "warm", boom)
        rx = np.zeros((2, 400), dtype=np.complex128)
        with pytest.raises(RuntimeError, match="I\\$ warm-up fault"):
            runtime.run_packet(rx)
        assert warmups == [True]
        assert tracer.enabled is True
        assert runtime.fallbacks == 1
