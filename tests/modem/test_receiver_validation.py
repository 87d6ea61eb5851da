"""Input validation and tracer-robustness tests for the receive pipeline."""

import numpy as np
import pytest

from repro.modem.receiver import MIN_PACKET_SAMPLES
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

    def test_negative_hint_raises(self, receiver):
        rx = np.zeros((2, 400), dtype=np.complex128)
        with pytest.raises(ValueError, match="detect_hint"):
            receiver.run_packet(rx, detect_hint=-1)

    def test_large_hint_raises(self, receiver):
        # Hints past 352 - 16 - 48 would run the candidate windows past
        # the 352-sample sync region.
        rx = np.zeros((2, 400), dtype=np.complex128)
        with pytest.raises(ValueError, match="out of range"):
            receiver.run_packet(rx, detect_hint=289)

    def test_boundary_hint_is_accepted_by_validation(self, receiver):
        # detect_hint == 288 passes validation (failure further down the
        # pipeline, if any, must not be a range error).
        rx = np.zeros((2, 400), dtype=np.complex128)
        try:
            receiver.run_packet(rx, detect_hint=288)
        except ValueError as err:  # pragma: no cover - defensive
            assert "detect_hint" not in str(err)


class TestTracerRobustness:
    def test_tracer_reenabled_after_setup_fault(self, monkeypatch):
        """A fault inside the untraced setup window (``Core.reset``'s I$
        warm-up) must not leave the caller's tracer disabled.  A traced
        lane runs alone, so its fault is final: no replay warms again."""
        tracer = Tracer(capacity=1024, enabled=True)
        runtime = ModemRuntime(tracer=tracer)
        warmups = []

        def boom(self, pc, cycle=0):
            warmups.append(tracer.enabled)
            raise RuntimeError("I$ warm-up fault")

        monkeypatch.setattr(InstructionCache, "fetch", boom)
        rx = np.zeros((2, 400), dtype=np.complex128)
        with pytest.raises(RuntimeError, match="I\\$ warm-up fault"):
            runtime.run_packet(rx)
        assert warmups == [False]
        assert tracer.enabled is True
        assert runtime.fallbacks == 1
