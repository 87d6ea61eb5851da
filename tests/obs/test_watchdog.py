"""Watchdog policy over slot liveness records, with explicit clock
readings and injected kills: silence detection, verdict thresholds,
escalation, once-per-incident flagging."""

import signal
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.fabric.dispatcher import WorkerState
from repro.obs import Watchdog, heartbeat_payload, rss_bytes


@dataclass
class _Slot:
    """A slot's liveness record: spawned (first beat) at t=0."""

    index: int
    alive: bool = True
    stopping: bool = False
    pid: Optional[int] = 4242
    last_heartbeat_ts: float = 0.0
    flagged: bool = False


def _watchdog(**kwargs):
    kwargs.setdefault("interval_s", 1.0)
    return Watchdog(kill=kwargs.pop("kill", lambda pid, sig: None), **kwargs)


class TestVerdict:
    def test_fail_at_exactly_two_silent_intervals(self):
        dog, slot = _watchdog(), _Slot(0)
        assert dog.verdict(slot, 1.9) == "pass"
        assert dog.verdict(slot, 2.0) == "fail"  # UNHEALTHY_INTERVALS * interval_s

    def test_beat_rearms_the_verdict(self):
        dog, slot = _watchdog(), _Slot(0)
        assert dog.verdict(slot, 5.0) == "fail"
        assert dog.beat(slot, 5.0) is False, "an unflagged slot does not recover"
        assert slot.last_heartbeat_ts == 5.0
        assert dog.verdict(slot, 5.0) == "pass"

    def test_stopping_warns_dead_fails_and_a_stale_pump_caps_silence(self):
        dog = _watchdog()
        assert dog.verdict(_Slot(0, stopping=True), 0.0) == "warn"
        assert dog.verdict(_Slot(0, alive=False, stopping=True), 0.0) == "warn"
        assert dog.verdict(_Slot(0, alive=False), 0.0, pump_stale=True) == "fail"
        assert dog.verdict(_Slot(0), 5.0, pump_stale=True) == "warn"
        assert dog.verdict(_Slot(0), 1.0, pump_stale=True) == "pass"


class TestEscalation:
    def test_silent_slot_is_flagged_after_miss_intervals(self):
        dog, slot = _watchdog(), _Slot(0)
        assert dog.check([slot], 4.9) == []
        events = dog.check([slot], 5.1)
        assert len(events) == 1
        assert events[0].slot == 0
        assert events[0].age_s == pytest.approx(5.1)
        assert not events[0].killed, "escalate=False must never kill"
        assert slot.flagged
        assert dog.flags == 1

    def test_flagging_is_once_per_incident(self):
        dog, slot = _watchdog(), _Slot(0)
        assert len(dog.check([slot], 6.0)) == 1
        assert dog.check([slot], 7.0) == [], "still the same incident"
        assert dog.flags == 1

    def test_beat_recovers_a_flagged_slot(self):
        dog, slot = _watchdog(), _Slot(0)
        dog.check([slot], 6.0)
        assert dog.beat(slot, 6.0) is True
        assert not slot.flagged
        assert dog.recoveries == 1
        assert len(dog.check([slot], 12.0)) == 1, "a new incident flags again"

    def test_escalate_kills_with_sigkill(self):
        kills = []
        dog = _watchdog(escalate=True, kill=lambda pid, sig: kills.append((pid, sig)))
        events = dog.check([_Slot(3, pid=777)], 5.5)
        assert events[0].killed
        assert kills == [(777, signal.SIGKILL)]
        assert dog.kills == 1

    def test_kill_failure_is_swallowed(self):
        def kill(pid, sig):
            raise ProcessLookupError(pid)

        dog = _watchdog(escalate=True, kill=kill)
        events = dog.check([_Slot(0)], 5.5)
        assert len(events) == 1 and not events[0].killed
        assert dog.kills == 0

    def test_dead_and_stopping_slots_are_skipped(self):
        dog = _watchdog()
        events = dog.check([_Slot(0, alive=False), _Slot(1, stopping=True)], 10.0)
        assert events == [], "the sentinel/shutdown paths own those slots"

    def test_respawn_reset_forgives_the_dead_incarnation(self):
        dog, state = _watchdog(), WorkerState(0, queue_depth=1)
        dog.check([state], 10.0)
        assert state.flagged
        state.clear_heartbeat(10.0)  # the fabric respawned the slot
        assert not state.flagged
        assert dog.verdict(state, 10.0) == "pass"
        assert dog.check([state], 14.9) == [], "the new incarnation gets full grace"


class TestValidation:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="interval_s"):
            Watchdog(interval_s=0)


class TestHeartbeatPayload:
    def test_payload_shape(self):
        payload = heartbeat_payload(
            task_seq=7, host_cycles=1234, stall_causes={"bank_conflict": 9}
        )
        assert payload["task_seq"] == 7
        assert payload["host_cycles"] == 1234
        assert payload["stall_causes"] == {"bank_conflict": 9}
        assert payload["rss_bytes"] >= 0
        assert payload["monotonic_ts"] > 0

    def test_rss_bytes_is_plausible(self):
        # A live CPython process occupies at least a few MB.
        assert rss_bytes() > 1 << 20
