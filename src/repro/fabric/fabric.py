"""The fabric: N resident modem workers behind a dispatcher.

Process model
-------------
Workers are ``fork``-started processes, each wired to the parent by two
one-way pipes (tasks down, results up) plus its process *sentinel*.
The parent multiplexes all of them with
:func:`multiprocessing.connection.wait`, so a single-threaded pump loop
observes completions and deaths in one place (and, with an ingest
server attached, newly staged packets, through its wake socket).
Queues are parent-side:
each slot holds at most ``queue_depth`` accepted packets (pending +
in-flight) and only one dispatch at a time is inside its pipe, so a
crash can orphan only a bounded, exactly-known set of packets.  The one
dispatch is a fixed rule: a batch dispatch and its results each pickle
to more than a pipe buffer, so a second dispatch sent while the worker
writes the first one's results would block both ends.

Backpressure (all shedding is accounted in the fabric counters):

``block``
    ``offer`` pumps completions until a slot frees (or
    :data:`SUBMIT_TIMEOUT_S` expires, raising :class:`SubmitTimeout`).
``drop``
    ``offer`` returns a shed outcome (``task_id is None``) immediately
    and increments ``dropped``.
``deadline``
    ``offer`` blocks only until the packet's deadline; packets that
    cannot be accepted in time are rejected (shed outcome), and an
    accepted packet whose deadline expires while it is still queued
    resolves to a :class:`DeadlineExceeded` result.

Crash recovery: a dead worker is noticed via its sentinel (or a result
pipe EOF), its buffered results are drained first, every still-orphaned
packet is requeued to surviving slots (capacity waived — they were
already accepted), and the slot is respawned from the parent's warm
template.  Packet results are recorded exactly once by task id, so a
kill-respawn cycle loses and duplicates nothing.

Liveness: every worker beats every ``heartbeat_s`` seconds, and each
slot's one record is its :class:`WorkerState` (``last_heartbeat_ts``,
stamped at spawn and by every beat, and the watchdog's ``flagged``
bit).  One :class:`~repro.obs.heartbeat.Watchdog` verdict per slot
feeds both :meth:`Fabric.health` and ``report()["per_worker"]``, so
``/healthz`` and ``repro_fabric_worker_healthy`` always agree.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.compiler.linker import schedule_cache_dir, schedule_cache_stats
from repro.fabric.dispatcher import Dispatcher, FabricTask, WorkerState
from repro.fabric.report import FABRIC_REPORT_SCHEMA, fabric_prometheus_text
from repro.fabric.worker import (
    MSG_ERROR,
    MSG_HEARTBEAT,
    MSG_READY,
    MSG_RESULT,
    default_runner_factory,
    worker_main,
)
from repro.obs.heartbeat import MISS_INTERVALS, Watchdog
from repro.obs.window import EventLog, MetricsWindow, window_summary
from repro.sim.codegen import codegen_stats

#: Supported submission backpressure modes.
BACKPRESSURE_MODES = ("block", "drop", "deadline")

#: Seconds a ``block``-mode offer waits for queue space before raising
#: :class:`SubmitTimeout`.
SUBMIT_TIMEOUT_S = 120.0


class FabricError(RuntimeError):
    """Base class for fabric-level failures."""


class FabricClosed(FabricError):
    """The fabric was used after shutdown (or before start)."""


class SubmitTimeout(FabricError):
    """``block`` submission could not find queue space in time.

    Carries the facts as attributes (``timeout_s``, ``outstanding``,
    ``workers``) so callers — the ingest layer above all — never parse
    the message string.
    """

    def __init__(self, timeout_s: float, outstanding: int, workers: int) -> None:
        super().__init__(
            "no queue space within %.1fs (%d outstanding across %d workers)"
            % (timeout_s, outstanding, workers)
        )
        self.timeout_s = timeout_s
        self.outstanding = outstanding
        self.workers = workers


@dataclass(frozen=True)
class SubmitOutcome:
    """The typed result of one :meth:`Fabric.offer` call.

    Exactly one of the two shapes: accepted (``task_id`` set, ``reason``
    None) or shed (``task_id`` None, ``reason`` naming which counter
    took the packet — ``"dropped"`` for drop-mode shedding,
    ``"rejected"`` for a deadline miss at submission).  ``block`` mode
    never sheds; it raises :class:`SubmitTimeout` instead.
    """

    task_id: Optional[int]
    reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.task_id is not None


class DeadlineExceeded(FabricError):
    """An accepted packet's deadline expired while it was still queued.

    Stored as that task's result (and counted in ``rejected``), so every
    task id :meth:`Fabric.offer` accepts resolves in
    :meth:`Fabric.results` — late-shed packets carry this sentinel
    instead of silently never appearing.
    """

    def __init__(self, task_id: int) -> None:
        super().__init__("task %d deadline expired while queued" % task_id)
        self.task_id = task_id


class FabricTaskError(FabricError):
    """A worker raised while processing one packet.

    Stored as that task's result; the worker itself keeps serving.
    """

    def __init__(self, task_id: int, message: str) -> None:
        super().__init__("task %d failed in worker: %s" % (task_id, message))
        self.task_id = task_id


class _Worker:
    """One slot: dispatcher state plus the live process and pipes."""

    def __init__(self, state: WorkerState) -> None:
        self.state = state
        self.proc: Optional[multiprocessing.process.BaseProcess] = None
        self.task_conn = None  # parent send end
        self.result_conn = None  # parent recv end


class Fabric:
    """A multi-core packet-serving fabric over resident modem runtimes."""

    def __init__(
        self,
        workers: int = 2,
        policy: str = "round_robin",
        backpressure: str = "block",
        queue_depth: int = 4,
        batch: int = 1,
        deadline_s: Optional[float] = None,
        cache_dir: Optional[str] = None,
        template_runtime: Optional[object] = None,
        runner_factory: Optional[Callable[[], object]] = None,
        name: str = "fabric",
        heartbeat_s: float = 1.0,
        watchdog_escalate: bool = False,
        obs_host: str = "127.0.0.1",
        obs_port: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a fabric needs at least one worker, got %d" % workers)
        if backpressure not in BACKPRESSURE_MODES:
            raise ValueError(
                "unknown backpressure mode %r; expected one of %s"
                % (backpressure, list(BACKPRESSURE_MODES))
            )
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1, got %d" % queue_depth)
        if batch < 1:
            raise ValueError("batch must be >= 1, got %d" % batch)
        if backpressure == "deadline" and deadline_s is None:
            raise ValueError("deadline backpressure needs a default deadline_s")
        if heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive, got %r" % (heartbeat_s,))
        self.n_workers = int(workers)
        self.policy = policy
        self.backpressure = backpressure
        self.queue_depth = int(queue_depth)
        #: Batch-drain width: the default template runtime runs up to
        #: this many packets per lockstep call, and ``_feed`` coalesces
        #: up to this many queued tasks, of any shapes, into one dispatch.
        self.batch = int(batch)
        self.deadline_s = deadline_s
        self.name = name
        self._dispatcher = Dispatcher(policy)
        self._cache_dir = cache_dir if cache_dir is not None else schedule_cache_dir()
        self._template = template_runtime
        self._runner_factory = runner_factory
        self._ctx = multiprocessing.get_context("fork")
        self._workers: List[_Worker] = []
        self._next_task_id = 0
        self._results: Dict[int, object] = {}
        self._latencies: List[float] = []
        self._counters = {
            "submitted": 0,
            "completed": 0,
            "dropped": 0,
            "rejected": 0,
            "requeued": 0,
            "duplicates": 0,
            "task_errors": 0,
            "worker_crashes": 0,
            "respawns": 0,
            "heartbeats": 0,
        }
        self._started = False
        self._closed = False
        self._t_start: Optional[float] = None
        # -- live telemetry plane (repro.obs) --------------------------
        self.heartbeat_s = float(heartbeat_s)
        self._window = MetricsWindow()
        self._event_log = EventLog(capacity=256)
        self._watchdog = Watchdog(interval_s=self.heartbeat_s, escalate=watchdog_escalate)
        self._obs_host = obs_host
        self._obs_port = obs_port
        self._obs_server = None
        self._last_pump_ts: Optional[float] = None
        self._ingest = None  # attached IngestServer (repro.ingest)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    @property
    def template_runtime(self) -> Optional[object]:
        """The parent-side warm runtime workers fork from (default mode)."""
        return self._template

    def start(self) -> "Fabric":
        """Spawn the workers (building a default template runtime first
        when neither a template nor a runner factory was given)."""
        if self._started:
            raise FabricError("fabric already started")
        if self._closed:
            raise FabricClosed("fabric already shut down")
        if self._runner_factory is None and self._template is None:
            from repro.runtime import ModemRuntime

            self._template = ModemRuntime(cache_dir=self._cache_dir, batch=self.batch)
        for slot in range(self.n_workers):
            self._workers.append(_Worker(WorkerState(slot, self.queue_depth)))
            self._spawn(slot)
        self._started = True
        self._t_start = time.perf_counter()
        if self._obs_port is not None:
            # Lazy import: repro.obs.server is stdlib-only, but only
            # fabrics that actually serve telemetry should pay for it.
            from repro.obs.server import serve_fabric

            self._obs_server = serve_fabric(
                self, host=self._obs_host, port=self._obs_port
            )
            self._event("obs_server_started", {"url": self._obs_server.url})
        return self

    def __enter__(self) -> "Fabric":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    def _spawn(self, slot: int, respawn: bool = False) -> None:
        worker = self._workers[slot]
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        # The child closes its inherited copies of every parent-held
        # pipe end — other workers' and its own — so a SIGKILLed worker
        # drops the *last* write end of its result pipe and the parent
        # reads EOF instead of blocking forever (see worker.py).
        close_in_child = [task_send, result_recv]
        for other in self._workers:
            if other is not worker and other.task_conn is not None:
                close_in_child.extend([other.task_conn, other.result_conn])
        factory = self._runner_factory
        if factory is None:
            factory = default_runner_factory(self._template)
        proc = self._ctx.Process(
            target=worker_main,
            args=(slot, task_recv, result_send, close_in_child, factory,
                  self.heartbeat_s),
            name="%s-worker-%d" % (self.name, slot),
            daemon=True,
        )
        proc.start()
        # Parent side: drop the child ends so the child holds them alone.
        task_recv.close()
        result_send.close()
        worker.proc = proc
        worker.task_conn = task_send
        worker.result_conn = result_recv
        worker.state.alive = True
        worker.state.stopping = False
        worker.state.pid = proc.pid
        # Spawn counts as the first beat: a fresh worker gets a full
        # grace period before the watchdog may flag it.
        worker.state.clear_heartbeat(time.monotonic())
        if respawn:
            self._counters["respawns"] += 1
            self._event("worker_respawn", {"slot": slot, "pid": proc.pid})

    # ------------------------------------------------------------------
    # Submission and backpressure.
    # ------------------------------------------------------------------

    def offer(self, rx: np.ndarray) -> SubmitOutcome:
        """Offer one packet; returns a typed :class:`SubmitOutcome`.

        An accepted packet's outcome carries its ``task_id``.  Shedding
        happens only in ``drop`` and ``deadline`` modes: the packet then
        comes back as ``SubmitOutcome(None, reason)`` with *reason*
        naming the counter that took it (``"dropped"`` /
        ``"rejected"``).  In ``deadline`` mode an *accepted* packet can
        still expire while queued; its id then resolves to a
        :class:`DeadlineExceeded` sentinel in :meth:`results` (also
        counted in ``rejected``).
        """
        self._require_open()
        self._pump(0)
        return self._offer_one(rx)

    def offer_many(self, rxs: Sequence[np.ndarray]) -> List[SubmitOutcome]:
        """Offer a list of packets with one pump round-trip.

        Each packet gets exactly the per-packet :meth:`offer` semantics
        and accounting (accept / ``dropped`` / ``rejected``, in input
        order), but the completion pump runs once up front instead of
        once per packet — the batch-aware submission path the ingest
        drain uses so a reassembled burst costs one multiplex round, not
        one per packet.  Consecutive accepts landing on the same slot
        are then coalesced by batch-drain ``_feed``, whatever their
        shapes.
        """
        self._require_open()
        self._pump(0)
        return [self._offer_one(rx) for rx in rxs]

    def _offer_one(self, rx: np.ndarray) -> SubmitOutcome:
        rx = np.atleast_2d(rx)
        now = time.perf_counter()
        deadline_t = None
        if self.backpressure == "deadline":
            deadline_t = now + self.deadline_s
        task = FabricTask(self._next_task_id, rx, now, deadline_t)
        target = self._dispatcher.select(self._states())
        if target is None:
            target, reason = self._wait_for_capacity(task)
            if target is None:
                return SubmitOutcome(None, reason)  # shed; already accounted
        self._next_task_id += 1
        self._counters["submitted"] += 1
        self._window.count("submitted")
        target.assign(task)
        self._feed(self._workers[target.index])
        return SubmitOutcome(task.task_id)

    def _wait_for_capacity(self, task):
        """Find a slot per the backpressure mode.

        Returns ``(WorkerState, None)`` on success or ``(None, reason)``
        when the packet was shed — reason is the counter that took it.
        """
        shape = list(task.rx.shape)  # event payload
        if self.backpressure == "drop":
            self._counters["dropped"] += 1
            self._window.count("dropped")
            self._event("packet_dropped", {"shape": shape})
            return None, "dropped"
        if self.backpressure == "deadline":
            limit = task.deadline_t
        else:  # block
            limit = task.submit_t + SUBMIT_TIMEOUT_S
        while True:
            remaining = limit - time.perf_counter()
            if remaining <= 0:
                break
            self._pump(min(0.05, remaining))
            target = self._dispatcher.select(self._states())
            if target is not None:
                return target, None
        if self.backpressure == "deadline":
            self._counters["rejected"] += 1
            self._window.count("rejected")
            self._event("packet_rejected", {"shape": shape})
            return None, "rejected"
        raise SubmitTimeout(SUBMIT_TIMEOUT_S, self.outstanding, self.n_workers)

    def _feed(self, worker: _Worker) -> None:
        """Move pending packets into an empty pipe: one dispatch of up
        to ``batch`` packets (batch-drain mode), sent only once the
        previous dispatch's results are all back."""
        state = worker.state
        while (
            state.alive
            and not state.stopping
            and state.pending
            and not state.inflight
        ):
            group = self._collect_group(state)
            if not group:
                continue  # everything popped this round was late-shed
            payload = (tuple(task.task_id for task in group), [task.rx for task in group])
            try:
                worker.task_conn.send(payload)
            except (BrokenPipeError, OSError):
                for task in reversed(group):
                    state.pending.appendleft(task)
                self._on_worker_death(worker)
                return
            for task in group:
                state.inflight[task.task_id] = task
            state.batches += 1
            state.batched_tasks += len(group)

    def _collect_group(self, state: WorkerState) -> List[FabricTask]:
        """Pop up to ``batch`` pending tasks that have not expired.

        Any queued tasks coalesce, whatever their shapes: every packet
        runs the same region programs, so any mix shares one lockstep
        call.  Late deadline shedding is the same at every batch width:
        expired packets resolve to :class:`DeadlineExceeded` and never
        reach the pipe.
        """
        group: List[FabricTask] = []
        while state.pending and len(group) < self.batch:
            task = state.pending.popleft()
            if (
                task.deadline_t is not None
                and time.perf_counter() > task.deadline_t
            ):
                self._counters["rejected"] += 1
                self._window.count("rejected")
                self._results[task.task_id] = DeadlineExceeded(task.task_id)
                self._event("packet_rejected", {"task": task.task_id, "late": True})
                continue
            group.append(task)
        return group

    # ------------------------------------------------------------------
    # The pump: completions, crashes, respawns.
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Accepted packets not yet completed (pending + in-flight)."""
        return sum(w.state.load for w in self._workers)

    def _states(self) -> List[WorkerState]:
        return [w.state for w in self._workers]

    def _require_open(self) -> None:
        if not self._started:
            raise FabricClosed("fabric not started; call start() first")
        if self._closed:
            raise FabricClosed("fabric already shut down")

    def _pump(self, timeout: float) -> bool:
        """One multiplex round over result pipes, process sentinels and
        the attached ingest server's wake socket, which ends the wait
        when the listener stages a packet and is drained here, so a
        wake ends one wait only."""
        self._last_pump_ts = time.monotonic()
        conns = {}
        sentinels = {}
        for worker in self._workers:
            if worker.result_conn is not None and not worker.result_conn.closed:
                conns[worker.result_conn] = worker
            if worker.proc is not None and worker.proc.is_alive():
                sentinels[worker.proc.sentinel] = worker
        if not conns and not sentinels:
            return False
        wake = self._ingest.wake_socket if self._ingest is not None else None
        ready = connection.wait(
            list(conns) + list(sentinels) + ([wake] if wake is not None else []), timeout
        )
        if wake is not None and wake in ready:
            ready.remove(wake)
            try:
                while wake.recv(4096):
                    pass
            except BlockingIOError:
                pass
        progressed = bool(ready)
        dead: List[_Worker] = []
        for obj in ready:
            worker = conns.get(obj)
            if worker is not None:
                if not self._drain_conn(worker) and worker not in dead:
                    dead.append(worker)
            else:
                worker = sentinels[obj]
                if worker not in dead:
                    dead.append(worker)
        for worker in dead:
            self._on_worker_death(worker)
        # Watchdog and window sampling run every round, progress or not:
        # a silent fabric is exactly when liveness checks matter.
        self._check_watchdog()
        self._window.observe_depth(
            self.outstanding, sum(len(w.state.inflight) for w in self._workers)
        )
        return progressed

    def _check_watchdog(self) -> None:
        """Flag (and optionally kill, which the sentinel / pipe-EOF path
        then recovers) workers whose heartbeats stopped."""
        for action in self._watchdog.check(self._states(), time.monotonic()):
            self._window.count("watchdog_flags")
            self._event(
                "watchdog_flag",
                {
                    "slot": action.slot,
                    "pid": action.pid,
                    "heartbeat_age_s": round(action.age_s, 3),
                    "killed": action.killed,
                },
            )

    def _drain_conn(self, worker: _Worker) -> bool:
        """Read every buffered message; False when the pipe hit EOF."""
        conn = worker.result_conn
        while True:
            try:
                if not conn.poll(0):
                    return True
                msg = conn.recv()
            except (EOFError, OSError):
                return False
            self._handle_message(worker, msg)

    def _handle_message(self, worker: _Worker, msg: tuple) -> None:
        tag = msg[0]
        state = worker.state
        if tag == MSG_READY:
            info = msg[2]
            state.spinup_s = info.get("spinup_s")
            state.spinup_schedule_misses = info.get("schedule_misses")
            state.spinup_codegen_compilations = info.get("codegen_compilations")
            return
        if tag == MSG_HEARTBEAT:
            payload = msg[2]
            state.heartbeats += 1
            state.hb_task_seq = payload.get("task_seq")
            state.hb_host_cycles = int(payload.get("host_cycles", 0) or 0)
            state.hb_rss_bytes = int(payload.get("rss_bytes", 0) or 0)
            state.hb_stall_causes = dict(payload.get("stall_causes") or {})
            self._counters["heartbeats"] += 1
            if self._watchdog.beat(state, time.monotonic()):
                self._event(
                    "worker_recovered", {"slot": state.index, "pid": state.pid}
                )
            return
        if tag in (MSG_RESULT, MSG_ERROR):
            task_id, dt = msg[1], msg[2]
            task = state.inflight.pop(task_id, None)
            if task_id in self._results:
                # Exactly-once guard; unreachable in the current
                # requeue protocol but cheap insurance against it.
                self._counters["duplicates"] += 1
                return
            if tag == MSG_ERROR:
                self._results[task_id] = FabricTaskError(task_id, msg[3])
                self._counters["task_errors"] += 1
                self._window.count("task_errors")
            else:
                self._results[task_id] = msg[3]
            self._counters["completed"] += 1
            self._window.count("completed")
            state.completed += 1
            state.busy_s += dt
            if task is not None:
                latency = time.perf_counter() - task.submit_t
                self._latencies.append(latency)
                self._window.observe_latency(latency)
            self._feed(worker)

    def _on_worker_death(self, worker: _Worker) -> None:
        """Requeue a dead slot's packets and respawn it."""
        state = worker.state
        if not state.alive:
            return
        # A kill surfaces through several signals (result-pipe EOF, the
        # process sentinel, a feed-side BrokenPipeError), and handling
        # the first one respawns the slot — so a later signal from the
        # same round must not take down the replacement process.
        if worker.proc is not None and worker.proc.is_alive():
            return
        # Mark the slot dead *before* anything else: the salvage drain
        # below delivers buffered results through _handle_message, whose
        # _feed would otherwise try task_conn.send on the dead child,
        # hit BrokenPipeError, and re-enter this handler mid-teardown
        # (double-counting the crash and tearing down the replacement).
        # With alive already False, _feed is a no-op and the re-entrant
        # call returns at the guard above.
        state.alive = False
        # A worker that was told to stop exiting is a clean shutdown.
        if state.stopping:
            return
        self._drain_conn(worker)  # salvage fully-written results first
        state.crashes += 1
        self._counters["worker_crashes"] += 1
        self._window.count("worker_crashes")
        self._event("worker_crash", {"slot": state.index, "pid": state.pid})
        orphans = list(state.inflight.values()) + list(state.pending)
        state.inflight.clear()
        state.pending.clear()
        for conn in (worker.task_conn, worker.result_conn):
            try:
                conn.close()
            except OSError:
                pass
        if worker.proc is not None:
            worker.proc.join(timeout=5)
        self._spawn(state.index, respawn=True)
        for task in orphans:
            task.requeues += 1
            self._counters["requeued"] += 1
            self._window.count("requeued")
            target = self._dispatcher.requeue_select(self._states())
            if target is None:  # every slot dying at once: shouldn't happen
                raise FabricError(
                    "no alive worker to requeue task %d onto" % task.task_id
                )
            target.assign(task)
            self._feed(self._workers[target.index])

    # ------------------------------------------------------------------
    # Draining, results, shutdown.
    # ------------------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> bool:
        """Advance the fabric; True when any progress event was handled."""
        self._require_open()
        return self._pump(timeout)

    def results(self) -> Dict[int, object]:
        """Results recorded so far, keyed by task id (shallow copy)."""
        return dict(self._results)

    def drain(self, timeout: Optional[float] = None) -> Dict[int, object]:
        """Pump until every accepted packet completed; returns results."""
        self._require_open()
        deadline = None if timeout is None else time.perf_counter() + timeout
        while self.outstanding:
            remaining = 0.2
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise FabricError(
                        "drain timed out with %d packets outstanding" % self.outstanding
                    )
                remaining = min(0.2, remaining)
            self._pump(remaining)
        return self.results()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the fabric; with *drain* (default) queues finish first."""
        if self._closed or not self._started:
            self._closed = True
            return
        if drain:
            self.drain(timeout)
        if self._obs_server is not None:
            self._obs_server.stop()
            self._obs_server = None
        for worker in self._workers:
            worker.state.stopping = True
            try:
                worker.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            if worker.proc is not None:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():
                    worker.proc.terminate()
                    worker.proc.join(timeout=5)
                if worker.proc.is_alive():
                    worker.proc.kill()
                    worker.proc.join()
            worker.state.alive = False
            for conn in (worker.task_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:
                    pass
        self._closed = True

    def worker_pids(self) -> List[int]:
        """Live worker process ids, by slot (for tests and operators)."""
        return [w.proc.pid for w in self._workers if w.proc is not None]

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------

    def _event(self, event: str, args: dict) -> None:
        """Record a lifecycle event in the ring behind ``/events.json``."""
        self._event_log.append(event, args)

    @property
    def obs_url(self) -> Optional[str]:
        """Base URL of the live telemetry server (None when not serving)."""
        return self._obs_server.url if self._obs_server is not None else None

    def attach_ingest(self, ingest) -> None:
        """Attach an :class:`~repro.ingest.server.IngestServer`.

        The fabric report gains an ``ingest`` section, ``/healthz`` an
        ``ingest:listener`` check, and ``/metrics`` the
        ``repro_ingest_*`` families; the pump also waits on the
        server's wake socket, so a staged packet ends a pump's wait.
        The latest attachment wins.
        """
        self._ingest = ingest
        self._event("ingest_attached", {"name": getattr(ingest, "name", "?")})

    def ingest_event(self, kind: str, n: int = 1) -> None:
        """Record an ingest event in the rolling window.

        Safe from the ingest listener thread: the windowed counters are
        internally locked, unlike the fabric's task queues.
        """
        self._window.count(kind, n)

    def events(self) -> List[dict]:
        """Recent lifecycle events, oldest first (``/events.json``)."""
        return self._event_log.snapshot()

    def _liveness(self, now: float):
        """``(pump_age, pump_stale, verdicts)``: the pump's age (None
        before the first pump), whether it is stale, and every slot's
        health verdict by slot (see :meth:`health`).  A fresh pump's
        silence is judged up to its last round: later beats are unread."""
        pump_age = None if self._last_pump_ts is None else now - self._last_pump_ts
        pump_stale = pump_age is not None and pump_age >= self._watchdog.unhealthy_s
        as_of = now if pump_age is None or pump_stale else self._last_pump_ts
        verdicts = [self._watchdog.verdict(w.state, as_of, pump_stale) for w in self._workers]
        return pump_age, pump_stale, verdicts

    def health(self) -> dict:
        """RFC-health JSON (draft-inadarei) with per-worker verdicts.

        A worker ``fail``s once it has been heartbeat-silent for two
        heartbeat intervals as of the last pump round (see
        :meth:`_liveness`).  Heartbeats only arrive while somebody
        pumps the fabric, so when the *pump itself* is stale — the
        serving thread stopped calling submit/poll/drain — worker
        silence is unattributable and their ``fail`` verdicts are
        capped to ``warn``, with a ``fabric:pump`` check carrying the
        real story.  The report's per-worker ``health`` is the same
        verdict.
        """
        now = time.monotonic()
        pump_age, pump_stale, verdicts = self._liveness(now)
        order = {"pass": 0, "warn": 1, "fail": 2}
        worst = "warn" if pump_stale else "pass"
        checks: Dict[str, list] = {}
        for worker, verdict in zip(self._workers, verdicts):
            state = worker.state
            checks["worker:%d" % state.index] = [{
                "componentType": "process",
                "status": verdict,
                "pid": state.pid,
                "alive": bool(state.alive),
                "observedValue": round(now - state.last_heartbeat_ts, 3),
                "observedUnit": "s_since_heartbeat",
                "taskSeq": state.hb_task_seq,
                "rssBytes": state.hb_rss_bytes,
                "stuck": state.flagged,
            }]
            worst = max(worst, verdict, key=lambda v: order[v])
        checks["fabric:pump"] = [{
            "componentType": "system",
            "status": "warn" if pump_stale else "pass",
            "observedValue": round(pump_age, 3) if pump_age is not None else None,
            "observedUnit": "s_since_pump",
        }]
        if self._ingest is not None:
            for name, details in self._ingest.health_checks().items():
                checks[name] = details
                for detail in details:
                    worst = max(
                        worst, detail.get("status", "pass"), key=lambda v: order[v]
                    )
        return {
            "status": worst,
            "version": "1",
            "releaseId": FABRIC_REPORT_SCHEMA,
            "serviceId": self.name,
            "description": "%d-worker fabric, %s dispatch, %s backpressure"
            % (self.n_workers, self.policy, self.backpressure),
            "checks": checks,
        }

    def metrics_text(self) -> str:
        """The live report as Prometheus exposition text (``/metrics``)."""
        return fabric_prometheus_text(self.report())

    @staticmethod
    def _cache_telemetry() -> dict:
        """Parent-side schedule-cache and codegen counters."""
        return {"schedule": schedule_cache_stats(), "codegen": codegen_stats()}

    def report(self) -> dict:
        """The fabric report: counters, per-worker stats, latencies."""
        wall = (
            time.perf_counter() - self._t_start if self._t_start is not None else 0.0
        )
        now = time.monotonic()
        _, _, verdicts = self._liveness(now)
        completed = self._counters["completed"]
        per_worker = []
        for worker, verdict in zip(self._workers, verdicts):
            state = worker.state
            per_worker.append(
                {
                    "index": state.index,
                    "pid": state.pid,
                    "alive": bool(state.alive),
                    "completed": state.completed,
                    "load": state.load,
                    "busy_s": round(state.busy_s, 6),
                    "occupancy": round(min(1.0, state.busy_s / wall), 4) if wall else 0.0,
                    "crashes": state.crashes,
                    "spinup_s": state.spinup_s,
                    "spinup_schedule_misses": state.spinup_schedule_misses,
                    "spinup_codegen_compilations": state.spinup_codegen_compilations,
                    "batches": state.batches,
                    "batched_tasks": state.batched_tasks,
                    "batch_occupancy": (
                        round(state.batched_tasks / (state.batches * self.batch), 4)
                        if state.batches
                        else 0.0
                    ),
                    "heartbeats": state.heartbeats,
                    "last_heartbeat_age_s": round(now - state.last_heartbeat_ts, 3),
                    "task_seq": state.hb_task_seq,
                    "host_cycles": state.hb_host_cycles,
                    "rss_bytes": state.hb_rss_bytes,
                    "stall_causes": dict(state.hb_stall_causes),
                    "health": verdict,
                }
            )
        watchdog = self._watchdog
        return {
            "schema": FABRIC_REPORT_SCHEMA,
            "name": self.name,
            "policy": self.policy,
            "backpressure": self.backpressure,
            "workers": self.n_workers,
            "queue_depth": self.queue_depth,
            "batch": self.batch,
            "heartbeat_s": self.heartbeat_s,
            "wall_s": round(wall, 6),
            "packets_per_sec": round(completed / wall, 3) if wall else 0.0,
            "outstanding": self.outstanding,
            "counters": dict(self._counters, watchdog_flags=watchdog.flags,
                             watchdog_kills=watchdog.kills),
            "latency_s": window_summary(list(self._latencies)),
            "window": self._window.snapshot(),
            "watchdog": {
                "interval_s": watchdog.interval_s,
                "miss_intervals": MISS_INTERVALS,
                "escalate": watchdog.escalate,
                "flags": watchdog.flags,
                "kills": watchdog.kills,
                "recoveries": watchdog.recoveries,
            },
            "cache": self._cache_telemetry(),
            "ingest": (
                self._ingest.ingest_report() if self._ingest is not None else None
            ),
            "per_worker": per_worker,
        }
