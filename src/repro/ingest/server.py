"""`IngestServer`: sockets in, fabric submissions out, everything counted.

The serving pipeline has three stages with distinct threading rules:

1. **Listener thread** (owned by this class): a `selectors` loop over
   one UDP socket and/or one TCP listener.  UDP datagrams and TCP
   length-prefixed frames carry identical bytes; both are fed to the
   :class:`~repro.ingest.reassembly.Reassembler` under the server lock
   and completed packets are *staged* in bounded per-stream buffers.
   The listener never touches the fabric's task queues — the fabric's
   pump is single-threaded by design.  Whenever it stages packets it
   writes a byte to the server's wake socket, which the fabric's pump
   waits on beside its result pipes, so an owner blocked in
   :meth:`poll` wakes as soon as a packet is staged.
2. **Owner thread** (whoever owns the fabric): calls :meth:`poll` /
   :meth:`drain`, which move staged packets into
   :meth:`Fabric.offer` — inheriting the fabric's configured
   backpressure mode — and pump completions.  ``block`` mode absorbs
   bursts by pumping inside ``offer``; ``drop``/``deadline`` modes shed
   with typed reasons this layer records per stream.  The pump drains
   the wake socket where it waits on it, so a wake nobody polls for
   never makes a later wait return at once.
3. **Scrape threads** (:class:`~repro.obs.server.ObsServer`): read-only
   snapshots via :meth:`ingest_report` / :meth:`health_checks`, taken
   under the same lock the listener mutates under.

Exactly-once accounting invariant, per stream: every sequence number
the sender produced ends in exactly one of ``released →
{submitted, shed_overflow, shed_dropped, shed_rejected}`` or ``lost →
{gaps, incomplete}`` (plus ``corrupt``).  The ledger is the
reassembler's per-stream record (this class books outcomes on it and
keeps no per-stream state); :meth:`accounting_problems` checks it
against a sender's packet counts and backs the CI ``ingest-smoke``
gate's "zero unaccounted packets" assertion.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.ingest.reassembly import SHED_COUNTERS, ReassembledPacket, Reassembler, staged

__all__ = ["IngestError", "IngestServer"]

#: TCP frames above this are a protocol violation (drops the client).
_MAX_FRAME = 1 << 20

#: Kernel receive buffer requested for the UDP socket: loopback tests
#: blast thousands of datagrams faster than the listener thread wakes.
_UDP_RCVBUF = 1 << 22


class IngestError(RuntimeError):
    """Ingest-layer failures (lifecycle misuse, drain timeout)."""


class IngestServer:
    """Network front-end feeding packetized IQ streams into a fabric.

    Parameters
    ----------
    fabric:
        A started (or about-to-start) :class:`~repro.fabric.Fabric`.
        The server attaches itself so ``fabric.report()`` gains the
        ``ingest`` section and ``/healthz`` the listener check.
    udp_port / tcp_port:
        Listen ports (0 = ephemeral; ``None`` disables that transport).
        At least one transport must be enabled.
    window:
        Reassembly reorder window (packets), per stream.
    stream_buffer:
        Released packets per stream not yet submitted or shed (staged,
        or inside :meth:`poll`'s offer); overflow sheds the *newest*
        packet with ``shed_overflow`` accounting (the socket thread
        must never block).
    track_submissions:
        How many recent ``(stream_id, seq) -> task_id`` mappings
        :meth:`submissions` retains (oldest evicted first).  Bounded so
        a long-running server does not leak one entry per packet ever
        served; raise it in tests that map every result back.
    """

    def __init__(
        self,
        fabric,
        host: str = "127.0.0.1",
        udp_port: Optional[int] = 0,
        tcp_port: Optional[int] = None,
        window: int = 64,
        stream_buffer: int = 256,
        track_submissions: int = 4096,
        name: str = "ingest",
    ) -> None:
        if udp_port is None and tcp_port is None:
            raise ValueError("enable at least one transport (udp_port/tcp_port)")
        if stream_buffer < 1:
            raise ValueError("stream_buffer must be >= 1, got %d" % stream_buffer)
        if track_submissions < 1:
            raise ValueError(
                "track_submissions must be >= 1, got %d" % track_submissions
            )
        self.fabric = fabric
        self.host = host
        self.name = name
        self.stream_buffer = int(stream_buffer)
        self.track_submissions = int(track_submissions)
        self._udp_requested = udp_port
        self._tcp_requested = tcp_port
        self._reassembler = Reassembler(window=window)
        self._lock = threading.Lock()
        self._staged: Deque[ReassembledPacket] = deque()
        self._task_ids: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._datagrams = 0
        self._tcp_conns = 0
        self._tcp_violations = 0
        self._udp_sock: Optional[socket.socket] = None
        self._tcp_sock: Optional[socket.socket] = None
        self._selector: Optional[selectors.BaseSelector] = None
        #: Listener -> owner wake-up: the listener writes to ``_wake_w``
        #: when it stages packets; the fabric's pump waits on
        #: :attr:`wake_socket` and drains it.
        self._wake_r: Optional[socket.socket] = None
        self._wake_w: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started = False
        self._closed = False
        fabric.attach_ingest(self)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "IngestServer":
        if self._started:
            raise IngestError("ingest server already started")
        if self._closed:
            raise IngestError("ingest server already stopped")
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        if self._udp_requested is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _UDP_RCVBUF)
            sock.bind((self.host, self._udp_requested))
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, ("udp", None))
            self._udp_sock = sock
        if self._tcp_requested is not None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self._tcp_requested))
            sock.listen(16)
            sock.setblocking(False)
            self._selector.register(sock, selectors.EVENT_READ, ("accept", None))
            self._tcp_sock = sock
        self._thread = threading.Thread(
            target=self._listen_loop, name="%s-listener" % self.name, daemon=True
        )
        self._started = True
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop listening (idempotent).  Staged packets stay pollable."""
        if not self._started or self._closed:
            self._closed = True
            return
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                try:
                    self._selector.unregister(key.fileobj)
                    key.fileobj.close()
                except (KeyError, OSError):
                    pass
            self._selector.close()
        for sock in (self._wake_r, self._wake_w):
            sock.close()
        self._wake_r = self._wake_w = None
        self._udp_sock = None
        self._tcp_sock = None
        self._closed = True

    def __enter__(self) -> "IngestServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def udp_address(self) -> Optional[Tuple[str, int]]:
        """The bound UDP ``(host, port)``; None when UDP is disabled."""
        return self._udp_sock.getsockname() if self._udp_sock is not None else None

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The bound TCP ``(host, port)``; None when TCP is disabled."""
        return self._tcp_sock.getsockname() if self._tcp_sock is not None else None

    @property
    def wake_socket(self) -> Optional[socket.socket]:
        """The socket that turns readable when the listener stages
        packets (None unless serving); the fabric's pump waits on it."""
        return self._wake_r

    @property
    def listening(self) -> bool:
        """True while the listener thread is serving its sockets."""
        return (
            self._started
            and not self._closed
            and self._thread is not None
            and self._thread.is_alive()
        )

    # ------------------------------------------------------------------
    # Listener thread: sockets -> reassembler -> staging.
    # ------------------------------------------------------------------

    def _listen_loop(self) -> None:
        buffers: Dict[socket.socket, bytearray] = {}
        while not self._stop.is_set():
            events = self._selector.select(timeout=0.1)
            for key, _ in events:
                kind, _ = key.data
                if kind == "udp":
                    self._drain_udp(key.fileobj)
                elif kind == "accept":
                    self._accept_tcp(key.fileobj, buffers)
                else:
                    self._read_tcp(key.fileobj, buffers)

    def _drain_udp(self, sock: socket.socket) -> None:
        while True:
            try:
                data, _ = sock.recvfrom(65536)
            except BlockingIOError:
                return
            except OSError:
                return
            self._ingest_datagram(data)

    def _accept_tcp(self, listener: socket.socket, buffers: dict) -> None:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        buffers[conn] = bytearray()
        self._selector.register(conn, selectors.EVENT_READ, ("tcp", None))
        with self._lock:
            self._tcp_conns += 1

    def _drop_tcp(self, conn: socket.socket, buffers: dict) -> None:
        try:
            self._selector.unregister(conn)
        except KeyError:
            pass
        buffers.pop(conn, None)
        try:
            conn.close()
        except OSError:
            pass

    def _read_tcp(self, conn: socket.socket, buffers: dict) -> None:
        try:
            data = conn.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._drop_tcp(conn, buffers)
            return
        if not data:
            self._drop_tcp(conn, buffers)
            return
        buf = buffers[conn]
        buf.extend(data)
        while len(buf) >= 4:
            (frame_len,) = struct.unpack_from("<I", buf)
            if frame_len > _MAX_FRAME:
                with self._lock:
                    self._tcp_violations += 1
                self._drop_tcp(conn, buffers)
                return
            if len(buf) < 4 + frame_len:
                break
            frame = bytes(buf[4 : 4 + frame_len])
            del buf[: 4 + frame_len]
            self._ingest_datagram(frame)

    def _ingest_datagram(self, data: bytes) -> None:
        room = 0
        with self._lock:
            self._datagrams += 1
            completed = self._reassembler.offer(data)
            if completed:
                # One datagram releases packets of one stream, already
                # counted as staged: the newest beyond stream_buffer shed.
                before = staged(completed[0].ledger) - len(completed)
                room = max(0, self.stream_buffer - before)
                for packet in completed[room:]:
                    self._reassembler.book(packet, "shed_overflow")
                self._staged.extend(completed[:room])
        wake = self._wake_w
        if room and wake is not None:
            try:
                wake.send(b"\0")
            except OSError:
                pass  # a full buffer already holds a wake; closed: stopping
        # Rolling-window wiring: thread-safe counters on the fabric side.
        self.fabric.ingest_event("ingest_datagrams")
        if completed:
            self.fabric.ingest_event("ingest_packets", len(completed))

    # ------------------------------------------------------------------
    # Owner thread: staging -> fabric.
    # ------------------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> int:
        """Submit staged packets into the fabric, wait up to *timeout*
        for a completion or a newly staged packet, and submit what was
        staged meanwhile.

        Must be called from the fabric-owning thread (the fabric's pump
        is single-threaded).  The wait is one fabric pump round, which
        the listener's wake socket ends as soon as it stages a packet,
        so a packet completed during the wait is already offered when
        this returns.  Returns how many packets were accepted this call;
        shed packets are accounted per stream by their typed
        :class:`~repro.fabric.SubmitOutcome` reason.
        """
        accepted = self._submit_staged()
        self.fabric.poll(timeout)
        return accepted + self._submit_staged()

    def _submit_staged(self) -> int:
        """Offer every staged packet; returns how many were accepted."""
        accepted = 0
        while True:
            # Batch-aware submission: take every staged packet in a
            # single lock round-trip, offer them with one
            # Fabric.offer_many call (one completion pump for the whole
            # burst), then account all outcomes under one lock.  Shed
            # accounting is per packet: each outcome carries its typed
            # reason.  Packets staged while the offer blocked go out in
            # the next round.
            with self._lock:
                if not self._staged:
                    break
                batch = list(self._staged)
                self._staged.clear()
            outcomes = self.fabric.offer_many([packet.rx for packet in batch])
            shed = 0
            with self._lock:
                for packet, outcome in zip(batch, outcomes):
                    if outcome.accepted:
                        accepted += 1
                        self._reassembler.book(packet, "submitted")
                        self._task_ids[(packet.stream_id, packet.seq)] = (
                            outcome.task_id
                        )
                        while len(self._task_ids) > self.track_submissions:
                            self._task_ids.popitem(last=False)
                    else:
                        self._reassembler.book(packet, "shed_" + outcome.reason)
                        shed += 1
            if shed:
                self.fabric.ingest_event("ingest_shed", shed)
        return accepted

    def drain(
        self, idle_s: float = 0.3, timeout: Optional[float] = 60.0
    ) -> Dict[int, object]:
        """Wait for the wire to go quiet, flush, and drain the fabric.

        "Quiet" means no datagram arrived for *idle_s* seconds and
        nothing is staged; then the reassembler is flushed (declaring
        trailing losses, guided by end-of-stream markers when the
        sender sent them), the flushed packets are submitted, and the
        fabric drains.  Returns ``fabric.results()``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        last_count = -1
        quiet_since = time.monotonic()
        while True:
            self.poll(0.02)
            with self._lock:
                count = self._datagrams
                staged = len(self._staged)
            now = time.monotonic()
            if count != last_count or staged:
                last_count = count
                quiet_since = now
            elif now - quiet_since >= idle_s:
                break
            if deadline is not None and now > deadline:
                raise IngestError(
                    "ingest drain timed out (%d datagrams, %d staged)"
                    % (count, staged)
                )
        with self._lock:
            self._staged.extend(self._reassembler.flush())
        self.poll(0.0)
        remaining = None if deadline is None else max(0.1, deadline - time.monotonic())
        self.fabric.drain(timeout=remaining)
        return self.fabric.results()

    def submissions(self) -> Dict[Tuple[int, int], int]:
        """``(stream_id, seq) -> fabric task id`` for recently accepted
        packets (the newest *track_submissions* of them)."""
        with self._lock:
            return dict(self._task_ids)

    # ------------------------------------------------------------------
    # Accounting and observability.
    # ------------------------------------------------------------------

    def ingest_report(self) -> dict:
        """The ``ingest`` section of ``Fabric.report()`` (thread-safe)."""
        with self._lock:
            stats = self._reassembler.stats()
            udp = self.udp_address
            tcp = self.tcp_address
            return {
                "name": self.name,
                "listening": self.listening,
                "udp_port": udp[1] if udp else None,
                "tcp_port": tcp[1] if tcp else None,
                "datagrams": self._datagrams,
                "staged": len(self._staged),
                "tcp_connections": self._tcp_conns,
                "tcp_violations": self._tcp_violations,
                "malformed": dict(stats["listener"]),
                "evicted": stats["evicted"],
                "streams": stats["streams"],
            }

    def health_checks(self) -> Dict[str, list]:
        """The ``ingest:listener`` check merged into ``Fabric.health()``.

        ``pass`` while the listener thread serves its sockets, ``warn``
        after a clean :meth:`stop` (the fabric still drains staged
        work), ``fail`` when the thread died with sockets still open.
        """
        if not self._started:
            status = "warn"
        elif self._closed:
            status = "warn"
        elif self.listening:
            status = "pass"
        else:
            status = "fail"
        udp = self.udp_address
        tcp = self.tcp_address
        with self._lock:
            datagrams = self._datagrams
            streams = len(self._reassembler.stream_ids())
        return {
            "ingest:listener": [
                {
                    "componentType": "component",
                    "status": status,
                    "observedValue": datagrams,
                    "observedUnit": "datagrams",
                    "udpPort": udp[1] if udp else None,
                    "tcpPort": tcp[1] if tcp else None,
                    "streams": streams,
                }
            ]
        }

    def accounting_problems(self, sent: Dict[int, int]) -> List[str]:
        """Check the exactly-once invariant against sender truth.

        *sent* maps stream id → packets the sender produced, for every
        stream served.  Every one must land in exactly one bucket:
        released (then submitted or shed) or declared lost
        (gap/incomplete) or corrupt — with nothing still buffered or
        staged.  Streams evicted under churn are checked through the
        ``evicted`` aggregate, which must account every packet sent on
        an absent stream.  Returns human-readable violations (empty
        list = fully accounted).
        """
        problems: List[str] = []
        report = self.ingest_report()
        evicted = report["evicted"]
        absent = 0
        for stream_id, n_sent in sorted(sent.items()):
            view = report["streams"].get(str(stream_id))
            if view is not None:
                problems.extend(_ledger_problems("stream %d" % stream_id, view, n_sent))
            elif n_sent and not evicted["streams"]:
                problems.append("stream %d: never seen by the listener" % stream_id)
            else:
                absent += n_sent
        if evicted["streams"]:
            problems.extend(_ledger_problems("evicted streams", evicted, absent))
        return problems


def _ledger_problems(label: str, view: dict, n_sent: int) -> List[str]:
    """Violations of one ledger (a stream's or the evicted aggregate)."""
    problems = []
    buffered = view.get("pending", 0) + view.get("ready", 0)
    if buffered:
        problems.append("%s: %d packets still buffered" % (label, buffered))
    released = view["released"]
    lost = view["gaps"] + view["incomplete"] + view["corrupt"]
    if released + lost != n_sent:
        problems.append(
            "%s: sent %d != released %d + lost %d" % (label, n_sent, released, lost)
        )
    submitted = view["submitted"]
    shed = sum(view[name] for name in SHED_COUNTERS)
    if submitted + shed != released:
        problems.append(
            "%s: released %d != submitted %d + shed %d"
            % (label, released, submitted, shed)
        )
    return problems
