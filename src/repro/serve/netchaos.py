"""Deterministic fault-injecting TCP proxy: the network adversary.

The disk seams got their adversary in PR 5/6 (``crashpoint`` + kill -9
sweeps); this module is the same idea for the wire.  A
:class:`NetChaosProxy` sits between a client and a real ``repro serve``
process and injects scheduled faults:

========== ==========================================================
kind        behaviour at the scheduled phase
========== ==========================================================
latency     hold the connection (or a chunk) for ``arg`` seconds, then
            proceed normally — the only non-fatal fault
drop        close both sides cleanly; the peer sees EOF mid-exchange
reset       close the client side with SO_LINGER 0 → TCP RST
truncate    forward roughly half of the in-flight chunk, then close —
            the peer sees a torn frame (bytes without the delimiter)
loris       dribble a few bytes of the chunk with long pauses, then
            close — a slow-loris partial write
partition   refuse (RST) the triggering connection and every later one
            for ``arg`` seconds — a hard partition with a timed heal
========== ==========================================================

Faults fire at a protocol *phase* of the proxied connection:
``connect`` (before any byte flows), ``request`` (first client→server
bytes), ``response`` (first server→client bytes), or ``stream``
(server→client bytes after at least one complete line was already
delivered — i.e. mid-subscription on a ``stream`` op).

Scheduling is deterministic: a :class:`FaultSchedule` is a pure
function of the connection index (1-based, in accept order) plus an
optional seeded probabilistic profile for loss/jitter benchmarks —
randomness comes from sha256 over ``(seed, label, index)``, exactly the
:class:`~repro.resilience.retry.RetryPolicy` trick, so a sweep replays
identically from its seed.  The proxy never calls ``random``.

:func:`default_matrix` enumerates the fault × phase cells that
``repro chaos --net`` sweeps; the sweep itself is
:class:`repro.serve.chaos.NetTarget` on the shared chaos driver.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "NetChaosProxy",
    "NetFault",
    "PHASES",
    "default_matrix",
]

FAULT_LATENCY = "latency"
FAULT_DROP = "drop"
FAULT_RESET = "reset"
FAULT_TRUNCATE = "truncate"
FAULT_LORIS = "loris"
FAULT_PARTITION = "partition"
FAULT_KINDS = (
    FAULT_LATENCY,
    FAULT_DROP,
    FAULT_RESET,
    FAULT_TRUNCATE,
    FAULT_LORIS,
    FAULT_PARTITION,
)

PHASE_CONNECT = "connect"
PHASE_REQUEST = "request"
PHASE_RESPONSE = "response"
PHASE_STREAM = "stream"
PHASES = (PHASE_CONNECT, PHASE_REQUEST, PHASE_RESPONSE, PHASE_STREAM)


@dataclass(frozen=True)
class NetFault:
    """One scheduled fault: *kind* fired at *phase*.

    *arg* is the kind's knob: seconds of delay for ``latency``, seconds
    until heal for ``partition``; ignored elsewhere.
    """

    kind: str
    phase: str = PHASE_CONNECT
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.phase not in PHASES:
            raise ValueError(f"unknown fault phase {self.phase!r}")

    def describe(self) -> str:
        return f"{self.kind}@{self.phase}"


def _hash01(seed: int, label: str, index: int) -> float:
    """Deterministic uniform-ish [0, 1) from (seed, label, index)."""
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultSchedule:
    """Pure function: connection index -> fault (or None).

    Two layers, consulted in order:

    * *planned* — explicit ``{index: NetFault}`` entries, for sweeps
      that arm one fault on a window of connections;
    * a seeded probabilistic profile — each connection independently
      suffers a connection-killing fault with probability *loss*
      (kind and phase drawn deterministically from the hash), and/or a
      connect-time latency uniform in ``[0, jitter)`` seconds.  This is
      the E18 "1% loss / 50 ms jitter" knob.
    """

    _LOSS_KINDS = (FAULT_DROP, FAULT_RESET, FAULT_TRUNCATE)
    _LOSS_PHASES = (PHASE_REQUEST, PHASE_RESPONSE)

    def __init__(
        self,
        planned: Optional[dict[int, NetFault]] = None,
        seed: int = 0,
        loss: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        if jitter < 0.0:
            raise ValueError("jitter must be >= 0")
        self.planned = dict(planned or {})
        self.seed = seed
        self.loss = loss
        self.jitter = jitter

    @classmethod
    def window(
        cls, fault: NetFault, first: int = 1, count: int = 6
    ) -> "FaultSchedule":
        """Arm *fault* on connections ``first .. first+count-1``.

        A window (rather than a single index) guarantees the fault
        actually fires on a connection that *reaches* its phase — a
        submit connection never reaches ``stream``, so arming a stream
        fault only on connection 1 could inject nothing.
        """
        return cls(planned={first + i: fault for i in range(count)})

    def fault_for(self, index: int) -> Optional[NetFault]:
        if index in self.planned:
            return self.planned[index]
        if self.loss and _hash01(self.seed, "loss", index) < self.loss:
            kind = self._LOSS_KINDS[
                int(_hash01(self.seed, "kind", index) * len(self._LOSS_KINDS))
            ]
            phase = self._LOSS_PHASES[
                int(
                    _hash01(self.seed, "phase", index)
                    * len(self._LOSS_PHASES)
                )
            ]
            return NetFault(kind, phase)
        if self.jitter:
            delay = self.jitter * _hash01(self.seed, "delay", index)
            return NetFault(FAULT_LATENCY, PHASE_CONNECT, delay)
        return None


def _reset_close(sock: socket.socket) -> None:
    """Close *sock* so the peer sees TCP RST, not orderly FIN.

    The ``SHUT_RD`` first is local-only (no packet): it wakes any pump
    thread blocked in ``recv`` on this socket, whose in-flight syscall
    would otherwise pin the file description open and defer the RST
    until its own timeout.
    """
    try:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
    except OSError:
        pass
    try:
        sock.shutdown(socket.SHUT_RD)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _quiet_close(sock: socket.socket) -> None:
    """Close *sock* with an orderly FIN, waking any blocked reader.

    A bare ``close()`` while another thread sits in ``recv`` on the same
    socket takes effect only after that syscall returns — the peer would
    see nothing until a timeout.  ``shutdown`` acts immediately.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected (e.g. the listener) — close alone is fine
    try:
        sock.close()
    except OSError:
        pass


class _ConnPair:
    """Both sockets of one proxied connection, killable from any pump."""

    def __init__(self, client: socket.socket, upstream: socket.socket) -> None:
        self.client = client
        self.upstream = upstream
        self.fault_tripped = False
        self.lines_down = 0  # complete server->client lines forwarded
        self.lock = threading.Lock()

    def kill(self, reset_client: bool = False) -> None:
        if reset_client:
            _reset_close(self.client)
        else:
            _quiet_close(self.client)
        _quiet_close(self.upstream)


class NetChaosProxy:
    """A TCP proxy for one server, injecting scheduled faults.

    Threaded and in-process: ``start()`` binds an ephemeral port (the
    ``endpoint`` property) and accepts in a daemon thread; each proxied
    connection gets two pump threads moving bytes with ``sendall``.
    ``injected`` counts fired faults by ``kind@phase`` and
    ``connections`` counts accepts — both for assertions in tests and
    sweep reports.  Use as a context manager.
    """

    #: Pause between dribbled bytes in a slow-loris fault, and the cap
    #: on dribbled bytes, keeping the fault slow but the test bounded.
    LORIS_DELAY = 0.05
    LORIS_BYTES = 4

    def __init__(
        self,
        target_host: str,
        target_port: int,
        schedule: Optional[FaultSchedule] = None,
        host: str = "127.0.0.1",
        connect_timeout: float = 10.0,
        io_timeout: float = 120.0,
    ) -> None:
        self.target = (target_host, target_port)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.host = host
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.injected: Counter = Counter()
        self.connections = 0
        self._listener: Optional[socket.socket] = None
        self._port = 0
        self._accept_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._partition_until = 0.0
        self._lock = threading.Lock()
        self._pairs: set[_ConnPair] = set()

    # -- lifecycle ---------------------------------------------------------
    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self._port)

    def start(self) -> "NetChaosProxy":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(64)
        self._listener = listener
        self._port = listener.getsockname()[1]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="netchaos-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self._listener is not None:
            _quiet_close(self._listener)
        with self._lock:
            pairs = list(self._pairs)
        for pair in pairs:
            pair.kill()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "NetChaosProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept / fault dispatch ------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                client, _addr = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
                index = self.connections
                partitioned = time.monotonic() < self._partition_until
            if partitioned:
                self.injected["partition.refused"] += 1
                _reset_close(client)
                continue
            fault = self.schedule.fault_for(index)
            threading.Thread(
                target=self._serve_conn,
                args=(client, fault),
                name=f"netchaos-conn-{index}",
                daemon=True,
            ).start()

    def _serve_conn(self, client: socket.socket, fault: Optional[NetFault]) -> None:
        client.settimeout(self.io_timeout)
        if fault is not None and fault.kind == FAULT_PARTITION:
            self.injected[fault.describe()] += 1
            with self._lock:
                self._partition_until = time.monotonic() + (fault.arg or 0.5)
            _reset_close(client)
            return
        if fault is not None and fault.phase == PHASE_CONNECT:
            self.injected[fault.describe()] += 1
            if fault.kind == FAULT_LATENCY:
                time.sleep(fault.arg)
                fault = None  # delayed, then proceeds normally
            elif fault.kind == FAULT_RESET:
                _reset_close(client)
                return
            else:  # drop / truncate / loris: nothing in flight to mangle
                _quiet_close(client)
                return
        try:
            upstream = socket.create_connection(
                self.target, timeout=self.connect_timeout
            )
        except OSError:
            _reset_close(client)
            return
        upstream.settimeout(self.io_timeout)
        pair = _ConnPair(client, upstream)
        with self._lock:
            self._pairs.add(pair)
        up = threading.Thread(
            target=self._pump,
            args=(pair, client, upstream, fault, False),
            daemon=True,
        )
        up.start()
        try:
            self._pump(pair, upstream, client, fault, True)
        finally:
            up.join(timeout=self.io_timeout)
            pair.kill()
            with self._lock:
                self._pairs.discard(pair)

    # -- byte pumps --------------------------------------------------------
    def _pump(
        self,
        pair: _ConnPair,
        src: socket.socket,
        dst: socket.socket,
        fault: Optional[NetFault],
        downstream: bool,
    ) -> None:
        """Move bytes src -> dst, applying *fault* when its phase arrives."""
        while True:
            try:
                chunk = src.recv(65536)
            except OSError:
                pair.kill()
                return
            if not chunk:
                # Half-close: propagate EOF, let the other pump drain.
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pair.kill()
                return
            if fault is not None:
                tripped_here = False
                with pair.lock:
                    if pair.fault_tripped:
                        fault = None  # the other pump already fired it
                    elif self._phase(pair, downstream) == fault.phase:
                        pair.fault_tripped = True
                        tripped_here = True
                if fault is not None and tripped_here:
                    self.injected[fault.describe()] += 1
                    if not self._apply(fault, pair, dst, chunk):
                        return
                    fault = None
                    continue
            try:
                dst.sendall(chunk)
            except OSError:
                pair.kill()
                return
            if downstream:
                with pair.lock:
                    pair.lines_down += chunk.count(b"\n")

    def _phase(self, pair: _ConnPair, downstream: bool) -> str:
        if not downstream:
            return PHASE_REQUEST
        return PHASE_STREAM if pair.lines_down >= 1 else PHASE_RESPONSE

    def _apply(
        self,
        fault: NetFault,
        pair: _ConnPair,
        dst: socket.socket,
        chunk: bytes,
    ) -> bool:
        """Inject *fault* on *chunk*; False when the connection is dead."""
        if fault.kind == FAULT_LATENCY:
            time.sleep(fault.arg or 0.05)
            try:
                dst.sendall(chunk)
            except OSError:
                pair.kill()
                return False
            if dst is pair.client:
                with pair.lock:
                    pair.lines_down += chunk.count(b"\n")
            return True
        if fault.kind == FAULT_DROP:
            pair.kill()
            return False
        if fault.kind == FAULT_RESET:
            pair.kill(reset_client=True)
            return False
        if fault.kind == FAULT_TRUNCATE:
            keep = max(1, len(chunk) // 2)
            try:
                dst.sendall(chunk[:keep])
            except OSError:
                pass
            pair.kill()
            return False
        if fault.kind == FAULT_LORIS:
            for byte in chunk[: self.LORIS_BYTES]:
                try:
                    dst.sendall(bytes([byte]))
                except OSError:
                    break
                time.sleep(self.LORIS_DELAY)
            pair.kill()
            return False
        raise AssertionError(f"unhandled fault kind {fault.kind!r}")


def default_matrix(
    faults: Optional[list[str]] = None,
    phases: Optional[list[str]] = None,
) -> list[NetFault]:
    """Every connection-killing fault kind × every protocol phase.

    ``latency`` rides along at the connect phase only (elsewhere it is
    just a slower success) and ``partition`` only makes sense at
    connect (it refuses whole connections); the four killing kinds
    cover all four phases.
    """
    picked_faults = list(faults) if faults else list(FAULT_KINDS)
    picked_phases = list(phases) if phases else list(PHASES)
    for kind in picked_faults:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
    for phase in picked_phases:
        if phase not in PHASES:
            raise ValueError(f"unknown fault phase {phase!r}")
    cells: list[NetFault] = []
    for kind in picked_faults:
        if kind == FAULT_PARTITION:
            if PHASE_CONNECT in picked_phases:
                cells.append(NetFault(kind, PHASE_CONNECT, arg=0.4))
            continue
        if kind == FAULT_LATENCY:
            if PHASE_CONNECT in picked_phases:
                cells.append(NetFault(kind, PHASE_CONNECT, arg=0.15))
            continue
        cells.extend(NetFault(kind, phase) for phase in picked_phases)
    return cells
