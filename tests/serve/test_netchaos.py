"""The fault-injecting proxy, unit-tested against an in-process echo peer.

The proxy is the adversary every other PR 9 test leans on, so its own
behaviour is pinned first: each fault kind produces exactly the failure
signature the client layer is written to survive (EOF, RST, torn frame,
dribble, refused window), phases are detected where the protocol says
they are, and the schedule is a pure function of (seed, index).

The ``@slow`` smoke runs one restricted `repro chaos --net` cell end to
end; the full 18-cell matrix lives behind the ``chaos`` marker like the
other exhaustive sweeps.
"""

import socket
import threading
import time

import pytest

from repro.resilience.chaos import chaos_sweep
from repro.serve.chaos import NetTarget
from repro.serve.client import ProtocolError, ServerGone, recv_line
from repro.serve.netchaos import (
    FAULT_KINDS,
    PHASES,
    FaultSchedule,
    NetChaosProxy,
    NetFault,
    default_matrix,
)


# ---------------------------------------------------------------------------
# An in-process line-echo peer standing in for the real server.
# ---------------------------------------------------------------------------


class EchoPeer:
    """Line-echo TCP server; ``burst`` extra lines follow each echo.

    The extra lines (sent after a short pause) are what lets a test
    reach the proxy's ``stream`` phase: the first echoed line completes
    downstream, so the *next* downstream bytes are stream-phase bytes.
    """

    def __init__(self, burst: int = 0, burst_delay: float = 0.05) -> None:
        self.burst = burst
        self.burst_delay = burst_delay
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.endpoint = self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._handle, args=(conn,), daemon=True
            ).start()

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(10.0)
        buffer = bytearray()
        try:
            while True:
                line = recv_line(conn, buffer)
                if not line:
                    return
                conn.sendall(b"echo:" + line)
                for index in range(self.burst):
                    time.sleep(self.burst_delay)
                    conn.sendall(f"burst:{index}\n".encode())
        except (ServerGone, OSError):
            return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "EchoPeer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _exchange(endpoint, payload=b"ping\n", timeout=5.0):
    """One request/response exchange, with ServeClient's EOF contract:
    a clean close before the response line is still ServerGone."""
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        sock.sendall(payload)
        line = recv_line(sock, bytearray())
    if not line:
        raise ServerGone("connection closed mid-request")
    return line


# ---------------------------------------------------------------------------
# Schedule and matrix: pure functions, pinned.
# ---------------------------------------------------------------------------


class TestFaultSchedule:
    def test_unknown_kind_and_phase_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            NetFault("gremlin")
        with pytest.raises(ValueError, match="phase"):
            NetFault("drop", phase="teardown")

    def test_window_arms_a_contiguous_range(self):
        fault = NetFault("drop", "request")
        schedule = FaultSchedule.window(fault, first=2, count=3)
        assert [schedule.fault_for(i) for i in (1, 5)] == [None, None]
        assert all(schedule.fault_for(i) is fault for i in (2, 3, 4))

    def test_loss_profile_is_deterministic_and_calibrated(self):
        schedule = FaultSchedule(seed=42, loss=0.3)
        draws = [schedule.fault_for(i) for i in range(1, 2001)]
        replay = [FaultSchedule(seed=42, loss=0.3).fault_for(i)
                  for i in range(1, 2001)]
        assert draws == replay
        hits = [fault for fault in draws if fault is not None]
        assert 0.2 < len(hits) / len(draws) < 0.4
        assert {f.kind for f in hits} <= set(FaultSchedule._LOSS_KINDS)
        assert {f.phase for f in hits} <= set(FaultSchedule._LOSS_PHASES)

    def test_jitter_profile_emits_bounded_connect_latency(self):
        schedule = FaultSchedule(seed=1, jitter=0.05)
        for index in range(1, 50):
            fault = schedule.fault_for(index)
            assert fault is not None and fault.kind == "latency"
            assert fault.phase == "connect"
            assert 0.0 <= fault.arg < 0.05

    def test_seed_changes_the_draw(self):
        a = [FaultSchedule(seed=0, loss=0.3).fault_for(i) for i in range(1, 200)]
        b = [FaultSchedule(seed=1, loss=0.3).fault_for(i) for i in range(1, 200)]
        assert a != b

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(loss=1.0)
        with pytest.raises(ValueError):
            FaultSchedule(jitter=-0.1)


class TestDefaultMatrix:
    def test_full_matrix_covers_every_killing_fault_times_phase(self):
        cells = default_matrix()
        assert len(cells) == 18  # 4 killing kinds x 4 phases + latency + partition
        labels = {cell.describe() for cell in cells}
        for kind in ("drop", "reset", "truncate", "loris"):
            for phase in PHASES:
                assert f"{kind}@{phase}" in labels
        assert "latency@connect" in labels
        assert "partition@connect" in labels

    def test_restricted_matrix(self):
        cells = default_matrix(faults=["drop"], phases=["request"])
        assert [cell.describe() for cell in cells] == ["drop@request"]

    def test_unknown_selectors_rejected(self):
        with pytest.raises(ValueError):
            default_matrix(faults=["gremlin"])
        with pytest.raises(ValueError):
            default_matrix(phases=["teardown"])


# ---------------------------------------------------------------------------
# The proxy itself, one fault signature at a time.
# ---------------------------------------------------------------------------


class TestProxyFaults:
    def test_passthrough_forwards_both_ways(self):
        with EchoPeer() as peer:
            with NetChaosProxy(*peer.endpoint) as proxy:
                assert _exchange(proxy.endpoint) == b"echo:ping\n"
                assert proxy.connections == 1
                assert proxy.injected == {}

    def test_latency_at_connect_delays_then_succeeds(self):
        fault = NetFault("latency", "connect", arg=0.2)
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                start = time.monotonic()
                assert _exchange(proxy.endpoint) == b"echo:ping\n"
                assert time.monotonic() - start >= 0.2
                assert proxy.injected["latency@connect"] == 1

    def test_drop_at_request_is_eof_mid_exchange(self):
        fault = NetFault("drop", "request")
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                with pytest.raises(ServerGone):
                    _exchange(proxy.endpoint)
                assert proxy.injected["drop@request"] == 1

    def test_reset_at_response_is_a_hard_error(self):
        fault = NetFault("reset", "response")
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                with pytest.raises((ServerGone, ConnectionError, OSError)):
                    _exchange(proxy.endpoint)
                assert proxy.injected["reset@response"] == 1

    def test_truncate_at_response_is_a_torn_frame(self):
        fault = NetFault("truncate", "response")
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                with pytest.raises(ServerGone, match="torn frame"):
                    _exchange(
                        proxy.endpoint, payload=b"a-reasonably-long-line\n"
                    )
                assert proxy.injected["truncate@response"] == 1

    def test_loris_at_response_dribbles_then_dies(self):
        fault = NetFault("loris", "response")
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                start = time.monotonic()
                with pytest.raises(ServerGone, match="torn frame"):
                    _exchange(proxy.endpoint, payload=b"slow-loris-target\n")
                # Dribble pacing: LORIS_BYTES pauses of LORIS_DELAY each.
                assert time.monotonic() - start >= (
                    NetChaosProxy.LORIS_DELAY * NetChaosProxy.LORIS_BYTES
                )
                assert proxy.injected["loris@response"] == 1

    def test_stream_phase_fires_only_after_a_complete_line(self):
        """The echo line completes downstream; the burst line after it
        is stream-phase bytes — a stream-armed fault must spare the
        first response and kill the burst."""
        fault = NetFault("drop", "stream")
        with EchoPeer(burst=2, burst_delay=0.1) as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault)
            ) as proxy:
                with socket.create_connection(
                    proxy.endpoint, timeout=5.0
                ) as sock:
                    sock.sendall(b"ping\n")
                    buffer = bytearray()
                    assert recv_line(sock, buffer) == b"echo:ping\n"
                    with pytest.raises(ServerGone):
                        while True:
                            if not recv_line(sock, buffer):
                                raise ServerGone("eof")
                assert proxy.injected["drop@stream"] == 1

    def test_partition_refuses_then_heals(self):
        fault = NetFault("partition", "connect", arg=0.5)
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault, count=1)
            ) as proxy:
                # Trigger: the first connection is RST'd and starts the
                # partition window.
                with pytest.raises((ServerGone, ConnectionError, OSError)):
                    _exchange(proxy.endpoint, timeout=2.0)
                # Inside the window every connection is refused.
                with pytest.raises((ServerGone, ConnectionError, OSError)):
                    _exchange(proxy.endpoint, timeout=2.0)
                assert proxy.injected["partition.refused"] >= 1
                # After the heal the path works again.
                time.sleep(0.6)
                assert _exchange(proxy.endpoint) == b"echo:ping\n"
                assert proxy.injected["partition@connect"] == 1

    def test_fault_fires_once_per_window_entry(self):
        """Each armed connection trips its fault once; connections past
        the window pass clean."""
        fault = NetFault("drop", "request")
        with EchoPeer() as peer:
            with NetChaosProxy(
                *peer.endpoint, schedule=FaultSchedule.window(fault, count=2)
            ) as proxy:
                for _ in range(2):
                    with pytest.raises(ServerGone):
                        _exchange(proxy.endpoint)
                assert _exchange(proxy.endpoint) == b"echo:ping\n"
                assert proxy.injected["drop@request"] == 2
                assert proxy.connections == 3

    def test_proxy_stop_kills_live_connections(self):
        with EchoPeer() as peer:
            proxy = NetChaosProxy(*peer.endpoint).start()
            sock = socket.create_connection(proxy.endpoint, timeout=5.0)
            sock.settimeout(5.0)
            sock.sendall(b"ping\n")
            assert recv_line(sock, bytearray()) == b"echo:ping\n"
            proxy.stop()
            with pytest.raises((ServerGone, ProtocolError, OSError)):
                sock.sendall(b"again\n")
                if not recv_line(sock, bytearray()):
                    raise ServerGone("eof")
            sock.close()


# ---------------------------------------------------------------------------
# The sweep harness end to end, against a real server.
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestSweepSmoke:
    def test_one_cell_against_a_live_server(self, tmp_path):
        """Baseline + one drop@request cell: the full PR 6 contract —
        none lost, none twice, byte-identical stores, resubmission
        answered from dedupe — under an adversarial wire."""
        battery = [
            {"kind": "probe", "work": 60, "value": "net-smoke-0"},
            {"kind": "probe", "work": 61, "value": "net-smoke-1"},
        ]
        sweep = chaos_sweep(
            NetTarget(battery, faults=["drop"], phases=["request"],
                      timeout=90.0),
            workdir=str(tmp_path),
        )
        assert sweep.error == ""
        assert len(sweep.baseline[0].records) == 2
        assert len(sweep.results) == 1
        result = sweep.results[0]
        assert result.ok, sweep.describe()
        assert result.counts["injected"] >= 1
        assert result.counts["reconnects"] >= 1


@pytest.mark.chaos
class TestFullNetChaosMatrix:
    def test_every_fault_class_and_phase(self, tmp_path):
        """The acceptance sweep: all 18 cells of `repro chaos --net`."""
        sweep = chaos_sweep(NetTarget(timeout=180.0), workdir=str(tmp_path))
        assert sweep.ok, sweep.describe()
        assert len(sweep.results) == 18
        killing = [r for r in sweep.results if r.cell[0] != "latency"]
        assert all(r.counts["injected"] >= 1 for r in killing), (
            sweep.describe()
        )
