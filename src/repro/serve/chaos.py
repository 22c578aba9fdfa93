"""``repro chaos --serve`` / ``--net``: the job server as a sweep target.

Two targets for :func:`repro.resilience.chaos.chaos_sweep`, sharing one
server lifecycle (spawn, readiness wait, SIGTERM drain), one battery
driver and one store/ledger contract check:

* :class:`ServerTarget` kills the server at a durability crashpoint.  A
  cycle runs the armed incarnation until it dies mid-battery, restarts
  it unarmed, resubmits the full battery (deduped against whatever
  survived) and drains.  Crashpoints inside the *recovery* path
  (``serve.recover.*``) cannot be reached by killing a fresh server, so
  the census additionally traces a restart after a staged
  ``serve.complete.gap`` kill, and cycles for those points arm the
  restart instead of the first incarnation.
* :class:`NetTarget` leaves the disk alone and attacks the wire: per
  (fault kind, phase) cell of :func:`~repro.serve.netchaos.default_matrix`
  it puts a :class:`~repro.serve.netchaos.NetChaosProxy` armed with that
  fault in front of a fresh server, drives the battery through a
  reconnecting client, resubmits it to prove dedupe answers without
  re-execution (the ``stored`` counter stays at the baseline's), and
  drains.

After every cycle the state directory must satisfy
:func:`check_contract` against the uninterrupted baseline's: none lost
(baseline or acknowledged), none stored twice, byte-identical payloads,
no unexpected record, at most one ``done:`` ledger record per
fingerprint and no lost completion.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from repro.resilience.chaos import (
    ENV_SPECS,
    ENV_TRACE,
    MODE_EXIT,
    MODE_KILL,
    PYTHON,
    BaselineFailed,
    ChaosResult,
    died,
    read_trace,
    staged_result,
    sweep_env,
)
from repro.resilience.frames import read_frames
from repro.resilience.journal import KIND_UNIT
from repro.resilience.journal import MAGIC as JOURNAL_MAGIC
from repro.resilience.retry import Deadline, RetryPolicy
from repro.serve.client import (
    ResilientClient,
    ServeClient,
    ServerGone,
    read_endpoint,
)
from repro.serve.netchaos import (
    FAULT_PARTITION,
    FaultSchedule,
    NetChaosProxy,
    default_matrix,
)
from repro.serve.server import ENDPOINT_NAME, LEDGER_NAME, STORE_NAME
from repro.serve.store import MAGIC as STORE_MAGIC

__all__ = [
    "NetTarget",
    "ServerTarget",
    "StoreSnapshot",
    "check_contract",
    "default_battery",
    "ledger_done_counts",
]

#: Points that only execute while a restart is repairing a previous
#: incarnation's ledger; sweep cycles for them arm the restart.
RECOVERY_PREFIX = "serve.recover."

#: The staged first-incarnation kill used to make recovery points
#: reachable (one verdict stored, its completion record missing).
STAGING_SPEC = "serve.complete.gap:1:kill"

#: Connections a network fault stays armed on, so it reaches a
#: connection that actually enters its phase (a submit connection never
#: reaches ``stream``).
FAULT_WINDOW = 6


def default_battery(jobs: int = 5) -> list[dict]:
    """A deterministic mixed battery: one real sweep plus fast probes."""
    battery: list[dict] = [
        {"kind": "refute", "protocol": "quorum", "model": "s1-mobile", "n": 3}
    ]
    for index in range(max(0, jobs - 1)):
        battery.append(
            {"kind": "probe", "work": 40 + index, "value": f"battery-{index}"}
        )
    return battery


# -- the store/ledger contract ------------------------------------------------


def ledger_done_counts(dirpath: str) -> Counter:
    """How many raw ``done:`` completion records each fingerprint has."""
    path = os.path.join(dirpath, LEDGER_NAME)
    counts: Counter = Counter()
    if not os.path.exists(path):
        return counts
    payloads, _torn, _size = read_frames(path, JOURNAL_MAGIC)
    for payload in payloads:
        kind, data = pickle.loads(payload)
        if kind == KIND_UNIT and data[0].startswith("done:"):
            counts[data[0][len("done:") :]] += 1
    return counts


@dataclass(frozen=True)
class StoreSnapshot:
    """A server state directory as the contract sees it.

    *records* maps each fingerprint to its raw store payloads (a list,
    so duplicates show); *done* counts raw ledger completion records.
    """

    records: dict
    done: Counter

    @classmethod
    def read(cls, dirpath: str) -> "StoreSnapshot":
        """Read the store and ledger under *dirpath*."""
        records: dict[str, list[bytes]] = {}
        path = os.path.join(dirpath, STORE_NAME)
        if os.path.exists(path):
            payloads, _torn, _size = read_frames(path, STORE_MAGIC)
            for payload in payloads:
                fingerprint = json.loads(payload)["fingerprint"]
                records.setdefault(fingerprint, []).append(payload)
        return cls(records, ledger_done_counts(dirpath))


def check_contract(
    state: StoreSnapshot, baseline: StoreSnapshot, acknowledged=()
) -> tuple[bool, str]:
    """The durability contract of a recovered server against its baseline.

    Returns ``(held, problems)``: no baseline or *acknowledged* job lost,
    none stored twice, every payload byte-identical to the baseline's,
    no record the baseline lacks, at most one ``done:`` record per
    fingerprint, and every baseline completion still in the ledger.
    """
    problems = []
    for fingerprint, payloads in state.records.items():
        if len(payloads) > 1:
            problems.append(f"{fingerprint[:12]} stored {len(payloads)}x")
        if fingerprint not in baseline.records:
            problems.append(f"unexpected record {fingerprint[:12]}")
    for fingerprint in acknowledged:
        if fingerprint not in state.records:
            problems.append(f"acknowledged {fingerprint[:12]} lost")
    for fingerprint, expected in baseline.records.items():
        got = state.records.get(fingerprint)
        if got is None:
            problems.append(f"baseline {fingerprint[:12]} lost")
        elif got[0] != expected[0]:
            problems.append(f"baseline {fingerprint[:12]} bytes diverged")
    for fingerprint, count in state.done.items():
        if count > 1:
            problems.append(
                f"{fingerprint[:12]} completed {count}x in the ledger"
            )
    for fingerprint in baseline.done:
        if fingerprint not in state.done:
            problems.append(f"ledger lost completion {fingerprint[:12]}")
    return (not problems, "; ".join(problems))


# -- one server incarnation ---------------------------------------------------


@dataclass
class _Server:
    endpoint: Optional[tuple[str, int]] = None
    returncode: Optional[int] = None


@contextmanager
def _server(dirpath: str, timeout: float, env: Optional[dict] = None,
            extra_args: tuple = ()):
    """A ``repro serve`` subprocess on *dirpath*, drained on exit.

    Yields a handle whose ``endpoint`` is None when the process died
    before answering a ping (an armed incarnation can die inside
    recovery, before it ever binds); on exit the server gets SIGTERM
    unless already dead, and ``returncode`` is its exit status (None
    when it had to be killed after not stopping within *timeout*).
    """
    os.makedirs(dirpath, exist_ok=True)
    # A stale endpoint file would make the readiness wait ping a dead
    # incarnation's port; the new server rewrites it after binding.
    try:
        os.unlink(os.path.join(dirpath, ENDPOINT_NAME))
    except OSError:
        pass
    proc = subprocess.Popen(
        [
            PYTHON, "-m", "repro", "serve",
            "--dir", dirpath,
            "--port", "0",
            "--queue-limit", "32",
            "--concurrency", "1",
            "--job-timeout", str(timeout),
            "--drain-grace", str(timeout),
            "--no-isolation",
            *extra_args,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=sweep_env(env),
    )
    server = _Server()
    try:
        server.endpoint = _wait_ready(dirpath, proc, timeout)
        yield server
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            server.returncode = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass
    finally:
        # Never leave a server orphaned — not on timeout, not on Ctrl-C.
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _wait_ready(
    dirpath: str, proc: subprocess.Popen, timeout: float
) -> Optional[tuple[str, int]]:
    """Wait until the server answers a ping — or is observed dead."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        endpoint = read_endpoint(dirpath)
        if endpoint is not None:
            try:
                ServeClient(*endpoint, timeout=1.0).ping()
                return endpoint
            except ServerGone:
                pass
        if proc.poll() is not None:
            return None
        time.sleep(0.02)
    return None


def _drive_battery(
    endpoint: Optional[tuple[str, int]],
    battery: list[dict],
    timeout: float,
    retry_seed: Optional[int] = None,
) -> tuple[list[dict], int, Optional[str]]:
    """Run every job to a final verdict through *endpoint*.

    Without *retry_seed* the first dead connection ends the battery —
    that is how an armed server's death is observed; with it a
    :class:`ResilientClient` reconnects through faults on a backoff
    seeded by it.  Returns ``(final responses, reconnects, failure)``,
    *failure* saying why the battery stopped short (None when it did
    not).
    """
    if endpoint is None:
        return [], 0, "server died before answering"
    client: ServeClient | ResilientClient
    if retry_seed is None:
        client = ServeClient(*endpoint, timeout=timeout)
    else:
        retry = RetryPolicy(
            max_retries=12, base_delay=0.05, multiplier=1.7, jitter=0.5,
            seed=retry_seed,
        )
        client = ResilientClient(*endpoint, timeout=10.0, retry=retry)
    finals: list[dict] = []
    failure = None
    for job in battery:
        try:
            if isinstance(client, ResilientClient):
                final = client.run(job, deadline=Deadline.after(timeout))
            else:
                final = client.submit(job, wait=True)
        except (OSError, RuntimeError, ValueError, KeyError) as exc:
            # ServerGone is ConnectionError, ProtocolError is
            # RuntimeError; Value/KeyError cover malformed frames.
            failure = f"{type(exc).__name__}: {exc}"
            break
        if final.get("status") != "done":
            failure = f"unexpected response {final!r}"
            break
        finals.append(final)
    reconnects = getattr(client, "reconnects", 0)
    return finals, reconnects, failure


# -- the two targets ----------------------------------------------------------


class ServerTarget:
    """Kill the job server at every reachable durability crashpoint.

    Only process-death modes apply (``kill``, ``exit``): the contract is
    about what a dead server's disk state recovers to.  The server runs
    without pool process isolation so cycles stay fast and hit counts
    deterministic.
    """

    CHECKS = ("killed", "recovered", "consistent")
    columns = ("crashpoint", "hit", "mode", *CHECKS)
    modes = (MODE_KILL, MODE_EXIT)
    cells = None
    title = "`repro serve`"
    contract = "none lost, none duplicated, stored verdicts byte-identical"

    def __init__(
        self, battery: Optional[list[dict]] = None, timeout: float = 60.0
    ) -> None:
        self.battery = default_battery() if battery is None else battery
        self.timeout = timeout

    def _incarnation(
        self, dirpath: str, spec: str = "", trace: str = ""
    ) -> tuple[list[str], Optional[str], Optional[int]]:
        """One server life: ``(acknowledged ids, death, returncode)``."""
        env = {ENV_SPECS: spec, ENV_TRACE: trace}
        with _server(dirpath, self.timeout, env) as server:
            finals, _, death = _drive_battery(
                server.endpoint, self.battery, self.timeout
            )
        return [final["id"] for final in finals], death, server.returncode

    def baseline(self, dirpath: str) -> StoreSnapshot:
        """The state directory of one uninterrupted cycle."""
        acks, death, returncode = self._incarnation(dirpath)
        if death is not None or len(acks) != len(self.battery):
            raise BaselineFailed(
                f"baseline server cycle failed ({death or 'short battery'}; "
                f"exit {returncode})"
            )
        return StoreSnapshot.read(dirpath)

    def census(self, dirpath: str) -> Counter:
        """Hit counts of a traced cycle plus a traced staged recovery."""
        trace = os.path.join(dirpath, "trace.txt")
        self._incarnation(os.path.join(dirpath, "fresh"), trace=trace)
        recover_dir = os.path.join(dirpath, "recover")
        recover_trace = os.path.join(dirpath, "trace-recover.txt")
        self._incarnation(recover_dir, spec=STAGING_SPEC)
        self._incarnation(recover_dir, trace=recover_trace)
        reachable = read_trace(trace)
        for point, count in read_trace(recover_trace).items():
            if point.startswith(RECOVERY_PREFIX):
                reachable[point] = max(reachable[point], count)
        return reachable

    def cycle(
        self, dirpath: str, cell: tuple, baseline: StoreSnapshot
    ) -> ChaosResult:
        """Die at *cell*, restart unarmed, finish the battery, check."""
        point, hit, mode = cell
        spec = f"{point}:{hit}:{mode}"
        staged = point.startswith(RECOVERY_PREFIX)
        # For recovery points, stage a store/ledger gap first, then arm
        # the restart that repairs it.
        acked, death, returncode = self._incarnation(
            dirpath, spec=STAGING_SPEC if staged else spec
        )
        if staged:
            more, death, returncode = self._incarnation(dirpath, spec=spec)
            acked += more
        if not died(returncode, mode):
            return staged_result(
                cell, self.CHECKS, 0,
                f"expected the server to die at {spec}, got exit "
                f"{returncode} (death={death!r})",
            )
        more, death, returncode = self._incarnation(dirpath)
        acked += more
        if death is not None or len(more) != len(self.battery):
            return staged_result(
                cell, self.CHECKS, 1,
                f"restart failed to complete the battery "
                f"({death or 'short battery'}; exit {returncode})",
            )
        held, detail = check_contract(
            StoreSnapshot.read(dirpath), baseline, acked
        )
        return staged_result(cell, self.CHECKS, 2 + held, detail)


@dataclass
class _Proxied:
    """What one server-behind-a-proxy cycle observed."""

    injected: Counter
    stored: int = -1
    reconnects: int = 0
    error: str = ""


class NetTarget:
    """Drive the server through a fault-injecting proxy, cell by cell.

    *faults* and *phases* restrict :func:`default_matrix`; *seed* seeds
    the client's reconnect backoff.  The baseline is a clean-network
    cycle through a passthrough proxy with the same streaming client.
    """

    columns = ("fault", "phase", "completed", "consistent", "deduped",
               "injected", "reconnects")
    modes = ()
    title = "`repro serve` behind a fault-injecting proxy"
    contract = (
        "none lost, none duplicated, stores byte-identical, "
        "resubmission deduped"
    )

    def __init__(
        self,
        battery: Optional[list[dict]] = None,
        faults: Optional[list[str]] = None,
        phases: Optional[list[str]] = None,
        seed: int = 0,
        timeout: float = 120.0,
    ) -> None:
        self.battery = default_battery() if battery is None else battery
        self.faults = {
            (fault.kind, fault.phase): fault
            for fault in default_matrix(faults=faults, phases=phases)
        }
        self.cells = list(self.faults)
        self.seed = seed
        self.timeout = timeout

    def _proxied(self, dirpath: str, schedule: FaultSchedule) -> _Proxied:
        """Boot a server behind a proxy armed with *schedule*; drive and
        resubmit the battery through it (dedupe must answer under fire),
        read ``stats`` directly from the server, drain."""
        outcome = _Proxied(Counter())
        with _server(
            dirpath, self.timeout, extra_args=("--heartbeat-interval", "0.5")
        ) as server:
            if server.endpoint is None:
                outcome.error = "server never became ready"
                return outcome
            with NetChaosProxy(*server.endpoint, schedule=schedule) as proxy:
                finals, outcome.reconnects, failure = _drive_battery(
                    proxy.endpoint, self.battery, self.timeout, self.seed
                )
                if failure is None:
                    again, more, failure = _drive_battery(
                        proxy.endpoint, self.battery, self.timeout,
                        self.seed + 1,
                    )
                    outcome.reconnects += more
                    verdicts = [final.get("result") for final in finals]
                    if failure is None and verdicts != [
                        final.get("result") for final in again
                    ]:
                        failure = "resubmitted verdict differs"
                outcome.error = failure or ""
                outcome.injected = Counter(proxy.injected)
            if not outcome.error:
                direct = ResilientClient(*server.endpoint, timeout=10.0)
                try:
                    stats = direct.stats(deadline=Deadline.after(20.0))
                    outcome.stored = int(stats["counters"]["stored"])
                except (OSError, RuntimeError, ValueError, KeyError) as exc:
                    outcome.error = f"stats read failed: {exc}"
        if server.returncode is None and not outcome.error:
            outcome.error = "server did not stop on SIGTERM"
        return outcome

    def baseline(self, dirpath: str) -> tuple[StoreSnapshot, int]:
        """The clean-network store and its ``stored`` counter."""
        outcome = self._proxied(dirpath, FaultSchedule())
        snapshot = StoreSnapshot.read(dirpath)
        if outcome.error or not snapshot.records:
            raise BaselineFailed(
                f"clean baseline failed: {outcome.error or 'empty store'}"
            )
        return snapshot, outcome.stored

    def cycle(
        self, dirpath: str, cell: tuple, baseline: tuple[StoreSnapshot, int]
    ) -> ChaosResult:
        """Run the battery under *cell*'s fault, then check the store."""
        base, base_stored = baseline
        fault = self.faults[cell]
        # One partition trigger is a whole fault window by itself (the
        # timed heal governs later connections); re-arming it on every
        # early connection would chain partitions end to end and starve
        # the client's retry budget.
        count = 1 if fault.kind == FAULT_PARTITION else FAULT_WINDOW
        outcome = self._proxied(
            dirpath, FaultSchedule.window(fault, count=count)
        )
        consistent, detail = check_contract(StoreSnapshot.read(dirpath), base)
        deduped = not outcome.error and outcome.stored == base_stored
        if not deduped and not outcome.error:
            detail = (f"{detail}; " if detail else "") + (
                f"stored={outcome.stored} != baseline {base_stored}"
            )
        injected = sum(
            n for key, n in outcome.injected.items()
            if key.startswith(fault.kind) or key.startswith("partition")
        )
        return ChaosResult(
            cell,
            {"completed": not outcome.error, "consistent": consistent,
             "deduped": deduped},
            outcome.error or detail,
            {"injected": injected, "reconnects": outcome.reconnects},
        )
