"""Deterministic crashpoint injection and the chaos sweep driver.

The paper's verdicts are machine-checked against adversaries that may
strike between any two steps; this module points the same adversary at
our *own* recovery machinery.  Named **crashpoints** are compiled into
the engine's durability-critical seams — journal append/compaction,
verdict-store append/compaction, pool dispatch/merge, campaign unit
boundaries, budget trips — and a harness re-runs a whole campaign
killing the process (or raising, or stalling) at each reachable
crashpoint, then resumes from disk and asserts the final verdicts are
**byte-identical** to an uninterrupted run.

Instrumentation contract
------------------------

Engine code calls :func:`crashpoint` with a stable dotted name::

    crashpoint("journal.compact.rename.pre")

When chaos is not armed this is a single attribute load and a falsy
check — cheap enough for durability seams (crashpoints are deliberately
*not* placed in per-state hot loops; per-unit and per-record granularity
is what recovery operates on).

Arming
------

Three ways, composable:

* **Environment** (crosses process boundaries — the harness and CI use
  this): ``REPRO_CRASHPOINTS`` holds ``;``-separated specs
  ``name:hit:mode[:arg]``, e.g. ``journal.append.mid:3:kill`` = on the
  3rd hit of that point, die by SIGKILL.  Modes: ``kill`` (SIGKILL
  yourself — a real ``kill -9``, no cleanup handlers run), ``exit``
  (``os._exit(137)``), ``raise`` (raise :class:`ChaosInjected`),
  ``stall:SECONDS`` (sleep; pairs with SIGTERM tests and stall
  detection).  ``REPRO_CRASHPOINT_TRACE`` names a file to which every
  hit appends one ``name`` line — the harness enumerates reachable
  crashpoints from such a trace.
* **In process** (unit tests): :func:`active_plan` is a context manager
  arming a spec for the current process only.
* **Scope**: by default specs fire only in the *main* process
  (``REPRO_CRASHPOINT_SCOPE=main``) — pool worker processes inherit the
  environment but must not die at engine crashpoints, or a sweep's
  retries would re-kill the re-dispatched unit forever and quarantine
  it, changing verdicts.  Killing the driver exercises resume; killing
  workers is the pool's own (already tested) fault model.  Tests that
  *want* worker deaths set ``REPRO_CRASHPOINT_SCOPE=all``.

Hit counting is per-process and per-name, so a schedule is a pure
function of the (deterministic) execution.

The sweep driver
----------------

:func:`chaos_sweep` is the one driver behind every ``repro chaos``
sweep.  It establishes a **baseline** (an uninterrupted run), enumerates
**cells** — seeded ``(point, hit, mode)`` picks from a traced census of
reachable crashpoints, or a fixed fault matrix — and runs one **strike →
recover → check** cycle per cell.  What a cycle strikes and checks is
the *target*'s business:

* :class:`CampaignTarget` (here) kills a checkpointed CLI campaign and
  requires the resumed stdout byte-identical to the baseline's;
* :mod:`repro.serve.chaos` kills the job server at its durability seams,
  or puts a fault-injecting proxy in front of it, and checks the
  store/ledger contract against the baseline's state directory.

Hit selection is capped by ``max_hits_per_point`` with a **seeded**
deterministic sample (first, last, and seeded picks in between), so two
sweeps over the same build test the same schedule.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from repro.exitcodes import EXIT_CHAOS_KILLED

__all__ = [
    "BaselineFailed",
    "CampaignTarget",
    "ChaosInjected",
    "ChaosResult",
    "ChaosSweep",
    "CrashSpec",
    "active_plan",
    "chaos_sweep",
    "crashpoint",
    "is_armed",
    "parse_specs",
]

ENV_SPECS = "REPRO_CRASHPOINTS"
ENV_TRACE = "REPRO_CRASHPOINT_TRACE"
ENV_SCOPE = "REPRO_CRASHPOINT_SCOPE"

MODE_KILL = "kill"
MODE_EXIT = "exit"
MODE_RAISE = "raise"
MODE_STALL = "stall"
_MODES = (MODE_KILL, MODE_EXIT, MODE_RAISE, MODE_STALL)

#: The exit status ``os._exit`` uses for mode ``exit`` (mirrors the
#: 128+SIGKILL convention so harnesses treat both deaths alike; the
#: value is shared with the CLI via :mod:`repro.exitcodes`).
EXIT_STATUS = EXIT_CHAOS_KILLED


class ChaosInjected(RuntimeError):
    """Raised by a crashpoint armed in ``raise`` mode."""


@dataclass(frozen=True)
class CrashSpec:
    """One armed crashpoint: fire at the Nth hit of a named point."""

    point: str
    hit: int
    mode: str
    arg: float = 0.0

    def describe(self) -> str:
        suffix = f":{self.arg:g}" if self.mode == MODE_STALL else ""
        return f"{self.point}:{self.hit}:{self.mode}{suffix}"


def parse_specs(raw: str) -> tuple[CrashSpec, ...]:
    """Parse a ``;``-separated ``name:hit:mode[:arg]`` spec string."""
    specs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"bad crashpoint spec {chunk!r}: want name:hit:mode[:arg]"
            )
        point, hit, mode = parts[0], parts[1], parts[2]
        if mode not in _MODES:
            raise ValueError(
                f"bad crashpoint mode {mode!r} in {chunk!r}: "
                f"choose from {_MODES}"
            )
        arg = float(parts[3]) if len(parts) == 4 else 0.0
        specs.append(CrashSpec(point, int(hit), mode, arg))
    return tuple(specs)


class _ChaosState:
    """Per-process chaos configuration and hit counters."""

    __slots__ = ("specs", "trace_path", "scope", "hits", "fired")

    def __init__(
        self,
        specs: tuple[CrashSpec, ...],
        trace_path: Optional[str],
        scope: str,
    ) -> None:
        self.specs = specs
        self.trace_path = trace_path
        self.scope = scope
        self.hits: Counter = Counter()
        self.fired: list[CrashSpec] = []

    def in_scope(self) -> bool:
        if self.scope == "all":
            return True
        # "main": fire only in the driver process.  Pool workers (and any
        # other multiprocessing children) inherit the environment but
        # must not die at engine crashpoints — their deaths are the
        # pool's fault model, not the resume path's.
        import multiprocessing

        return multiprocessing.parent_process() is None


#: The active per-process state; None means chaos is fully disarmed and
#: :func:`crashpoint` is a single falsy check.
_state: Optional[_ChaosState] = None


def _state_from_env() -> Optional[_ChaosState]:
    raw = os.environ.get(ENV_SPECS, "")
    trace = os.environ.get(ENV_TRACE) or None
    if not raw and not trace:
        return None
    return _ChaosState(
        parse_specs(raw), trace, os.environ.get(ENV_SCOPE, "main")
    )


_state = _state_from_env()


def is_armed() -> bool:
    """Whether any chaos configuration is active in this process."""
    return _state is not None


def rearm_from_env() -> None:
    """Re-read the chaos environment (tests mutate ``os.environ``)."""
    global _state
    _state = _state_from_env()


def crashpoint(name: str) -> None:
    """Declare a named crashpoint; no-op unless chaos is armed.

    When armed *and* in scope: count the hit, append to the trace file
    if tracing, and fire any spec whose (point, hit) matches.
    """
    state = _state
    if state is None:
        return
    if not state.in_scope():
        return
    state.hits[name] += 1
    count = state.hits[name]
    if state.trace_path is not None:
        _trace(state.trace_path, name)
    for spec in state.specs:
        if spec.point == name and spec.hit == count:
            _fire(state, spec)


def _trace(path: str, name: str) -> None:
    # O_APPEND with one small write per hit: concurrent writers (pool
    # supervisor vs. anything else armed) interleave whole lines.
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    except OSError:
        return
    try:
        os.write(fd, f"{name}\n".encode())
    finally:
        os.close(fd)


def _fire(state: _ChaosState, spec: CrashSpec) -> None:
    state.fired.append(spec)
    if spec.mode == MODE_KILL:
        # A genuine kill -9: no atexit, no finally blocks, no flushing.
        os.kill(os.getpid(), signal.SIGKILL)
        # Unreachable except on exotic platforms; fall through to _exit.
        os._exit(EXIT_STATUS)
    if spec.mode == MODE_EXIT:
        os._exit(EXIT_STATUS)
    if spec.mode == MODE_RAISE:
        raise ChaosInjected(f"chaos raised at crashpoint {spec.point!r}")
    if spec.mode == MODE_STALL:
        time.sleep(spec.arg if spec.arg > 0 else 3600.0)


@contextmanager
def active_plan(
    raw: str, trace_path: Optional[str] = None, scope: str = "main"
):
    """Arm a crashpoint spec for the current process only.

    Yields the mutable state so tests can inspect ``hits`` / ``fired``.
    Restores the previous (usually disarmed) configuration on exit.
    """
    global _state
    previous = _state
    state = _ChaosState(parse_specs(raw), trace_path, scope)
    _state = state
    try:
        yield state
    finally:
        _state = previous


# -- the chaos sweep driver ---------------------------------------------------

#: The interpreter every sweep subprocess runs under.
PYTHON = sys.executable

#: Unarmed resume attempts before a campaign cycle's recovery is declared
#: stuck (one hop normally completes; more tolerate campaigns that
#: legitimately stop early, e.g. budget-limited ones).
MAX_RESUME_HOPS = 8


class BaselineFailed(RuntimeError):
    """A target could not establish its uninterrupted baseline."""


@dataclass(frozen=True)
class ChaosResult:
    """One cell's strike → recover → check verdict.

    *cell* is the target's cell key — ``(point, hit, mode)`` for
    crashpoint targets, ``(fault, phase)`` for the network matrix;
    *checks* maps each of the target's check names to whether it held,
    and *counts* carries per-cycle observations (fault firings,
    reconnects) that inform but do not decide the verdict.
    """

    cell: tuple
    checks: dict
    detail: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def row(self) -> list:
        """The cycle as one table row, in the target's column order."""
        return [*self.cell, *self.checks.values(), *self.counts.values(),
                self.detail]


def staged_result(
    cell: tuple, checks: tuple, passed: int, detail: str = ""
) -> ChaosResult:
    """A result for sequential *checks* of which the first *passed* held."""
    return ChaosResult(
        cell, {name: i < passed for i, name in enumerate(checks)}, detail
    )


@dataclass
class ChaosSweep:
    """Everything one :func:`chaos_sweep` run produced.

    *baseline* is whatever the target's uninterrupted run fixed as the
    expected outcome; *error* is set (and no cycle ran) when that
    baseline could not be established.
    """

    baseline: object = None
    reachable: dict = field(default_factory=dict)
    results: list = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return (
            not self.error
            and bool(self.results)
            and all(r.ok for r in self.results)
        )

    def describe(self) -> str:
        """Cycle counts, then the baseline error and each failed cycle."""
        good = sum(1 for r in self.results if r.ok)
        census = (
            f"{len(self.reachable)} reachable crashpoints, "
            if self.reachable else ""
        )
        lines = [f"{census}{len(self.results)} cycles, {good} ok"]
        if self.error:
            lines.append(f"baseline failed: {self.error}")
        lines.extend(
            f"FAIL {':'.join(map(str, r.cell))}: {r.detail}"
            for r in self.results
            if not r.ok
        )
        return "\n".join(lines)


def chaos_sweep(
    target,
    workdir: Optional[str] = None,
    modes: tuple = (MODE_KILL,),
    max_hits_per_point: int = 3,
    points: Optional[list] = None,
    seed: int = 0,
    on_result=None,
) -> ChaosSweep:
    """Run *target* through baseline, census, then strike → recover →
    check once per cell.

    A target supplies ``baseline(dirpath)`` (the uninterrupted run; raise
    :class:`BaselineFailed` when it cannot be had), ``cycle(dirpath,
    cell, baseline)`` (one armed strike, its recovery and the check,
    as a :class:`ChaosResult`), and either a fixed ``cells`` list (the
    fault matrix) or ``cells = None`` plus ``census(dirpath)`` — the
    reachable crashpoint hit counts, from which the driver selects
    ``(point, hit, mode)`` cells.  Crashpoint targets list the fault
    ``modes`` they support.  Every call gets a fresh directory.

    Args:
        target: :class:`CampaignTarget`, or a server target from
            :mod:`repro.serve.chaos`.
        workdir: parent directory for this sweep's files (a fresh
            subdirectory is made in it and kept); a temporary directory
            when None.
        modes: fault modes injected per selected crashpoint hit.
        max_hits_per_point: cap on hit positions per crashpoint (seeded
            selection, first and last hit first); at least 1.
        points: restrict to these crashpoint names (None = all reachable).
        seed: hit-selection seed.
        on_result: optional callback fired with each result as it lands.
    """
    if max_hits_per_point < 1:
        raise ValueError(
            f"max hits per point must be >= 1, not {max_hits_per_point}"
        )
    if target.cells is None:
        unsupported = [m for m in modes if m not in target.modes]
        if unsupported or not modes:
            raise ValueError(
                f"this target supports {'/'.join(target.modes)} modes, "
                f"not {','.join(unsupported) or 'none'}"
            )
    with _sweep_root(workdir) as root:
        sweep = ChaosSweep()
        try:
            sweep.baseline = target.baseline(_fresh(root, "baseline"))
        except BaselineFailed as exc:
            sweep.error = str(exc)
            return sweep
        cells = target.cells
        if cells is None:
            reachable = target.census(_fresh(root, "census"))
            sweep.reachable = dict(sorted(reachable.items()))
            cells = [
                (point, hit, mode)
                for point, count in sweep.reachable.items()
                if points is None or point in points
                for hit in _select_hits(count, max_hits_per_point, point, seed)
                for mode in modes
            ]
        for cell in cells:
            name = "cycle-" + ".".join(map(str, cell)).replace("/", "_")
            result = target.cycle(_fresh(root, name), cell, sweep.baseline)
            sweep.results.append(result)
            if on_result is not None:
                on_result(result)
        return sweep


@contextmanager
def _sweep_root(workdir: Optional[str]):
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
            yield root
    else:
        os.makedirs(workdir, exist_ok=True)
        yield tempfile.mkdtemp(prefix="chaos-", dir=workdir)


def _fresh(root: str, name: str) -> str:
    path = os.path.join(root, name)
    os.makedirs(path)
    return path


def _select_hits(count: int, max_hits: int, point: str, seed: int) -> list:
    """Deterministically choose at most *max_hits* hit indices of a point.

    The first hit always, then (when distinct) the last; interior picks
    are seeded by (seed, point) so sweeps are reproducible.
    """
    if max_hits < 1:
        raise ValueError(f"max_hits must be >= 1, not {max_hits}")
    if count <= max_hits:
        return list(range(1, count + 1))
    picks = {1, count} if max_hits > 1 else {1}
    index = 0
    while len(picks) < max_hits:
        token = f"{seed}:{point}:{index}".encode()
        h = int.from_bytes(hashlib.sha256(token).digest()[:8], "big")
        picks.add(2 + h % (count - 2))
        index += 1
    return sorted(picks)


def read_trace(path: str) -> Counter:
    """Hit counts per crashpoint name from a ``REPRO_CRASHPOINT_TRACE`` file."""
    reachable: Counter = Counter()
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    reachable[line] += 1
    return reachable


def sweep_env(extra: Optional[dict] = None) -> dict:
    """The environment of a sweep subprocess: chaos disarmed unless
    *extra* arms it, and this checkout's ``src`` importable."""
    env = dict(os.environ)
    env.update({ENV_SPECS: "", ENV_TRACE: "", ENV_SCOPE: ""})
    env.update(extra or {})
    src = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def died(returncode: Optional[int], mode: str) -> bool:
    """Whether *returncode* is the death a *mode* crashpoint causes."""
    if mode == MODE_KILL:
        return returncode == -signal.SIGKILL
    if mode == MODE_EXIT:
        return returncode == EXIT_STATUS
    return returncode != 0  # raise: any abnormal exit is the injection


class CampaignTarget:
    """A checkpointed CLI campaign: kill it, resume it, diff its stdout.

    *argv* is the ``repro`` subcommand argv *without* checkpoint flags,
    e.g. ``["impossibility", "--protocol", "quorum", "--n", "3"]``; the
    target appends ``--checkpoint``/``--resume`` itself.  A cycle runs
    the campaign with one crashpoint armed, observes the death, then
    resumes (or restarts, when the death predates any checkpoint bytes)
    until the baseline exit code comes back, and requires stdout
    byte-identical to the baseline's.
    """

    CHECKS = ("killed", "resumed", "identical")
    columns = ("crashpoint", "hit", "mode", *CHECKS)
    modes = (MODE_KILL, MODE_EXIT, MODE_RAISE)
    cells = None
    contract = "resumed stdout byte-identical to the uninterrupted run"

    def __init__(self, argv: list, timeout: float = 300.0) -> None:
        self.argv = list(argv)
        self.timeout = timeout
        self.title = f"`repro {' '.join(self.argv)}`"

    def _run(self, flags: list, env_extra: Optional[dict] = None):
        proc = subprocess.Popen(
            [PYTHON, "-m", "repro", *self.argv, *flags],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=sweep_env(env_extra),
        )
        try:
            stdout, stderr = proc.communicate(timeout=self.timeout)
        except BaseException:
            # Timeout, Ctrl-C in the sweep, anything: the child must not
            # outlive this call as an orphan chewing CPU in the background.
            proc.kill()
            proc.wait()
            raise
        return subprocess.CompletedProcess(
            proc.args, proc.returncode, stdout, stderr
        )

    def baseline(self, dirpath: str) -> subprocess.CompletedProcess:
        """The uninterrupted run: its stdout and exit code."""
        return self._run(["--checkpoint", os.path.join(dirpath, "run.ckpt")])

    def census(self, dirpath: str) -> Counter:
        """Crashpoint hit counts of one traced, unarmed run."""
        trace = os.path.join(dirpath, "trace.txt")
        self._run(
            ["--checkpoint", os.path.join(dirpath, "run.ckpt")],
            {ENV_TRACE: trace},
        )
        return read_trace(trace)

    def cycle(
        self, dirpath: str, cell: tuple, baseline: subprocess.CompletedProcess
    ) -> ChaosResult:
        """Kill at *cell*, resume from disk, compare against *baseline*."""
        point, hit, mode = cell
        spec = f"{point}:{hit}:{mode}"
        ckpt = os.path.join(dirpath, "run.ckpt")
        try:
            wounded = self._run(["--checkpoint", ckpt], {ENV_SPECS: spec})
        except subprocess.TimeoutExpired:
            return staged_result(
                cell, self.CHECKS, 0,
                f"kill run exceeded the {self.timeout:g}s timeout",
            )
        if not died(wounded.returncode, mode):
            return staged_result(
                cell, self.CHECKS, 0,
                f"expected the process to die at {spec}, got exit "
                f"{wounded.returncode}",
            )
        for _ in range(MAX_RESUME_HOPS):
            flag = "--resume" if os.path.exists(ckpt) else "--checkpoint"
            try:
                final = self._run([flag, ckpt])
            except subprocess.TimeoutExpired:
                return staged_result(
                    cell, self.CHECKS, 1,
                    f"resume run exceeded the {self.timeout:g}s timeout",
                )
            if final.returncode == baseline.returncode:
                break
        else:
            tail = final.stderr[-300:].decode(errors="replace")
            return staged_result(
                cell, self.CHECKS, 1,
                f"resume never reached the baseline exit code "
                f"{baseline.returncode} (last: {final.returncode}; stderr "
                f"tail: {tail!r})",
            )
        if final.stdout != baseline.stdout:
            return staged_result(
                cell, self.CHECKS, 2,
                f"stdout diverged: baseline {len(baseline.stdout)}B, "
                f"resumed {len(final.stdout)}B",
            )
        return staged_result(cell, self.CHECKS, 3)
