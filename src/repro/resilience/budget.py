"""Resource budgets for exhaustive searches (the resilience layer's core).

Every exhaustive engine in this library — the consensus checker, the
valence analyzer, the reachability explorer, the task/outcome checkers —
walks a finite but potentially huge state space, and each takes one
``budget: Budget`` parameter (default :data:`DEFAULT_BUDGET`).  A
:class:`Budget` is a bundle of cooperative limits:

* ``max_states`` — distinct states visited (the classic knob);
* ``max_edges`` — successor edges generated (guards branching blowup
  even when sharing keeps the state count low);
* ``max_seconds`` — wall-clock time.  The deadline is anchored when the
  budget is *constructed*, so one ``Budget`` object threaded through a
  multi-analysis driver bounds the **total** run, not each piece;
* ``max_memory_bytes`` — a best-effort estimate: the meter samples
  ``sys.getsizeof`` over the first states it sees and extrapolates.

Budgets are immutable specifications; each search instantiates a mutable
:class:`BudgetMeter` that does the counting.  Charging is O(1) integer
work — time and memory are only re-checked every
:data:`BudgetMeter.SLOW_CHECK_MASK` + 1 charges — so the cooperative
checks cost well under the 5% overhead target
(``benchmarks/bench_e13_budget_overhead.py`` measures it).

What an engine does when its budget runs out is fixed per engine:
:class:`~repro.core.checker.ConsensusChecker` returns an ``UNKNOWN``
report with a resumable checkpoint and
:func:`~repro.core.exploration.explore` returns ``complete=False``
statistics, while every engine whose result cannot express partiality
(the valence and outcome analyzers, the reachable-set explorer, the
task checker) raises :class:`~repro.core.valence.ExplorationLimitExceeded`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Optional

#: Names of the limits a meter can report as tripped.  ``"interrupted"``
#: is reserved for KeyboardInterrupt converted into a graceful stop.
LIMIT_STATES = "states"
LIMIT_EDGES = "edges"
LIMIT_TIME = "time"
LIMIT_MEMORY = "memory"
LIMIT_INTERRUPTED = "interrupted"


@dataclass(frozen=True)
class Budget:
    """An immutable bundle of exploration limits.

    Any limit may be ``None`` (unlimited).  ``max_seconds`` is anchored at
    construction time: the deadline is ``now + max_seconds`` when the
    ``Budget`` is built, shared by every meter derived from it — which is
    what a CLI ``--timeout`` means (total wall clock for the command, not
    per sub-analysis).
    """

    max_states: Optional[int] = None
    max_edges: Optional[int] = None
    max_seconds: Optional[float] = None
    max_memory_bytes: Optional[int] = None
    deadline: Optional[float] = field(init=False, default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_seconds is not None:
            object.__setattr__(
                self, "deadline", time.monotonic() + self.max_seconds
            )

    @classmethod
    def unlimited(cls) -> "Budget":
        """A budget with no limits at all."""
        return cls()

    def meter(self) -> "BudgetMeter":
        """A fresh mutable meter counting against this budget."""
        return BudgetMeter(self)

    def describe(self) -> str:
        """Human-readable one-line summary of the configured limits."""
        parts = []
        if self.max_states is not None:
            parts.append(f"states<={self.max_states}")
        if self.max_edges is not None:
            parts.append(f"edges<={self.max_edges}")
        if self.max_seconds is not None:
            parts.append(f"time<={self.max_seconds:g}s")
        if self.max_memory_bytes is not None:
            parts.append(f"mem<={self.max_memory_bytes}B")
        return ", ".join(parts) if parts else "unlimited"


#: The budget every engine and driver charges when given none.
DEFAULT_BUDGET = Budget(max_states=2_000_000)


@dataclass(frozen=True)
class BudgetStats:
    """A snapshot of what an exploration consumed (and what stopped it).

    Attributes:
        states: distinct states charged so far.
        edges: successor edges charged so far.
        seconds: wall-clock time since the meter started.
        memory_bytes: best-effort estimate of the visited-state footprint.
        limit: which limit tripped (``"states"``, ``"edges"``, ``"time"``,
            ``"memory"``, ``"interrupted"``) or ``None`` if none did.
        frontier: size of the unexplored frontier when the snapshot was
            taken (0 when the search ran to completion).
        depth: greatest BFS depth reached, when the search tracks one.
    """

    states: int
    edges: int
    seconds: float
    memory_bytes: int
    limit: Optional[str] = None
    frontier: int = 0
    depth: int = 0

    def describe(self) -> str:
        """One-line summary, e.g. for CLI diagnostics."""
        head = f"{self.states} states, {self.edges} edges, {self.seconds:.2f}s"
        if self.limit is not None:
            head += f"; stopped by {self.limit} limit"
            if self.frontier:
                head += f" with {self.frontier} states still on the frontier"
        return head


class BudgetMeter:
    """Mutable counters charging against a :class:`Budget`.

    Searches call :meth:`charge_state` / :meth:`charge_edge` from their
    inner loops; both return the name of the limit that tripped (or
    ``None``), so the loop can stop cooperatively.  States and edges are
    compared on every charge (two integer compares); time and memory are
    re-checked once every ``SLOW_CHECK_MASK + 1`` charges.
    """

    #: Slow checks (time, memory) run when ``ops & SLOW_CHECK_MASK == 0``.
    SLOW_CHECK_MASK = 255
    #: How many states are sampled for the per-state byte estimate.
    MEMORY_SAMPLES = 32

    __slots__ = (
        "budget",
        "states",
        "edges",
        "_ops",
        "_started",
        "_sampled",
        "_sample_bytes",
        "_tripped",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.states = 0
        self.edges = 0
        self._ops = 0
        self._started = time.monotonic()
        self._sampled = 0
        self._sample_bytes = 0
        self._tripped: Optional[str] = None

    # -- charging ----------------------------------------------------------
    def charge_state(self, state: object = None) -> Optional[str]:
        """Charge one freshly discovered state; returns the tripped limit."""
        self.states += 1
        if state is not None and self._sampled < self.MEMORY_SAMPLES:
            self._sampled += 1
            self._sample_bytes += _state_bytes(state)
        b = self.budget
        if b.max_states is not None and self.states > b.max_states:
            self._tripped = LIMIT_STATES
            return LIMIT_STATES
        return self._slow_check()

    def charge_edge(self) -> Optional[str]:
        """Charge one generated successor edge; returns the tripped limit."""
        self.edges += 1
        b = self.budget
        if b.max_edges is not None and self.edges > b.max_edges:
            self._tripped = LIMIT_EDGES
            return LIMIT_EDGES
        return self._slow_check()

    def _slow_check(self) -> Optional[str]:
        self._ops += 1
        if self._ops & self.SLOW_CHECK_MASK:
            return None
        return self.poll()

    # -- inspection --------------------------------------------------------
    def poll(self) -> Optional[str]:
        """Re-check every limit right now (used at loop boundaries)."""
        b = self.budget
        if b.max_states is not None and self.states > b.max_states:
            self._tripped = LIMIT_STATES
        elif b.max_edges is not None and self.edges > b.max_edges:
            self._tripped = LIMIT_EDGES
        elif b.deadline is not None and time.monotonic() > b.deadline:
            self._tripped = LIMIT_TIME
        elif (
            b.max_memory_bytes is not None
            and self.memory_estimate() > b.max_memory_bytes
        ):
            self._tripped = LIMIT_MEMORY
        return self._tripped

    @property
    def tripped(self) -> Optional[str]:
        """The limit recorded as tripped so far, if any."""
        return self._tripped

    def mark_interrupted(self) -> str:
        """Record a KeyboardInterrupt as the stopping cause."""
        self._tripped = LIMIT_INTERRUPTED
        return LIMIT_INTERRUPTED

    def elapsed(self) -> float:
        """Seconds since this meter started counting."""
        return time.monotonic() - self._started

    def memory_estimate(self) -> int:
        """Extrapolated byte footprint of the states charged so far."""
        if self._sampled == 0:
            return 0
        return (self._sample_bytes // self._sampled) * self.states

    def stats(self, frontier: int = 0, depth: int = 0) -> BudgetStats:
        """Snapshot the meter into an immutable :class:`BudgetStats`."""
        return BudgetStats(
            states=self.states,
            edges=self.edges,
            seconds=self.elapsed(),
            memory_bytes=self.memory_estimate(),
            limit=self._tripped,
            frontier=frontier,
            depth=depth,
        )


def _state_bytes(state: object) -> int:
    """Shallow-ish ``sys.getsizeof`` estimate of one global state."""
    total = sys.getsizeof(state)
    locals_ = getattr(state, "locals", None)
    if locals_ is not None:
        total += sys.getsizeof(locals_)
        for local in locals_:
            total += sys.getsizeof(local)
    env = getattr(state, "env", None)
    if env is not None:
        total += sys.getsizeof(env)
    return total
