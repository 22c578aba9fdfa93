"""Exhaustive consensus checking with constructive counterexamples.

Theorem 4.2 says a protocol in a valence-connected layered model cannot
satisfy *decision*, *agreement* and *validity* simultaneously.  This
module is the executable converse: given **any** finite-state protocol
bound into a layered system, :class:`ConsensusChecker` explores every
``S``-run and returns one of

* ``SATISFIED`` — all runs decide, agree, and are valid (possible only
  when the theorem's preconditions fail, e.g. ``S^t`` with a ``t+1``-round
  protocol — the layer is then *not* valence connected at the decision
  frontier);
* an ``AGREEMENT`` violation — a reachable state where two non-failed
  processes have decided differently, with the schedule that produces it;
* a ``VALIDITY`` violation — a non-failed process decided a value that is
  not any process's input in that run, with the schedule;
* a ``DECISION`` violation — a *fair-by-construction* infinite run (a
  lasso: finite prefix + repeating cycle) on which some non-failed
  process never decides;
* a ``WRITE_ONCE`` violation — a transition changed an already-set
  decision variable (a malformed protocol; none of the shipped protocols
  trigger it, but the checker guards the "system for consensus"
  condition (ii) of Section 3 rather than assuming it);
* ``UNKNOWN`` — the exploration :class:`~repro.resilience.Budget`
  (states, edges, wall clock, memory) was exhausted, or the search was
  interrupted, before the state space was covered.  The report carries
  :class:`~repro.resilience.BudgetStats` and a resumable
  :class:`~repro.resilience.ExplorationCheckpoint`;
* ``ILL_FORMED`` — the default-on contract preflight
  (:mod:`repro.lint.contracts`) found the *system itself* violating a
  model-side hygiene condition (nondeterministic successors, shrinking
  ``failed_at``, revoked decisions, empty layers, unhashable states)
  before exploration started.  Like ``UNKNOWN`` it is neither a
  satisfaction nor a refutation — the consensus verdict is meaningless
  for such a system — but unlike ``UNKNOWN`` it is a definitive
  diagnosis, carried as a :class:`~repro.lint.PreflightReport` with a
  concrete witness edge per finding.  Pass ``preflight=False`` (CLI:
  ``--no-preflight``) to skip the stage and reproduce historical
  behaviour exactly.

Degradation is **sound**: violations are detected the moment their state
is generated, so any violation found before a budget trips is returned as
a definitive refutation — a budget can only ever turn would-be
``SATISFIED`` into ``UNKNOWN``, never a violation into ``SATISFIED``.
The checker never raises on exhaustion: a tripped budget and a Ctrl-C
both end in ``UNKNOWN`` (the latter marked ``interrupted``).

Every violation carries a replayable witness: the exact sequence of layer
actions from an initial state.  Replaying it through the layering
reproduces the violation — tests do exactly that, and the fault-injection
harness (:mod:`repro.resilience.mutation`) uses the same replay to
validate the checker itself.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Any, Optional

from repro.core.run import Execution, RunWitness
from repro.core.state import GlobalState
from repro.core.valence import all_nonfailed_decided
from repro.resilience.budget import (
    DEFAULT_BUDGET,
    Budget,
    BudgetMeter,
    BudgetStats,
)
from repro.resilience.chaos import crashpoint
from repro.resilience.checkpoint import (
    CheckAllCheckpoint,
    ExplorationCheckpoint,
    system_fingerprint,
)

if TYPE_CHECKING:
    from repro.resilience.pool import PoolConfig


class Verdict(Enum):
    """Outcome categories for a consensus check."""

    SATISFIED = "satisfied"
    AGREEMENT = "agreement-violation"
    VALIDITY = "validity-violation"
    DECISION = "decision-violation"
    WRITE_ONCE = "write-once-violation"
    UNKNOWN = "unknown"
    ILL_FORMED = "ill-formed"


#: The verdicts that constitute a definitive refutation (a violation with
#: a replayable witness) — everything except SATISFIED and UNKNOWN.
VIOLATIONS = frozenset(
    {Verdict.AGREEMENT, Verdict.VALIDITY, Verdict.DECISION, Verdict.WRITE_ONCE}
)


@dataclass(frozen=True)
class ConsensusReport:
    """The result of checking one protocol in one layered system.

    Attributes:
        verdict: the outcome category.
        inputs: the input assignment of the violating run (None when
            satisfied).
        execution: for safety violations, the layer-action path from the
            initial state to the violating state; for decision violations,
            the lasso prefix.  None when satisfied.
        cycle: for decision violations, the repeating cycle of the lasso.
        detail: human-readable description of what was observed.
        states_explored: total distinct states visited.
        budget_stats: resource-consumption snapshot; always present on
            ``UNKNOWN`` verdicts (naming the tripped limit), and None on
            reports produced before budgets existed.
        checkpoint: a resumable exploration snapshot, present exactly on
            ``UNKNOWN`` verdicts.  Pass it back to ``check`` /
            ``check_all`` to continue; across processes it travels in a
            campaign journal's ``suspend`` record
            (:class:`repro.resilience.CampaignJournal`).
        preflight: the :class:`~repro.lint.PreflightReport` behind an
            ``ILL_FORMED`` verdict (findings with witness edges); None
            on every other verdict.
    """

    verdict: Verdict
    inputs: Optional[tuple]
    execution: Optional[Execution]
    cycle: Optional[Execution]
    detail: str
    states_explored: int
    budget_stats: Optional[BudgetStats] = None
    checkpoint: Optional[object] = None
    preflight: Optional[object] = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    @property
    def ill_formed(self) -> bool:
        """True when the contract preflight refused the system."""
        return self.verdict is Verdict.ILL_FORMED

    @property
    def inconclusive(self) -> bool:
        """True when the budget ran out before a verdict was reached."""
        return self.verdict is Verdict.UNKNOWN

    @property
    def refuted(self) -> bool:
        """True when a genuine violation (with witness) was found."""
        return self.verdict in VIOLATIONS

    @property
    def interrupted(self) -> bool:
        """True when the exploration was stopped by KeyboardInterrupt."""
        return (
            self.budget_stats is not None
            and self.budget_stats.limit == "interrupted"
        )

    def run_witness(self) -> RunWitness:
        """The infinite-run witness of a decision violation."""
        if self.verdict is not Verdict.DECISION:
            raise ValueError("only decision violations carry a run witness")
        assert self.execution is not None and self.cycle is not None
        return RunWitness(self.execution, self.cycle)


@dataclass(frozen=True)
class SweepPlan:
    """One ``check_all`` sweep: its input assignments in product order
    and its resume cursor — the first assignment to check, the states
    counted before it, and that assignment's in-flight exploration
    snapshot (see :meth:`ConsensusChecker.plan_sweep`)."""

    model: Any
    domain: tuple
    assignments: list
    start: int = 0
    total: int = 0
    inner: Optional[ExplorationCheckpoint] = None


class ConsensusChecker:
    """Exhaustively check the three consensus requirements.

    Args:
        system: a :class:`SuccessorSystem` (layering or model).
        budget: the :class:`~repro.resilience.Budget` charged per input
            assignment.  Exhausting it yields an ``UNKNOWN`` report
            carrying statistics and a resumable checkpoint.
        cache: memoize the successor system (see
            :func:`repro.core.cache.resolve_cache`): ``True`` for a
            cache shared across every assignment this checker
            sweeps, or a prebuilt
            :class:`~repro.core.cache.CachedSystem` shared with other
            engines.  Verdicts, witnesses and checkpoints are identical
            either way; in a parallel ``check_all`` each worker warms its
            own cache (caches never cross processes).
        preflight: run the bounded contract preflight
            (:func:`repro.lint.contracts.preflight_system`) on the first
            ``check``/``check_all``, returning an ``ILL_FORMED`` report
            instead of exploring an ill-formed system.  Default
            on; ``preflight=False`` reproduces pre-preflight behaviour
            exactly.  The probe runs against the *uncached* system and is
            memoized per system object, so its cost is one bounded BFS
            per process and it never perturbs cache statistics.
    """

    def __init__(
        self,
        system,
        budget: Budget = DEFAULT_BUDGET,
        cache=None,
        preflight: bool = True,
    ) -> None:
        from repro.core.cache import resolve_cache

        self._system = resolve_cache(system, cache)
        self._budget = budget
        self._preflight = preflight

    def _preflight_gate(
        self, roots, inputs: Optional[tuple]
    ) -> Optional[ConsensusReport]:
        """Run the contract preflight once; the ILL_FORMED report if it
        failed, else None."""
        if not self._preflight:
            return None
        from repro.lint.contracts import preflight_once

        root_list = list(roots)
        try:
            report = preflight_once(self._system, root_list)
        except KeyboardInterrupt:
            # Ctrl-C during the probe degrades exactly like Ctrl-C during
            # the BFS it guards: UNKNOWN with a zero-progress checkpoint.
            meter = self._budget.meter()
            frontier = Frontier(
                {root: None for root in root_list},
                deque(root_list),
                set(),
                {},
                meter.mark_interrupted(),
            )
            return self._unknown_report(inputs, frontier, meter)
        if report is None or report.ok:
            return None
        return ConsensusReport(
            verdict=Verdict.ILL_FORMED,
            inputs=inputs,
            execution=None,
            cycle=None,
            detail=report.describe(),
            states_explored=0,
            preflight=report,
        )

    @property
    def budget(self) -> Budget:
        """The budget charged per input assignment."""
        return self._budget

    def cache_stats(self):
        """The cache's counters (``None`` when running uncached)."""
        from repro.core.cache import CachedSystem

        if isinstance(self._system, CachedSystem):
            return self._system.stats()
        return None

    def check(
        self,
        initial_state: GlobalState,
        inputs: Sequence[Hashable],
        checkpoint: Optional[ExplorationCheckpoint] = None,
    ) -> ConsensusReport:
        """Check all runs from one initial state (one input assignment).

        Pass a *checkpoint* from a previous ``UNKNOWN`` report to resume
        the breadth-first search exactly where it stopped; the search is
        deterministic, so the eventual verdict (and witness) is identical
        to an uninterrupted run.  Each invocation charges a fresh budget
        window (except the wall-clock deadline, which is anchored on the
        ``Budget`` itself).
        """
        refused = self._preflight_gate([initial_state], tuple(inputs))
        if refused is not None:
            return refused
        return self._check_one(
            initial_state, tuple(inputs), self._budget.meter(), checkpoint
        )

    def check_all(
        self,
        model,
        value_domain: Sequence[Hashable] = (0, 1),
        checkpoint: Optional[CheckAllCheckpoint] = None,
        workers: Optional[int] = None,
        pool: Optional[PoolConfig] = None,
        shard_states: Optional[int] = None,
    ) -> ConsensusReport:
        """Check every input assignment; return the first violation found,
        or an aggregate SATISFIED report.

        On budget exhaustion the aggregate verdict is ``UNKNOWN`` with a
        :class:`~repro.resilience.CheckAllCheckpoint` recording the
        deterministic assignment cursor plus the in-flight assignment's
        exploration snapshot; pass it back to resume.

        Sequentially the contract preflight gates once over every initial
        state, then the remaining assignments run as one span
        (:meth:`check_span`) and merge (:meth:`merge_spans`).  With
        ``workers > 1`` the same plan is split into spans of
        ``shard_states`` assignments (default 1) and run across the
        fault-isolated worker pool by :func:`repro.core.campaign.run_sharded`
        (*pool* is its :class:`~repro.resilience.pool.PoolConfig`); the
        spans merge in assignment order, so the report (verdict,
        witness, statistics, checkpoint) is identical to the sequential
        one whatever the schedule.  A span whose worker crashes
        repeatedly is quarantined: the sweep reports ``UNKNOWN`` at that
        span's cursor with the crash cause in the detail (resumable from
        that index).  Wall-clock-limited budgets are the one intentional
        semantic difference: the deadline is shared, so under time
        pressure a parallel run covers more assignments before tripping.
        """
        domain = tuple(value_domain)
        start = checkpoint.assignment_index if checkpoint is not None else 0
        if workers is not None and workers > 1 and len(domain) ** model.n - start > 1:
            from repro.core.campaign import SweepUnit, run_sharded

            unit = SweepUnit(
                self._system, model, self._budget, resume=checkpoint,
                preflight=self._preflight, value_domain=domain,
            )
            return run_sharded({0: unit}, workers, pool, shard_states)[0]
        plan = self.plan_sweep(model, domain, checkpoint)
        refused = self._preflight_gate(
            (model.initial_state(a) for a in plan.assignments), None
        )
        if refused is not None:
            return refused
        stop = len(plan.assignments)
        reports = self.check_span(plan, plan.start, stop, plan.inner)
        return self.merge_spans(plan, [(plan.start, stop, reports)])

    def plan_sweep(
        self,
        model,
        value_domain: Sequence[Hashable] = (0, 1),
        checkpoint: Optional[CheckAllCheckpoint] = None,
    ) -> SweepPlan:
        """The assignments of a ``check_all`` sweep and where it resumes
        (the *checkpoint* is validated against this checker's system)."""
        from itertools import product

        domain = tuple(value_domain)
        plan = SweepPlan(model, domain, list(product(domain, repeat=model.n)))
        if checkpoint is None:
            return plan
        checkpoint.validate_for(self._system, model.n, domain)
        return replace(
            plan,
            start=checkpoint.assignment_index,
            total=checkpoint.states_total,
            inner=checkpoint.inner,
        )

    def check_span(
        self,
        plan: SweepPlan,
        lo: int,
        hi: int,
        inner: Optional[ExplorationCheckpoint] = None,
        gate: bool = False,
    ) -> list[ConsensusReport]:
        """Check assignments ``lo .. hi-1`` of *plan* in order, each
        against a fresh budget meter, stopping at the first
        non-SATISFIED report; *inner* resumes assignment *lo*.

        With *gate* the contract preflight gates each assignment's
        initial state first (memoized per process), the sharded
        workers' gate; the sequential sweep gates all roots up front.
        """
        reports: list[ConsensusReport] = []
        for index in range(lo, hi):
            assignment = plan.assignments[index]
            initial = plan.model.initial_state(assignment)
            report = (
                self._preflight_gate([initial], assignment) if gate else None
            )
            if report is None:
                report = self._check_one(
                    initial,
                    assignment,
                    self._budget.meter(),
                    inner if index == lo else None,
                )
            reports.append(report)
            if not report.satisfied:
                break
        return reports

    def merge_spans(self, plan: SweepPlan, spans) -> ConsensusReport:
        """Fold ``(lo, hi, reports)`` spans into the sweep verdict.

        Spans are walked in assignment order, whoever ran them and in
        whatever order they finished, so the result is a pure function
        of the per-assignment reports.  *reports* is a
        :meth:`check_span` list, or a string naming why the span never
        ran (a quarantined pool unit): the sweep then stops ``UNKNOWN``
        at the span's cursor, resumable from there.
        """
        assignments = plan.assignments
        total = plan.total
        for lo, hi, reports in spans:
            if isinstance(reports, str):
                where = (
                    f"assignment {lo + 1} of {len(assignments)} "
                    f"({assignments[lo]!r})"
                    if hi - lo == 1
                    else f"assignments {lo + 1}-{hi} of {len(assignments)}"
                )
                return ConsensusReport(
                    verdict=Verdict.UNKNOWN,
                    inputs=assignments[lo],
                    execution=None,
                    cycle=None,
                    detail=(
                        f"{where} quarantined: {reports} "
                        "(resume from the checkpoint to re-run it)"
                    ),
                    states_explored=total,
                    budget_stats=None,
                    checkpoint=self._sweep_checkpoint(plan, lo, total, None),
                )
            for index, report in enumerate(reports, lo):
                if report.inconclusive:
                    return ConsensusReport(
                        verdict=Verdict.UNKNOWN,
                        inputs=assignments[index],
                        execution=None,
                        cycle=None,
                        detail=(
                            f"budget exhausted on assignment {index + 1} of "
                            f"{len(assignments)} ({assignments[index]!r}): "
                            f"{report.detail}"
                        ),
                        states_explored=total + report.states_explored,
                        budget_stats=report.budget_stats,
                        checkpoint=self._sweep_checkpoint(
                            plan, index, total, report.checkpoint
                        ),
                    )
                if not report.satisfied:
                    return report
                total += report.states_explored
        return ConsensusReport(
            verdict=Verdict.SATISFIED,
            inputs=None,
            execution=None,
            cycle=None,
            detail=(
                f"all {len(assignments)} input assignments "
                "decide, agree and are valid"
            ),
            states_explored=total,
        )

    def _sweep_checkpoint(
        self,
        plan: SweepPlan,
        index: int,
        total: int,
        inner: Optional[ExplorationCheckpoint],
    ) -> CheckAllCheckpoint:
        return CheckAllCheckpoint(
            fingerprint=system_fingerprint(self._system),
            n=plan.model.n,
            value_domain=plan.domain,
            assignment_index=index,
            states_total=total,
            inner=inner,
        )

    # -- internals ----------------------------------------------------------
    def _check_one(
        self,
        initial_state: GlobalState,
        inputs: tuple,
        meter: BudgetMeter,
        checkpoint: Optional[ExplorationCheckpoint],
    ) -> ConsensusReport:
        frontier = None
        if checkpoint is not None:
            checkpoint.validate_for(self._system, inputs)
            frontier = Frontier(
                checkpoint.parent,
                deque(checkpoint.queue),
                checkpoint.terminal,
                checkpoint.edges,
            )
        input_values = frozenset(inputs)
        outcome = explore_problem(
            self._system,
            initial_state,
            lambda state: self._state_problem(state, input_values),
            meter,
            frontier,
        )
        if isinstance(outcome, Violation):
            return ConsensusReport(
                verdict=outcome.verdict,
                inputs=inputs,
                execution=outcome.execution,
                cycle=outcome.cycle,
                detail=outcome.detail,
                states_explored=outcome.explored,
                budget_stats=(
                    meter.stats() if outcome.cycle is not None else None
                ),
            )
        if outcome.limit is not None:
            return self._unknown_report(inputs, outcome, meter)
        return ConsensusReport(
            verdict=Verdict.SATISFIED,
            inputs=None,
            execution=None,
            cycle=None,
            detail="all runs decide, agree and are valid",
            states_explored=len(outcome.parent),
            budget_stats=meter.stats(),
        )

    def _unknown_report(
        self, inputs: tuple, frontier: Frontier, meter: BudgetMeter
    ) -> ConsensusReport:
        """Build the graceful-degradation report."""
        crashpoint("checker.budget.trip")
        stats = meter.stats(frontier=len(frontier.queue))
        cp = ExplorationCheckpoint(
            fingerprint=system_fingerprint(self._system),
            inputs=inputs,
            parent=frontier.parent,
            queue=list(frontier.queue),
            terminal=frontier.terminal,
            edges=frontier.edges,
            limit=frontier.limit,
            states_seen=len(frontier.parent),
        )
        return ConsensusReport(
            verdict=Verdict.UNKNOWN,
            inputs=inputs,
            execution=None,
            cycle=None,
            detail=(
                f"inconclusive: {stats.describe()}; no violation found "
                "before the budget tripped (resume from the checkpoint "
                "to continue)"
            ),
            states_explored=len(frontier.parent),
            budget_stats=stats,
            checkpoint=cp,
        )

    def _state_problem(
        self, state: GlobalState, input_values: frozenset
    ) -> Optional[tuple[Verdict, str]]:
        failed = self._system.failed_at(state)
        decisions = {
            i: v
            for i, v in self._system.decisions(state).items()
            if i not in failed
        }
        distinct = set(decisions.values())
        if len(distinct) > 1:
            return (
                Verdict.AGREEMENT,
                f"non-failed processes decided differently: {decisions!r}",
            )
        for i, v in decisions.items():
            if v not in input_values:
                return (
                    Verdict.VALIDITY,
                    f"process {i} decided {v!r}, not an input of this run",
                )
        return None


@dataclass(frozen=True)
class Violation:
    """A refutation found by :func:`explore_problem`: the verdict, its
    replayable witness (the path to the violating state or edge, or a
    lasso's prefix and ``cycle``) and the states explored so far."""

    verdict: Verdict
    execution: Execution
    cycle: Optional[Execution]
    detail: str
    explored: int


@dataclass
class Frontier:
    """The graph :func:`explore_problem` explored without finding a
    violation: BFS parent pointers, the queue still to expand, the
    terminal states and the expanded states' successor lists.

    ``limit`` is None when the graph is complete, else the budget limit
    that stopped the search (``"interrupted"`` for Ctrl-C); passing the
    frontier back to :func:`explore_problem` resumes it exactly.
    """

    parent: dict
    queue: deque
    terminal: set
    edges: dict
    limit: Optional[str] = None


def explore_problem(
    system,
    initial_state: GlobalState,
    problem: Callable[[GlobalState], Optional[tuple[Verdict, str]]],
    meter: BudgetMeter,
    frontier: Optional[Frontier] = None,
) -> Violation | Frontier:
    """Search every run from *initial_state* for a violation.

    Breadth-first over *system*, stopping at terminal states: every
    generated state is checked against *problem* (a ``(verdict,
    detail)`` pair, or None when the state is fine) and every edge
    against write-once decisions; when the graph is complete, the lasso
    search looks for a fair run starving a nonfaulty process.  Returns
    the first :class:`Violation`, or the :class:`Frontier` — complete,
    or stopped by a tripped *meter* or Ctrl-C.  A *frontier* from an
    earlier stopped call resumes that search.
    """
    if frontier is None:
        frontier = Frontier({initial_state: None}, deque([initial_state]), set(), {})
        meter.charge_state(initial_state)
        found = problem(initial_state)
        if found is not None:
            return Violation(
                found[0], _path_to(initial_state, frontier.parent), None,
                found[1], 1,
            )
    frontier.limit = None
    parent = frontier.parent
    queue = frontier.queue
    terminal = frontier.terminal
    edges = frontier.edges
    while queue:
        tripped = meter.poll()
        if tripped is not None:
            frontier.limit = tripped
            return frontier
        state = queue.popleft()
        try:
            if all_nonfailed_decided(system, state):
                terminal.add(state)
                continue
            succs = system.successors(state)
            edges[state] = succs
            for action, child in succs:
                meter.charge_edge()
                fresh = child not in parent
                if fresh:
                    parent[child] = (state, action)
                    meter.charge_state(child)
                overwritten = _write_once_problem(system, state, child)
                if overwritten is not None:
                    # Witness the edge it was SEEN on: the BFS parent of
                    # an already-discovered child may reach it by a path
                    # on which the register never held the old value,
                    # which would not replay.
                    path = _path_to(state, parent)
                    return Violation(
                        Verdict.WRITE_ONCE,
                        Execution(
                            path.states + (child,), path.actions + (action,)
                        ),
                        None,
                        overwritten,
                        len(parent),
                    )
                found = problem(child)
                if found is not None:
                    return Violation(
                        found[0], _path_to(child, parent), None, found[1],
                        len(parent),
                    )
                if fresh:
                    queue.append(child)
        except KeyboardInterrupt:
            # Re-queue the half-processed state (re-processing it on
            # resume is idempotent) and degrade to a resumable frontier.
            queue.appendleft(state)
            frontier.limit = meter.mark_interrupted()
            return frontier
    try:
        lasso = _find_undecided_lasso(
            system, initial_state, edges, terminal, meter
        )
    except KeyboardInterrupt:
        frontier.limit = meter.mark_interrupted()
        return frontier
    if lasso == "tripped":
        frontier.limit = meter.tripped
        return frontier
    if lasso is not None:
        prefix, cycle = lasso
        return Violation(
            Verdict.DECISION,
            prefix,
            cycle,
            "fair infinite run on which some non-failed process never decides",
            len(parent),
        )
    return frontier


def _write_once_problem(
    system, state: GlobalState, child: GlobalState
) -> Optional[str]:
    before = system.decisions(state)
    after = system.decisions(child)
    for i, v in before.items():
        if after.get(i) != v:
            return (
                f"process {i}'s decision changed from {v!r} to "
                f"{after.get(i)!r}"
            )
    return None


def _find_undecided_lasso(
    system,
    initial_state: GlobalState,
    edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]],
    terminal: set[GlobalState],
    meter: BudgetMeter,
):
    """A fair infinite run starving a nonfaulty process, as a lasso.

    For each process ``i`` we restrict the explored graph to the edges
    along which ``i`` stays nonfaulty (``nonfaulty_under`` on the
    action, non-failed at the endpoint) between states where ``i`` is
    undecided, and look for any cycle.  A cycle there, looped forever,
    is a run in which ``i`` is nonfaulty and never decides — a genuine
    violation of the decision requirement.  Decisions are write-once,
    so restricting to ``i``-undecided states loses nothing; and the
    per-process decomposition is complete: any violating run starves
    some specific nonfaulty process.  The prefix from the initial
    state to the cycle may use arbitrary edges.

    Returns the ``(prefix, cycle)`` pair, None when no process can be
    starved, or the sentinel string ``"tripped"`` when the wall-clock
    budget ran out between per-process passes (the BFS is already
    complete at that point, so a resumed run redoes only this phase).
    """
    for i in range(initial_state.n):
        if meter.poll() is not None:
            return "tripped"
        restricted: dict[GlobalState, list[tuple[Hashable, GlobalState]]] = {}
        for state, succs in edges.items():
            if i in system.decisions(state) or i in system.failed_at(state):
                continue
            kept = [
                (action, child)
                for action, child in succs
                if child not in terminal
                and i in system.nonfaulty_under(action)
                and i not in system.failed_at(child)
                and i not in system.decisions(child)
            ]
            if kept:
                restricted[state] = kept
        cycle = _find_cycle(restricted)
        if cycle is not None:
            prefix = _prefix_to(initial_state, cycle.initial, edges)
            if prefix is not None:
                return prefix, cycle
    return None


def _prefix_to(
    initial_state: GlobalState,
    target: GlobalState,
    edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]],
) -> Optional[Execution]:
    """BFS a path from the initial state to *target* in the full graph."""
    if initial_state == target:
        return Execution((initial_state,), ())
    parent: dict[GlobalState, tuple] = {initial_state: None}
    queue: deque[GlobalState] = deque([initial_state])
    while queue:
        state = queue.popleft()
        for action, child in edges.get(state, ()):
            if child in parent:
                continue
            parent[child] = (state, action)
            if child == target:
                return _path_to(child, parent)
            queue.append(child)
    return None


def _path_to(state: GlobalState, parent: dict) -> Execution:
    """Reconstruct the action path from the BFS parent pointers."""
    states = [state]
    actions: list[Hashable] = []
    while parent[states[-1]] is not None:
        prev, action = parent[states[-1]]
        states.append(prev)
        actions.append(action)
    states.reverse()
    actions.reverse()
    return Execution(tuple(states), tuple(actions))


def _find_cycle(
    edges: dict[GlobalState, list[tuple[Hashable, GlobalState]]],
) -> Optional[Execution]:
    """Any cycle in an explicit edge-labelled graph, as an Execution
    starting and ending at the same state; None if the graph is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[GlobalState, int] = {}
    for root in edges:
        if color.get(root, WHITE) != WHITE:
            continue
        # DFS path as parallel stacks of states and incoming actions.
        stack: list[tuple[GlobalState, int]] = [(root, 0)]
        path: list[GlobalState] = [root]
        path_actions: list[Hashable] = []
        color[root] = GRAY
        while stack:
            state, idx = stack.pop()
            succs = edges.get(state, [])
            advanced = False
            for k in range(idx, len(succs)):
                action, child = succs[k]
                if child not in edges:
                    continue  # child has no outgoing restricted edges
                child_color = color.get(child, WHITE)
                if child_color == GRAY:
                    entry = path.index(child)
                    cycle_states = tuple(path[entry:]) + (child,)
                    cycle_actions = tuple(path_actions[entry:]) + (action,)
                    return Execution(cycle_states, cycle_actions)
                if child_color == WHITE:
                    stack.append((state, k + 1))
                    stack.append((child, 0))
                    color[child] = GRAY
                    path.append(child)
                    path_actions.append(action)
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                path.pop()
                if path_actions:
                    path_actions.pop()
    return None
