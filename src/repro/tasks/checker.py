"""Exhaustive decision-task checking (Section 7).

The task analogue of :class:`repro.core.checker.ConsensusChecker`: given a
:class:`DecisionProblem` and a protocol bound into a layered system, the
checker explores every ``S``-run from every input facet and verifies

* **validity** — at every reachable state, the simplex of decisions made
  by non-failed processes belongs to ``Δ(s)`` for the run's input facet
  ``s`` (complexes are face-closed, so a partial decision set violating
  this can never be completed into an acceptable output: early detection
  is sound);
* **decision** — no fair infinite run starves a nonfaulty undecided
  process (same lasso analysis as the consensus checker);
* **write-once** decisions.

Agreement-style constraints are not separate for general tasks: they are
encoded in ``Δ`` (e.g. consensus-as-a-task puts only the unanimous
facets in the output complex).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.cache import CacheSpec, resolve_cache
from repro.core.checker import Verdict, Violation, explore_problem
from repro.core.run import Execution
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import DEFAULT_BUDGET, LIMIT_INTERRUPTED, Budget
from repro.tasks.problem import DecisionProblem
from repro.tasks.simplex import Simplex


@dataclass(frozen=True)
class TaskReport:
    """The result of checking one protocol against one task.

    ``preflight`` carries the :class:`~repro.lint.PreflightReport`
    behind an ``ILL_FORMED`` verdict (None on every other verdict).
    """

    verdict: Verdict
    input_facet: Optional[Simplex]
    execution: Optional[Execution]
    cycle: Optional[Execution]
    detail: str
    states_explored: int
    preflight: Optional[object] = None

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED

    @property
    def ill_formed(self) -> bool:
        """True when the contract preflight refused the system."""
        return self.verdict is Verdict.ILL_FORMED


class TaskChecker:
    """Exhaustively check decision + validity for a decision problem.

    Runs the consensus checker's search,
    :func:`repro.core.checker.explore_problem` (safety BFS with the
    write-once guard, then the lasso search for starved processes); only
    the state-level problem differs: Δ-membership instead of
    agreement/value-validity.  Witnesses therefore have the consensus
    checker's shape, e.g. a write-once violation ends on the very edge
    that overwrote the decision.

    ``budget`` is the :class:`~repro.resilience.Budget` charged per
    input facet.  Exhaustion raises
    :class:`~repro.core.valence.ExplorationLimitExceeded` (the
    solvability drivers interpret a SATISFIED report as a solvability
    claim, which a silently truncated search cannot support); Ctrl-C
    propagates as ``KeyboardInterrupt``.

    ``cache`` memoizes the system's successor/failure/decision queries
    (see :func:`repro.core.cache.resolve_cache`); reports are identical
    cached or uncached.

    ``preflight`` (default on) runs the bounded contract preflight
    (:mod:`repro.lint.contracts`) before the first exploration and
    returns an ``ILL_FORMED`` report instead of exploring an ill-formed
    system; ``preflight=False`` reproduces historical behaviour exactly.
    """

    def __init__(
        self,
        system,
        problem: DecisionProblem,
        budget: Budget = DEFAULT_BUDGET,
        cache: CacheSpec = None,
        preflight: bool = True,
    ) -> None:
        self._system = resolve_cache(system, cache)
        self._problem = problem
        self._budget = budget
        self._preflight = preflight

    def _preflight_gate(
        self, roots, input_facet: Optional[Simplex]
    ) -> Optional[TaskReport]:
        """Run the contract preflight once; the ILL_FORMED report if it
        failed, else None."""
        if not self._preflight:
            return None
        from repro.lint.contracts import preflight_once

        report = preflight_once(self._system, roots)
        if report is None or report.ok:
            return None
        return TaskReport(
            verdict=Verdict.ILL_FORMED,
            input_facet=input_facet,
            execution=None,
            cycle=None,
            detail=report.describe(),
            states_explored=0,
            preflight=report,
        )

    def check(
        self, initial_state: GlobalState, input_facet: Simplex
    ) -> TaskReport:
        """Check all runs from the initial state of one input facet."""
        refused = self._preflight_gate([initial_state], input_facet)
        if refused is not None:
            return refused
        outcome = explore_problem(
            self._system,
            initial_state,
            lambda state: self._validity_problem(state, input_facet),
            self._budget.meter(),
        )
        if isinstance(outcome, Violation):
            return TaskReport(
                verdict=outcome.verdict,
                input_facet=input_facet,
                execution=outcome.execution,
                cycle=outcome.cycle,
                detail=outcome.detail,
                states_explored=outcome.explored,
            )
        if outcome.limit == LIMIT_INTERRUPTED:
            raise KeyboardInterrupt
        if outcome.limit is not None:
            raise ExplorationLimitExceeded(
                f"task-check budget exhausted ({outcome.limit}) after "
                f"{len(outcome.parent)} states from {input_facet!r}"
            )
        return TaskReport(
            verdict=Verdict.SATISFIED,
            input_facet=None,
            execution=None,
            cycle=None,
            detail="all runs decide and are valid",
            states_explored=len(outcome.parent),
        )

    def check_all(self, model) -> TaskReport:
        """Check every input facet of the problem."""
        total = 0
        facets = sorted(self._problem.input_facets(), key=repr)
        for facet in facets:
            assignment = [facet.value_of(i) for i in range(self._problem.n)]
            report = self.check(model.initial_state(assignment), facet)
            total += report.states_explored
            if not report.satisfied:
                return report
        return TaskReport(
            verdict=Verdict.SATISFIED,
            input_facet=None,
            execution=None,
            cycle=None,
            detail=f"all {len(facets)} input facets decide and are valid",
            states_explored=total,
        )

    # -- internals ----------------------------------------------------------
    def decided_simplex(self, state: GlobalState) -> Simplex:
        """The simplex of decisions made by non-failed processes."""
        failed = self._system.failed_at(state)
        return Simplex(
            (i, v)
            for i, v in self._system.decisions(state).items()
            if i not in failed
        )

    def _validity_problem(
        self, state: GlobalState, input_facet: Simplex
    ) -> Optional[tuple[Verdict, str]]:
        decided = self.decided_simplex(state)
        if not self._problem.acceptable(input_facet, decided):
            return (
                Verdict.VALIDITY,
                f"decided simplex {decided!r} not acceptable for input "
                f"{input_facet!r}",
            )
        return None
