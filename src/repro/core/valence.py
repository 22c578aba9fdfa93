"""Exact valence computation (Section 3, "Decisions and valence").

A state ``x`` is *v-valent* when some execution extending ``x`` contains a
nonfaulty process deciding ``v``; *v-univalent* when only ``v``; *bivalent*
when at least two values are reachable.  Valence quantifies over the
(infinite) extensions of ``x`` inside a layered system, so computing it
exactly needs two ingredients this library guarantees:

1. **Finite reachable state spaces** — protocols freeze after boundedly
   many phases (:mod:`repro.protocols.base`), so the set of states
   reachable from any state under a successor function is finite.
2. **Fault independence** (Section 2) — if a process is non-failed at a
   state and has decided ``v`` there, some run through that state keeps it
   nonfaulty, so observing a decided non-failed process suffices to
   certify ``v``-valence.  Conversely a nonfaulty decision in any
   extension is a non-failed decision at some reachable state.  Hence:

   ``values(x) = own(x) ∪ ⋃ { values(y) : y ∈ S(x) }``

   where ``own(x)`` is the set of values decided by non-failed processes
   at ``x``.

The analyzer additionally reports **divergence**: whether some infinite
``S``-extension of ``x`` never reaches a state where all non-failed
processes have decided.  In a finite state space an infinite run must
revisit a state, so divergence is exactly reachability of a cycle of
non-terminal states.  Caveat: "non-failed" here means *not recorded
failed*; in the no-finite-failure models a looping schedule may be
starving the undecided process (a scheduling crash), which is no
violation — divergence is therefore an over-approximation of the
decision-requirement verdict there, and the precise check (which weighs
each cycle's actions through the ``nonfaulty_under`` hooks) lives in
:class:`repro.core.checker.ConsensusChecker`.  Divergence is a
first-class result here, not an error.

The computation explores the reachable subgraph (stopping at *terminal*
states — all non-failed decided — and at already-memoized states), runs
Tarjan's SCC algorithm, and folds values/divergence over the condensation
in reverse topological order.  The SCC pass is what makes the result exact
in the presence of cycles: a naive memoized DFS would undercount the
values reachable from states inside a cycle.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Hashable
from dataclasses import dataclass

from repro.core.state import GlobalState
from repro.resilience.budget import DEFAULT_BUDGET, Budget, BudgetMeter
from repro.util.graphs import strongly_connected_components


class ExplorationLimitExceeded(RuntimeError):
    """Raised when an analysis runs out of its :class:`Budget`.

    Usually means the protocol under analysis does not have a finite
    reachable state space (see :mod:`repro.protocols.base`), or the model
    instance is too large for exhaustive analysis.  The engines whose
    results cannot express partiality raise it: the valence and outcome
    analyzers, :func:`~repro.core.exploration.reachable_states` and the
    task checker.  The consensus checker and
    :func:`~repro.core.exploration.explore` report exhaustion through
    their results instead.
    """


def all_nonfailed_decided(system, state: GlobalState) -> bool:
    """Whether every process non-failed at *state* has decided.

    Every engine stops exploring at such a *terminal* state: decisions
    are write-once and the failed set only grows, so beyond it no new
    value can be decided by a process that is non-failed anywhere on the
    extension.
    """
    failed = system.failed_at(state)
    decided = system.decisions(state)
    return all(i in decided for i in range(state.n) if i not in failed)


#: An explored region: each state's distinct children in first-seen
#: order, each with the layer actions that lead to it (see
#: :func:`explore_region`).
Region = dict[GlobalState, dict[GlobalState, list]]


def explore_region(
    system,
    root: GlobalState,
    meter: BudgetMeter,
    known: Container[GlobalState],
    exhausted: Callable[[str], Exception],
) -> Region:
    """Depth-first, the region below *root*: every state reachable from it
    without expanding a terminal state (:func:`all_nonfailed_decided`) or
    a *known* one (whose result the caller has memoized).

    Maps every reached state to its distinct children in first-seen
    order, each with the actions that lead to it; a stopped state maps to
    ``{}``.  Each reached state and each generated edge is charged to
    *meter*; when a limit trips, it raises ``exhausted(limit)``.
    """
    region: Region = {}
    stack = [root]
    seen = {root}
    expanded = 0
    tripped = meter.charge_state(root)
    while stack and tripped is None:
        state = stack.pop()
        if state in known or all_nonfailed_decided(system, state):
            region[state] = {}
            continue
        children: dict[GlobalState, list] = {}
        for action, child in system.successors(state):
            tripped = meter.charge_edge()
            if tripped is not None:
                # Raise at the charge site: waiting for the
                # every-256-states poll would let a single high-degree
                # expansion overshoot the edge budget by an entire layer.
                raise exhausted(tripped)
            actions = children.get(child)
            if actions is None:
                children[child] = [action]
            else:
                actions.append(action)
        if not children:
            raise AssertionError(
                "successor functions are total: a non-terminal state "
                "must have successors"
            )
        region[state] = children
        expanded += 1
        tripped = meter.poll() if (expanded & 0xFF) == 0 else None
        for child in children:
            if child not in seen:
                seen.add(child)
                tripped = meter.charge_state(child) or tripped
                stack.append(child)
    if tripped is not None:
        raise exhausted(tripped)
    return region


@dataclass(frozen=True, slots=True)
class ValenceResult:
    """The exact valence of a state.

    Attributes:
        values: every value ``v`` such that the state is ``v``-valent.
        diverges: whether some infinite extension loops with a process
            that is undecided and never *recorded* failed.  In the
            synchronous model (explicit failure records) this is exactly
            a decision violation.  In the no-finite-failure models it is
            an over-approximation: the looping schedule may simply be
            crashing the undecided process by never scheduling it, which
            violates nothing.  For the precise decision-requirement
            verdict — which accounts for scheduling-faultiness via the
            ``nonfaulty_under`` hooks — use
            :class:`repro.core.checker.ConsensusChecker` or
            :class:`repro.tasks.covering.OutcomeAnalyzer`; always
            ``outcome.diverges implies valence.diverges``.

    Results are always exact: an analysis that runs out of budget
    raises :class:`ExplorationLimitExceeded` instead of returning one.
    """

    values: frozenset
    diverges: bool

    def is_v_valent(self, v: Hashable) -> bool:
        """Whether some extension decides *v* (Section 3's v-valence)."""
        return v in self.values

    @property
    def bivalent(self) -> bool:
        """At least two distinct decision values are reachable."""
        return len(self.values) >= 2

    @property
    def univalent(self) -> bool:
        """Exactly one reachable decision value."""
        return len(self.values) == 1

    def univalent_value(self) -> Hashable:
        """The unique reachable decision value of a univalent state."""
        if not self.univalent:
            raise ValueError(f"state is not univalent: {self}")
        return next(iter(self.values))

    def shares_valence_with(self, other: "ValenceResult") -> bool:
        """Definition 3.1's ``~v``: some value both states are valent for."""
        return bool(self.values & other.values)


class ValenceAnalyzer:
    """Memoized exact valence over a :class:`SuccessorSystem`.

    The analyzer may be queried repeatedly; previously finalized states
    act as sinks for later explorations, which is sound because a state's
    result already accounts for everything reachable from it.

    Args:
        system: any object with ``successors``, ``failed_at`` and
            ``decisions`` (a model or a layering).
        budget: the :class:`~repro.resilience.Budget` (states, edges,
            wall clock, memory) shared across all queries.  Exhausting
            it raises :class:`ExplorationLimitExceeded`: the bivalence
            walks and lemma drivers act on valence verdicts, and a
            truncated valence would make their proofs unsound.
        cache: memoize the successor system (see
            :func:`repro.core.cache.resolve_cache`): ``True`` for a
            private cache, or a prebuilt
            :class:`~repro.core.cache.CachedSystem` shared with other
            engines analyzing the same system.  Results are identical
            either way.
    """

    def __init__(
        self,
        system,
        budget: Budget = DEFAULT_BUDGET,
        cache=None,
    ) -> None:
        from repro.core.cache import resolve_cache

        self._system = resolve_cache(system, cache)
        self._meter = budget.meter()
        self._memo: dict[GlobalState, ValenceResult] = {}

    @property
    def system(self):
        return self._system

    @property
    def explored_states(self) -> int:
        """Number of states with finalized results so far."""
        return len(self._memo)

    # -- state-local helpers ------------------------------------------------
    def own_values(self, state: GlobalState) -> frozenset:
        """Values decided by processes non-failed at *state*."""
        failed = self._system.failed_at(state)
        return frozenset(
            v
            for i, v in self._system.decisions(state).items()
            if i not in failed
        )

    def is_terminal(self, state: GlobalState) -> bool:
        """All non-failed processes have decided — exploration stops here
        (see :func:`all_nonfailed_decided`)."""
        return all_nonfailed_decided(self._system, state)

    # -- queries --------------------------------------------------------------
    def valence(self, state: GlobalState) -> ValenceResult:
        """The exact :class:`ValenceResult` of *state* (memoized).

        Raises :class:`ExplorationLimitExceeded` when the budget runs
        out first.
        """
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        return self._analyze(state)

    def bivalent(self, state: GlobalState) -> bool:
        """Shorthand: whether *state* is bivalent."""
        return self.valence(state).bivalent

    # -- the SCC/condensation pass ---------------------------------------------
    def _analyze(self, root: GlobalState) -> ValenceResult:
        region = explore_region(
            self._system, root, self._meter, self._memo, self._exhausted
        )
        self._tarjan_fold(root, region)
        return self._memo[root]

    def _exhausted(self, tripped: str) -> ExplorationLimitExceeded:
        return ExplorationLimitExceeded(
            f"valence budget exhausted ({tripped}) after "
            f"{self._meter.states} states; is the protocol finite-state?"
        )

    def _tarjan_fold(self, root: GlobalState, region: Region) -> None:
        """Fold values/divergence over the condensation of *region*.

        Components arrive only after every component reachable from them,
        so results for cross-SCC successors are always finalized when an
        SCC is folded.  All members of an SCC share one result: the union
        of their own values and of their external successors' values;
        they diverge iff the SCC is cyclic (size > 1 or a self-loop — an
        undecided infinite loop) or any external successor diverges.
        """
        memo = self._memo

        def successors(state: GlobalState):
            return (child for child in region[state] if child not in memo)

        for component in strongly_connected_components([root], successors):
            self._fold_component(component, region)

    def _fold_component(
        self, component: list[GlobalState], region: Region
    ) -> None:
        members = set(component)
        values: set = set()
        # A multi-state SCC is a cycle of non-terminal states; so is a
        # self-loop.  Either way an infinite extension can stay undecided.
        diverges = len(component) > 1
        for state in component:
            values |= self.own_values(state)
            for child in region[state]:
                if child in members:
                    if child == state:
                        diverges = True
                    continue
                child_result = self._memo[child]
                values |= child_result.values
                diverges = diverges or child_result.diverges
        result = ValenceResult(frozenset(values), diverges)
        for state in component:
            self._memo[state] = result
