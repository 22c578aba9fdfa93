"""Coverings and generalized valence (Section 7).

A *covering* of a set of runs ``R`` is a pair ``O_0, O_1`` of
n-size-complexes such that every decided output simplex of a run of ``R``
lies in ``O_0 ∪ O_1`` and each side contains at least one.  Generalized
valence then replaces "decides v" by "the nonfaulty processes' decision
simplex lies in ``O_v``", and *always valence connected* means valence
connected with respect to **every** covering.

Computing this needs the set of *run outcomes* from a state: the decided
simplexes of the maximal fair runs extending it.  :class:`OutcomeAnalyzer`
computes them over a finite-state layered system in three passes:

1. explore the reachable graph;
2. assign **base outcomes**:

   * every *terminal* state (all non-failed decided) contributes the
     decision simplex of its non-failed processes;
   * for every candidate nonfaulty set ``N`` of size ``>= n-1`` (the
     paper's layerings starve at most one process per layer, so every
     fair run's nonfaulty set has at least ``n-1`` members), every cyclic
     SCC of the subgraph restricted to ``N``-preserving edges contributes
     either the decision simplex of its exact loop-nonfaulty set ``M``
     (when all of ``M`` decided — a *settled* starvation loop) or a
     divergence flag (some nonfaulty process looping undecided — a
     decision violation);

3. propagate base outcomes and divergence backwards over the
   condensation of the full graph (Tarjan, reverse topological order).

Exactness note: runs that *alternate* starvation targets forever are
covered by the candidate-set passes only up to a face of their outcome;
for the protocols this library ships such runs always reach a terminal
state (everyone decides), so the computed outcome sets are exact.  See
DESIGN.md.

Quantification over coverings reduces to bipartitions of the finite
outcome set: any covering's valence relation contains some bipartition's
(assign each overlap outcome to either side), and edges only grow with
overlap, so connectivity for all bipartitions implies it for all
coverings.  :func:`always_valence_connected` enumerates the bipartitions.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.core.state import GlobalState
from repro.core.valence import (
    ExplorationLimitExceeded,
    Region,
    all_nonfailed_decided,
    explore_region,
)
from repro.resilience.budget import DEFAULT_BUDGET, Budget
from repro.tasks.complex import Complex
from repro.tasks.simplex import Simplex
from repro.util.graphs import (
    Graph,
    is_connected,
    strongly_connected_components,
)


@dataclass(frozen=True)
class Covering:
    """A covering ``(O_0, O_1)`` presented by two complexes."""

    side0: Complex
    side1: Complex

    def side(self, v: int) -> Complex:
        """The complex ``O_v``."""
        if v == 0:
            return self.side0
        if v == 1:
            return self.side1
        raise ValueError("coverings are binary: v in {0, 1}")

    def covers(self, outcomes: Sequence[Simplex]) -> bool:
        """Whether this pair is a covering of runs with these outcomes."""
        all_in = all(d in self.side0 or d in self.side1 for d in outcomes)
        has0 = any(d in self.side0 for d in outcomes)
        has1 = any(d in self.side1 for d in outcomes)
        return all_in and has0 and has1


@dataclass(frozen=True, slots=True)
class OutcomeResult:
    """Outcome set of a state.

    Attributes:
        outcomes: decided simplexes of the maximal fair runs extending the
            state.
        diverges: whether some fair extension violates the decision
            requirement (a loop starving a nonfaulty undecided process).
    """

    outcomes: frozenset  # of Simplex
    diverges: bool

    def valent_for(self, covering: Covering, v: int) -> bool:
        """Generalized ``v``-valence w.r.t. the covering."""
        side = covering.side(v)
        return any(d in side for d in self.outcomes)

    def bivalent_for(self, covering: Covering) -> bool:
        """Generalized bivalence: valent for both sides of the covering."""
        return self.valent_for(covering, 0) and self.valent_for(covering, 1)


class OutcomeAnalyzer:
    """Memoized run-outcome sets over a layered system (module docstring).

    ``budget`` is a :class:`~repro.resilience.Budget` (states, edges,
    wall clock, memory) shared across all queries.  The covering
    quantification acts on exact outcome sets, so a truncated set could
    flip always-valence-connectivity verdicts; budget exhaustion raises
    :class:`~repro.core.valence.ExplorationLimitExceeded`.
    """

    def __init__(
        self, system, budget: Budget = DEFAULT_BUDGET
    ) -> None:
        self._system = system
        self._meter = budget.meter()
        self._memo: dict[GlobalState, OutcomeResult] = {}

    def outcome(self, state: GlobalState) -> OutcomeResult:
        """The exact :class:`OutcomeResult` of *state* (memoized)."""
        cached = self._memo.get(state)
        if cached is not None:
            return cached
        self._analyze(state)
        return self._memo[state]

    # -- helpers ------------------------------------------------------------
    def _decided_simplex(self, state: GlobalState, members) -> Simplex:
        decisions = self._system.decisions(state)
        return Simplex((i, decisions[i]) for i in members if i in decisions)

    # -- the three passes -------------------------------------------------------
    def _analyze(self, root: GlobalState) -> None:
        meter = self._meter
        region = explore_region(
            self._system,
            root,
            meter,
            self._memo,
            lambda tripped: ExplorationLimitExceeded(
                f"outcome budget exhausted ({tripped}) after "
                f"{meter.states} states"
            ),
        )
        base_out, base_div = self._base_outcomes(root.n, region)
        self._propagate(root, region, base_out, base_div)

    def _base_outcomes(self, n: int, region: Region):
        """Pass 2: terminal and settled-loop outcomes, divergence flags."""
        base_out: dict[GlobalState, set] = {}
        base_div: set[GlobalState] = set()
        system = self._system
        for state in region:
            if state in self._memo:
                cached = self._memo[state]
                base_out.setdefault(state, set()).update(cached.outcomes)
                if cached.diverges:
                    base_div.add(state)
            elif all_nonfailed_decided(system, state):
                failed = system.failed_at(state)
                members = [i for i in range(n) if i not in failed]
                base_out.setdefault(state, set()).add(
                    self._decided_simplex(state, members)
                )
        candidates = [frozenset(range(n))] + [
            frozenset(range(n)) - {j} for j in range(n)
        ]
        for target in candidates:
            self._loop_pass(target, region, base_out, base_div)
        return base_out, base_div

    def _loop_pass(self, target, region: Region, base_out, base_div) -> None:
        """Find cyclic SCCs of the target-preserving subgraph."""
        system = self._system
        sub: dict[GlobalState, list[GlobalState]] = {}
        for state, children in region.items():
            if state in self._memo or target & system.failed_at(state):
                continue
            kept = []
            for child, actions in children.items():
                if child in self._memo or target & system.failed_at(child):
                    continue
                if any(target <= system.nonfaulty_under(a) for a in actions):
                    kept.append(child)
            if kept:
                sub[state] = kept
        for component in _cyclic_sccs(sub):
            loop_nonfaulty = set(target)
            for state in component:
                for child in sub.get(state, ()):
                    if child in component:
                        # The loop's exact nonfaulty set intersects over
                        # the best available action per internal edge.
                        best = frozenset()
                        for a in region[state][child]:
                            nf = system.nonfaulty_under(a)
                            if target <= nf and len(nf) > len(best):
                                best = nf
                        loop_nonfaulty &= best
                loop_nonfaulty -= system.failed_at(state)
            any_member = next(iter(component))
            decisions = self._system.decisions(any_member)
            undecided = [i for i in loop_nonfaulty if i not in decisions]
            if undecided:
                base_div.update(component)
            else:
                simplex = self._decided_simplex(
                    any_member, sorted(loop_nonfaulty)
                )
                for state in component:
                    base_out.setdefault(state, set()).add(simplex)

    def _propagate(self, root, region: Region, base_out, base_div) -> None:
        """Pass 3: fold bases backwards over the full-graph condensation."""
        memo = self._memo

        def successors(state: GlobalState):
            return (child for child in region[state] if child not in memo)

        for component in strongly_connected_components([root], successors):
            outcomes: set = set()
            diverges = False
            members = set(component)
            for m in component:
                outcomes |= base_out.get(m, set())
                diverges = diverges or m in base_div
                for child in region[m]:
                    if child in members:
                        continue
                    child_result = memo[child]
                    outcomes |= child_result.outcomes
                    diverges = diverges or child_result.diverges
            result = OutcomeResult(frozenset(outcomes), diverges)
            for m in component:
                memo[m] = result


def _cyclic_sccs(edges: dict[GlobalState, list[GlobalState]]):
    """SCCs of an explicit graph that contain a cycle (size > 1 or a
    self-loop), as sets."""
    for component in strongly_connected_components(
        edges, lambda state: [c for c in edges[state] if c in edges]
    ):
        if len(component) > 1 or component[0] in edges[component[0]]:
            yield set(component)


# -- covering enumeration and always-valence-connectivity --------------------


def bipartition_coverings(outcomes: Sequence[Simplex]) -> Iterator[Covering]:
    """All bipartitions of the outcome set, as coverings.

    Checking these suffices for *always* valence connectivity (see module
    docstring).  ``2^(d-1) - 1`` coverings for ``d`` outcomes.
    """
    outcomes = sorted(set(outcomes), key=repr)
    d = len(outcomes)
    if d < 2:
        return
    for mask in range(1, 1 << (d - 1)):
        side0 = [outcomes[b] for b in range(d) if mask >> b & 1]
        side1 = [outcomes[b] for b in range(d) if not mask >> b & 1]
        yield Covering(Complex(side0), Complex(side1))


def valence_graph_for_covering(
    states: Sequence[GlobalState],
    analyzer: OutcomeAnalyzer,
    covering: Covering,
) -> Graph:
    """The generalized valence graph ``(X, ~v)`` w.r.t. one covering."""
    states = list(dict.fromkeys(states))
    graph = Graph(vertices=states)
    results = [analyzer.outcome(s) for s in states]
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            shared = any(
                results[a].valent_for(covering, v)
                and results[b].valent_for(covering, v)
                for v in (0, 1)
            )
            if shared:
                graph.add_edge(states[a], states[b])
    return graph


def always_valence_connected(
    states: Sequence[GlobalState],
    analyzer: OutcomeAnalyzer,
    max_bipartition_outcomes: int = 16,
) -> bool:
    """Whether ``X`` is valence connected w.r.t. *every* covering of the
    runs through ``X`` (Section 7's *always valence connected*).

    Two-tier check.  Tier 1 (cheap, sufficient): if two states share a
    concrete outcome ``d``, then under *every* covering ``d`` lies on some
    side, so the pair shares a valence — if the shared-outcome graph is
    already connected, the property holds outright.  Tier 2 (exact,
    exponential): enumerate the bipartition coverings of the outcome set;
    refuses (rather than silently sampling) beyond
    ``max_bipartition_outcomes`` distinct outcomes.
    """
    states = list(dict.fromkeys(states))
    results = [analyzer.outcome(s) for s in states]
    shared_graph = Graph(vertices=range(len(states)))
    for a in range(len(states)):
        for b in range(a + 1, len(states)):
            if results[a].outcomes & results[b].outcomes:
                shared_graph.add_edge(a, b)
    if is_connected(shared_graph):
        return True
    all_outcomes: set[Simplex] = set()
    for r in results:
        all_outcomes |= r.outcomes
    if len(all_outcomes) > max_bipartition_outcomes:
        raise RuntimeError(
            f"{len(all_outcomes)} distinct outcomes: exact covering "
            "enumeration would be astronomical and the shared-outcome "
            "graph is not connected; raise max_bipartition_outcomes to force"
        )
    for covering in bipartition_coverings(sorted(all_outcomes, key=repr)):
        if not is_connected(
            valence_graph_for_covering(states, analyzer, covering)
        ):
            return False
    return True
