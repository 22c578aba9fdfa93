"""t-round synchronous decision tasks (Lemmas 7.4, 7.5).

The paper's Section 7 ends with the synchronous side of the story: a
task solvable within ``t`` rounds of the ``t``-resilient synchronous
model must be ``t``-thick connected (Lemma 7.5; Lemma 7.4 supplies the
bivalent prefix), and the diameter series of Theorem 7.7 strengthens the
condition further.  This module provides the operational half:

* :func:`check_solves_in_rounds` — exhaustively verify that a protocol
  solves a task in the ``S^t`` submodel with every run deciding within a
  given number of layers;
* :func:`lemma_7_5_consistency` — the executable form of Lemma 7.5: a
  verified ``t``-round solution implies the task's t-thick-connectivity
  verdict must be True (checked with the combinatorial machinery).

Positive instances shipped: the identity and constant tasks (0 rounds)
and discretized approximate agreement (1 round — each process hears at
least ``n-1`` inputs in the single round, which is exactly the quorum
the :class:`EpsilonAgreementProtocol` needs).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.checker import Verdict
from repro.core.run import Execution
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded, all_nonfailed_decided
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.sync import SynchronousModel
from repro.protocols.base import MessagePassingProtocol
from repro.tasks.checker import TaskChecker, TaskReport
from repro.resilience.budget import DEFAULT_BUDGET, Budget
from repro.tasks.problem import DecisionProblem
from repro.tasks.thick import problem_is_k_thick_connected


def check_solves_in_rounds(
    problem: DecisionProblem,
    protocol: MessagePassingProtocol,
    t: int,
    rounds: int,
    budget: Budget = DEFAULT_BUDGET,
) -> TaskReport:
    """Verify a protocol solves *problem* within *rounds* ``S^t`` layers.

    Runs the exhaustive task checker and additionally enforces the round
    bound: every run must have all non-failed processes decided within
    ``rounds`` layers of the initial state.  Returns the checker's
    report; a round-bound breach is reported as a DECISION verdict with
    the offending execution.
    """
    model = SynchronousModel(protocol, problem.n, t)
    layering = StSynchronousLayering(model)
    checker = TaskChecker(layering, problem, budget)
    report = checker.check_all(model)
    if not report.satisfied:
        return report
    breach = _round_bound_breach(layering, problem, rounds, budget)
    if breach is not None:
        return breach
    return report


#: A round-bound BFS node: a state and the number of layers taken to it.
_Node = tuple[GlobalState, int]


def _round_bound_breach(
    layering: StSynchronousLayering,
    problem: DecisionProblem,
    rounds: int,
    budget: Budget,
) -> Optional[TaskReport]:
    """BFS every run to depth *rounds*; an undecided frontier state is a
    breach of the round bound, reported with the run that reaches it.

    Nodes are ``(state, depth)`` pairs, since a protocol's local state
    need not record the round; each keeps its BFS parent edge so the
    witness replays from the model's initial state.
    """
    model = layering.model
    meter = budget.meter()
    for facet in sorted(problem.input_facets(), key=repr):
        assignment = [facet.value_of(i) for i in range(problem.n)]
        initial = model.initial_state(assignment)
        root: _Node = (initial, 0)
        frontier: deque[_Node] = deque([root])
        parent: dict[_Node, Optional[tuple[_Node, object]]] = {root: None}
        while frontier:
            node = frontier.popleft()
            state, depth = node
            if all_nonfailed_decided(model, state):
                continue
            if depth >= rounds:
                return TaskReport(
                    verdict=Verdict.DECISION,
                    input_facet=facet,
                    execution=_path_to(node, parent),
                    cycle=None,
                    detail=(
                        f"some run undecided after {rounds} round(s); "
                        f"undecided non-failed processes remain"
                    ),
                    states_explored=len(parent),
                )
            for action, child in layering.successors(state):
                key = (child, depth + 1)
                if key not in parent:
                    tripped = meter.charge_state(child)
                    if tripped is not None:
                        raise ExplorationLimitExceeded(
                            f"round-bound BFS budget exhausted ({tripped})"
                        )
                    parent[key] = (node, action)
                    frontier.append(key)
    return None


def _path_to(
    node: _Node, parent: dict[_Node, Optional[tuple[_Node, object]]]
) -> Execution:
    """The execution from the BFS root to *node* along parent edges."""
    states = [node[0]]
    actions = []
    while parent[node] is not None:
        node, action = parent[node]
        states.append(node[0])
        actions.append(action)
    return Execution(tuple(reversed(states)), tuple(reversed(actions)))


def lemma_7_5_consistency(
    problem: DecisionProblem,
    report: TaskReport,
    t: int,
    max_input_set_size: Optional[int] = 3,
) -> bool:
    """Lemma 7.5, executable: a verified t-round solution implies the
    task is t-thick connected."""
    if not report.satisfied:
        return True  # nothing to check: the premise fails
    return problem_is_k_thick_connected(
        problem, k=t, max_input_set_size=max_input_set_size
    )
