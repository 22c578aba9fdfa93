"""Unit tests for the task checker."""

import pytest

from repro.core.checker import Verdict
from repro.core.valence import ExplorationLimitExceeded
from repro.layerings.permutation import PermutationLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.tasks import (
    DecideConstantProtocol,
    DecideOwnInput,
    EpsilonAgreementProtocol,
)
from repro.resilience.budget import Budget
from repro.tasks.catalog import (
    binary_consensus,
    constant_task,
    epsilon_agreement,
    identity_task,
)
from repro.tasks.checker import TaskChecker
from repro.tasks.simplex import Simplex
from tests.conftest import ToySystem


def perm_layering(protocol):
    return PermutationLayering(AsyncMessagePassingModel(protocol, 3))


class TestPositiveControls:
    def test_identity_satisfied(self):
        layering = perm_layering(DecideOwnInput())
        checker = TaskChecker(layering, identity_task(3))
        report = checker.check_all(layering.model)
        assert report.satisfied

    def test_constant_satisfied(self):
        layering = perm_layering(DecideConstantProtocol())
        checker = TaskChecker(layering, constant_task(3))
        report = checker.check_all(layering.model)
        assert report.satisfied

    def test_epsilon_satisfied_rw(self):
        layering = SynchronicRWLayering(
            SharedMemoryModel(EpsilonAgreementProtocol(), 3)
        )
        checker = TaskChecker(layering, epsilon_agreement(3))
        report = checker.check_all(layering.model)
        assert report.satisfied


class TestNegativeControls:
    def test_quorum_decide_fails_consensus_task(self):
        layering = perm_layering(QuorumDecide(2))
        checker = TaskChecker(layering, binary_consensus(3))
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.VALIDITY
        # the Δ-violation here IS the disagreement: a split decided
        # simplex is not in the consensus output complex
        assert "not acceptable" in report.detail

    def test_waitforall_fails_decision(self):
        layering = perm_layering(WaitForAll())
        checker = TaskChecker(
            layering, binary_consensus(3), budget=Budget(max_states=300_000)
        )
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.DECISION

    def test_constant_protocol_fails_identity_task(self):
        layering = perm_layering(DecideConstantProtocol(0))
        checker = TaskChecker(layering, identity_task(3))
        report = checker.check_all(layering.model)
        assert report.verdict is Verdict.VALIDITY

    def test_witness_replays(self):
        layering = perm_layering(QuorumDecide(2))
        checker = TaskChecker(layering, binary_consensus(3))
        report = checker.check_all(layering.model)
        state = report.execution.initial
        for action in report.execution.actions:
            state = layering.apply(state, action)
        assert state == report.execution.final
        decided = TaskChecker(
            layering, binary_consensus(3)
        ).decided_simplex(state)
        assert not binary_consensus(3).acceptable(
            report.input_facet, decided
        )


class TestWrongInitialState:
    def test_input_facet_drives_initial(self):
        layering = perm_layering(DecideOwnInput())
        problem = identity_task(3)
        checker = TaskChecker(layering, problem)
        facet = Simplex.from_values([1, 0, 1])
        state = layering.model.initial_state((1, 0, 1))
        report = checker.check(state, facet)
        assert report.satisfied


class TestBudget:
    def test_tiny_budget_raises(self):
        # A SATISFIED task report is a solvability claim, so the task
        # checker raises rather than report a truncated search.
        layering = perm_layering(WaitForAll())
        checker = TaskChecker(
            layering, binary_consensus(3), budget=Budget(max_states=5)
        )
        with pytest.raises(ExplorationLimitExceeded, match="budget"):
            checker.check_all(layering.model)


class TestWriteOnceWitness:
    """Regression: the witness of a decision overwrite must end on the
    overwriting edge.  Here ``c`` is discovered first straight from
    ``x``, where nothing was decided; only the later edge ``s -> c``
    overwrites process 0's decision.  The task checker used to report
    ``c``'s BFS path ``x -p-> c``, which shows no overwrite at all."""

    def test_witness_is_the_overwriting_edge(self):
        from repro.core.checker import ConsensusChecker

        system = ToySystem(
            edges={"x": [("p", "c"), ("q", "s")], "s": [("u", "c")]},
            decisions={"s": {0: 0}, "c": {0: 1, 1: 1}},
        )
        x = system.state("x")
        report = TaskChecker(
            system, binary_consensus(2), preflight=False
        ).check(x, Simplex.from_values((0, 1)))
        assert report.verdict is Verdict.WRITE_ONCE
        assert report.execution.actions == ("q", "u")
        assert report.execution.states == (
            x, system.state("s"), system.state("c")
        )
        consensus = ConsensusChecker(system, preflight=False).check(x, (0, 1))
        assert report.execution == consensus.execution
