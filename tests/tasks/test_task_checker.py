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
