"""Unit tests for the exhaustive consensus checker."""

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.core.state import GlobalState
from repro.resilience.budget import Budget
from tests.conftest import ToySystem


class TestToyVerdicts:
    def test_satisfied_on_clean_system(self):
        sys = ToySystem(
            edges={"x": [("d", "t")], "t": [("s", "t")]},
            decisions={"t": {0: 0, 1: 0}},
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 0))
        assert report.verdict is Verdict.SATISFIED
        assert report.satisfied

    def test_agreement_violation(self):
        sys = ToySystem(
            edges={"x": [("d", "bad")], "bad": [("s", "bad")]},
            decisions={"bad": {0: 0, 1: 1}},
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 1))
        assert report.verdict is Verdict.AGREEMENT
        assert report.execution.final == sys.state("bad")
        assert report.inputs == (0, 1)

    def test_validity_violation(self):
        sys = ToySystem(
            edges={"x": [("d", "t")], "t": [("s", "t")]},
            decisions={"t": {0: 5, 1: 5}},
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 1))
        assert report.verdict is Verdict.VALIDITY
        assert "5" in report.detail

    def test_decision_violation_with_lasso(self):
        sys = ToySystem(
            edges={
                "x": [("c", "c1")],
                "c1": [("f", "c2")],
                "c2": [("b", "c1")],
            },
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 1))
        assert report.verdict is Verdict.DECISION
        witness = report.run_witness()
        # the lasso really cycles
        assert witness.cycle.initial == witness.cycle.final

    def test_write_once_violation(self):
        sys = ToySystem(
            edges={
                "x": [("d", "a")],
                "a": [("u", "b")],
                "b": [("s", "b")],
            },
            decisions={"a": {0: 0}, "b": {0: 1, 1: 1}},
        )
        # preflight=False: this exercises the checker's own in-exploration
        # write-once guard; the contract preflight would (correctly) refuse
        # the system as ILL_FORMED before the BFS ever ran.
        report = ConsensusChecker(sys, preflight=False).check(
            sys.state("x"), (0, 1)
        )
        assert report.verdict is Verdict.WRITE_ONCE

    def test_faulty_starvation_is_not_decision_violation(self):
        # A cycle starving only a process that is faulty under the cycle's
        # actions is not a violation.
        class OneFaultyToy(ToySystem):
            def nonfaulty_under(self, action):
                return frozenset({0})  # process 1 faulty under every action

        sys = OneFaultyToy(
            edges={
                "x": [("c", "c1")],
                "c1": [("f", "c2")],
                "c2": [("b", "c1")],
            },
            decisions={"c1": {0: 0}, "c2": {0: 0}},
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 0))
        # process 0 decided on the cycle; process 1 is faulty: satisfied.
        assert report.verdict is Verdict.SATISFIED

    def test_run_witness_requires_decision_verdict(self):
        sys = ToySystem(
            edges={"x": [("d", "t")], "t": [("s", "t")]},
            decisions={"t": {0: 0, 1: 0}},
        )
        report = ConsensusChecker(sys).check(sys.state("x"), (0, 0))
        with pytest.raises(ValueError):
            report.run_witness()


class TestWitnessReplay:
    def test_agreement_witness_replays(self, st_floodset_fast):
        layering = st_floodset_fast
        report = ConsensusChecker(layering).check_all(layering.model)
        assert report.verdict is Verdict.AGREEMENT
        # Replay the schedule from the initial state of the reported inputs.
        state = layering.model.initial_state(report.inputs)
        assert state == report.execution.initial
        for action in report.execution.actions:
            state = layering.apply(state, action)
        assert state == report.execution.final
        decided = layering.decisions(state)
        failed = layering.failed_at(state)
        values = {v for i, v in decided.items() if i not in failed}
        assert len(values) > 1  # the violation is really there

    def test_decision_witness_replays(self, quorum_permutation):
        from repro.models.async_mp import AsyncMessagePassingModel
        from repro.layerings.permutation import PermutationLayering
        from repro.protocols.candidates import WaitForAll

        layering = PermutationLayering(
            AsyncMessagePassingModel(WaitForAll(), 3)
        )
        report = ConsensusChecker(
            layering, budget=Budget(max_states=300_000)
        ).check_all(layering.model)
        assert report.verdict is Verdict.DECISION
        witness = report.run_witness()
        # Replay prefix + two cycle turns through the layering.
        state = witness.prefix.initial
        for k in range(witness.prefix.length + 2 * witness.cycle.length):
            state_expected = witness.state_at(k + 1)
            state = layering.apply(state, witness.action_at(k))
            assert state == state_expected


class TestCheckAll:
    def test_satisfied_aggregate(self, st_floodset_tight):
        layering = st_floodset_tight
        report = ConsensusChecker(layering).check_all(layering.model)
        assert report.satisfied
        assert "8 input assignments" in report.detail

    def test_first_violation_returned(self, st_floodset_fast):
        layering = st_floodset_fast
        report = ConsensusChecker(layering).check_all(layering.model)
        assert not report.satisfied
        assert report.inputs is not None
