"""Unit and exhaustive tests for the early-deciding FloodSet."""

import pytest

from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker
from repro.models.sync import NO_FAILURE, SynchronousModel, fail_action
from repro.protocols.early_deciding import EarlyDecidingFloodSet
from repro.resilience.budget import Budget


@pytest.fixture
def proto():
    return EarlyDecidingFloodSet(t=1)


class TestUnit:
    def test_t_validated(self):
        with pytest.raises(ValueError):
            EarlyDecidingFloodSet(0)

    def test_failure_free_round_decides_immediately(self, proto):
        model = SynchronousModel(proto, 3, 1)
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, NO_FAILURE)
        assert model.decisions(state) == {0: 0, 1: 0, 2: 0}

    def test_omission_delays_victim_only(self, proto):
        model = SynchronousModel(proto, 3, 1)
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, fail_action((0, frozenset({1}))))
        decisions = model.decisions(state)
        assert 1 not in decisions  # p1 saw a hole, waits
        assert decisions.get(2) == 0  # p2 heard everyone, decides early

    def test_decided_processes_keep_broadcasting(self, proto):
        model = SynchronousModel(proto, 3, 1)
        state = model.initial_state((0, 1, 1))
        state = model.apply(state, fail_action((0, frozenset({1}))))
        # round 2: p2 (decided, holding 0) must relay; p1 converges to 0.
        state = model.apply(state, NO_FAILURE)
        decisions = model.decisions(state)
        assert decisions[1] == 0
        values = {decisions[1], decisions[2]}
        assert values == {0}

    def test_unconditional_decision_at_t_plus_1(self, proto):
        model = SynchronousModel(proto, 3, 1)
        state = model.initial_state((1, 1, 1))
        state = model.apply(state, fail_action((0, frozenset({1}))))
        state = model.apply(state, NO_FAILURE)
        assert set(model.decisions(state)) == {0, 1, 2}


class TestExhaustive:
    @pytest.mark.parametrize("n,t", [(3, 1), (4, 1), (4, 2)])
    def test_satisfies_consensus_under_st(self, n, t):
        layering = make_st_system(EarlyDecidingFloodSet(t), n, t)
        report = ConsensusChecker(
            layering, Budget(max_states=2_000_000)
        ).check_all(layering.model)
        assert report.satisfied, report.detail

    def test_satisfies_consensus_full_model(self):
        model = SynchronousModel(EarlyDecidingFloodSet(1), 3, 1)
        report = ConsensusChecker(
            model, Budget(max_states=2_000_000)
        ).check_all(model)
        assert report.satisfied

    def test_beats_t_plus_1_on_clean_runs(self):
        """The early decision is real: failure-free runs decide in round
        1 even with t=2 (where FloodSet would take 3 rounds)."""
        proto = EarlyDecidingFloodSet(t=2)
        model = SynchronousModel(proto, 4, 2)
        state = model.initial_state((0, 1, 1, 0))
        state = model.apply(state, NO_FAILURE)
        assert len(model.decisions(state)) == 4
