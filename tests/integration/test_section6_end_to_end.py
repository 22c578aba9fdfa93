"""End-to-end Section 6: the t+1 lower bound as the E5/E6 experiments.

The crossover claim of Corollary 6.3, mechanized: for each (n, t) in the
sweep, *every* candidate deciding in <= t rounds is defeated with an
explicit failure schedule, and the t+1-round protocols verify exhaustively
— the bound is exactly where the paper says it is.
"""

import pytest

from repro.analysis.sync_lower_bound import (
    defeat_fast_candidates,
    lemma_6_1,
    lemma_6_2,
    make_st_system,
    synchronous_bivalent_start,
    verify_tight_protocols,
)
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.valence import ValenceAnalyzer
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget


class TestCrossover:
    def test_n3_t1_crossover(self):
        defeated = defeat_fast_candidates(3, 1)
        verified = verify_tight_protocols(3, 1)
        assert all(row.defeated for row in defeated)
        assert all(row.report.satisfied for row in verified)

    def test_n4_t1_crossover(self):
        defeated = defeat_fast_candidates(
            4, 1, budget=Budget(max_states=800_000)
        )
        assert all(row.defeated for row in defeated)
        rows = verify_tight_protocols(
            4, 1, budget=Budget(max_states=800_000), include_full_model=False
        )
        assert all(row.report.satisfied for row in rows)

    def test_defeat_schedule_uses_at_most_t_failures(self):
        for row in defeat_fast_candidates(3, 1):
            layering = make_st_system(FloodSet(row.rounds), 3, 1)
            state = layering.model.initial_state(row.report.inputs)
            for action in row.report.execution.actions:
                state = layering.apply(state, action)
            assert len(layering.model.failed_at(state)) <= 1


class TestBivalenceHorizon:
    """Lemmas 6.1 + 6.2 compose into the t+1 bound for concrete runs."""

    @pytest.mark.parametrize("t", [1, 2])
    def test_bivalent_through_round_t_minus_1(self, t):
        layering = make_st_system(FloodSet(t + 1), 3, t)
        analyzer = ValenceAnalyzer(layering, budget=Budget(max_states=800_000))
        start = synchronous_bivalent_start(layering, analyzer)
        report, execution = lemma_6_1(layering, analyzer, start)
        assert report.holds
        final = execution.final
        assert lemma_6_2(layering, analyzer, final).holds

    def test_fast_decision_contradicts_bivalence(self):
        """A protocol deciding by round t has a bivalent state whose every
        non-failed process decided — the contradiction Lemma 6.2 exposes,
        observable as the agreement violation."""
        layering = make_st_system(FloodSet(1), 3, 1)
        report = ConsensusChecker(layering).check_all(layering.model)
        assert report.verdict is Verdict.AGREEMENT
