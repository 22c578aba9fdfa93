"""Tests for the executable lemma checks across models."""

import pytest

from repro.analysis.lemmas import (
    lemma_3_1,
    lemma_3_2,
    lemma_3_6_report,
    lemma_4_1,
    lemma_5_1,
    lemma_5_3,
)
from repro.core.valence import ValenceAnalyzer
from repro.layerings.s1_mobile import S1MobileLayering, similarity_chain
from repro.layerings.synchronic_mp import SynchronicMPLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget


@pytest.fixture
def mobile_system():
    layering = S1MobileLayering(MobileModel(FloodSet(2), 3))
    return layering, ValenceAnalyzer(layering)


class TestLemma31And32:
    def test_3_1_on_bivalent_initial(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 1, 1))
        report = lemma_3_1(layering, analyzer, state, t=1)
        assert report.holds
        assert len(report.witnesses["undecided"]) >= 2

    def test_3_1_vacuous_on_univalent(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 0, 0))
        report = lemma_3_1(layering, analyzer, state, t=1)
        assert report.holds and "vacuous" in report.detail

    def test_3_2_no_decided_at_bivalent(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 1, 1))
        report = lemma_3_2(layering, analyzer, state)
        assert report.holds

    def test_3_2_checks_all_reachable_for_agreeing_protocol(self):
        """Lemma 3.2 presumes agreement — check it on WaitForAll, which
        satisfies agreement and validity (sacrificing decision)."""
        from repro.core.exploration import reachable_states
        from repro.protocols.candidates import WaitForAll

        layering = S1MobileLayering(MobileModel(WaitForAll(), 3))
        analyzer = ValenceAnalyzer(layering, budget=Budget(max_states=300_000))
        initial = layering.model.initial_state((0, 1, 1))
        for state in reachable_states(layering, [initial], max_depth=2):
            assert lemma_3_2(layering, analyzer, state).holds

    def test_3_2_premise_matters(self, mobile_system):
        """FloodSet(2) under unbounded mobile failures violates agreement,
        so Lemma 3.2's conclusion genuinely fails on a reachable state —
        documenting that the agreement premise is load-bearing."""
        from repro.core.exploration import reachable_states

        layering, analyzer = mobile_system
        initial = layering.model.initial_state((0, 1, 1))
        reports = [
            lemma_3_2(layering, analyzer, state)
            for state in reachable_states(layering, [initial], max_depth=2)
        ]
        assert any(not r.holds for r in reports)


class TestLemma36:
    def test_mobile(self, mobile_system):
        layering, analyzer = mobile_system
        initials = layering.model.initial_states((0, 1))
        report = lemma_3_6_report(layering, analyzer, initials)
        assert report.holds
        assert report.witnesses["bivalent_initial"] is not None

    def test_shared_memory(self):
        layering = SynchronicRWLayering(
            SharedMemoryModel(QuorumDecide(2), 3)
        )
        analyzer = ValenceAnalyzer(layering)
        initials = layering.model.initial_states((0, 1))
        report = lemma_3_6_report(layering, analyzer, initials)
        assert report.holds


class TestLemma41:
    def test_holds_along_bivalent_walk(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 1, 1))
        for _ in range(2):
            report = lemma_4_1(layering, analyzer, state)
            assert report.holds
            if "vacuous" in report.detail:
                break
            # descend to some bivalent successor and repeat
            for _, child in layering.successors(state):
                if analyzer.valence(child).bivalent:
                    state = child
                    break


class TestLemma51:
    def test_mobile_layer(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 1, 1))
        report = lemma_5_1(
            layering, analyzer, state, similarity_chain(layering, state)
        )
        assert report.holds
        assert report.witnesses["layer_size"] >= 2

    def test_mobile_layer_at_depth(self, mobile_system):
        layering, analyzer = mobile_system
        state = layering.model.initial_state((0, 1, 1))
        from repro.models.mobile import prefix_action

        deeper = layering.apply(state, prefix_action(0, 2))
        report = lemma_5_1(
            layering, analyzer, deeper, similarity_chain(layering, deeper)
        )
        assert report.holds


class TestLemma53:
    def _diamonds(self, module, n):
        return [
            (*module.absent_diamond(j, n), j) for j in range(n)
        ]

    def test_synchronic_rw(self):
        import repro.layerings.synchronic_rw as rw

        layering = SynchronicRWLayering(
            SharedMemoryModel(QuorumDecide(2), 3)
        )
        analyzer = ValenceAnalyzer(layering)
        state = layering.model.initial_state((0, 1, 1))
        report = lemma_5_3(
            layering,
            analyzer,
            state,
            rw.y_chain(3),
            self._diamonds(rw, 3),
        )
        assert report.holds, report.detail

    def test_synchronic_mp(self):
        import repro.layerings.synchronic_mp as mp

        layering = SynchronicMPLayering(
            AsyncMessagePassingModel(QuorumDecide(2), 3)
        )
        analyzer = ValenceAnalyzer(layering, budget=Budget(max_states=500_000))
        state = layering.model.initial_state((0, 1, 1))
        report = lemma_5_3(
            layering,
            analyzer,
            state,
            mp.y_chain(3),
            self._diamonds(mp, 3),
        )
        assert report.holds, report.detail
