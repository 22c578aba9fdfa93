"""Tests for the Section 6 lower-bound drivers."""

import pytest

from repro.analysis.sync_lower_bound import (
    defeat_fast_candidates,
    lemma_6_1,
    lemma_6_2,
    lemma_6_4,
    make_st_system,
    synchronous_bivalent_start,
    verify_tight_protocols,
)
from repro.core.checker import Verdict
from repro.core.valence import ValenceAnalyzer
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget


class TestCorollary63:
    def test_all_fast_candidates_defeated_n3_t1(self):
        rows = defeat_fast_candidates(3, 1)
        assert len(rows) == 2  # FloodSet(1), EIG(1)
        for row in rows:
            assert row.defeated
            assert row.report.verdict is Verdict.AGREEMENT

    def test_tight_protocols_verified_n3_t1(self):
        rows = verify_tight_protocols(3, 1)
        assert len(rows) == 4  # two protocols x {S^t, full}
        for row in rows:
            assert row.report.satisfied, row.protocol_name

    def test_all_fast_candidates_defeated_n4_t2(self):
        rows = defeat_fast_candidates(
            4, 2, budget=Budget(max_states=2_000_000)
        )
        assert len(rows) == 4  # rounds 1 and 2, two protocols
        for row in rows:
            assert row.defeated, (row.protocol_name, row.rounds)

    def test_tight_verified_n4_t2(self):
        rows = verify_tight_protocols(
            4, 2, budget=Budget(max_states=2_000_000), include_full_model=False
        )
        for row in rows:
            assert row.report.satisfied, row.protocol_name

    def test_boundary_t_equals_n_minus_1(self):
        """Section 6 assumes t <= n-2.  At n=3, t=2 the bound genuinely
        collapses: with both failures spent only one nonfaulty process
        remains and agreement is vacuous, so the 2-round protocols
        SURVIVE the S^t adversary."""
        rows = defeat_fast_candidates(3, 2, budget=Budget(max_states=500_000))
        two_round = [r for r in rows if r.rounds == 2]
        assert two_round
        assert all(r.report.satisfied for r in two_round)


class TestLemma61:
    def test_bivalent_extension_t2(self):
        layering = make_st_system(FloodSet(3), 3, 2)
        analyzer = ValenceAnalyzer(layering)
        start = synchronous_bivalent_start(layering, analyzer)
        report, execution = lemma_6_1(layering, analyzer, start)
        assert report.holds
        assert execution.length == layering.t - 1
        for state in execution:
            assert analyzer.valence(state).bivalent

    def test_rejects_univalent_start(self):
        layering = make_st_system(FloodSet(2), 3, 1)
        analyzer = ValenceAnalyzer(layering)
        state = layering.model.initial_state((0, 0, 0))
        report, _ = lemma_6_1(layering, analyzer, state)
        assert not report.holds


class TestLemma62:
    def test_two_more_rounds_needed(self):
        layering = make_st_system(FloodSet(2), 3, 1)
        analyzer = ValenceAnalyzer(layering)
        start = synchronous_bivalent_start(layering, analyzer)
        report = lemma_6_2(layering, analyzer, start)
        assert report.holds
        assert report.witnesses.get("witness_undecided")


class TestLemma64:
    def test_floodset_fast_univalence_t1(self):
        report = lemma_6_4(3, 1)
        assert report.holds
        assert report.witnesses["checked"] > 0

    def test_eig_fast_univalence_t1(self):
        report = lemma_6_4(3, 1, protocol=EIG(2))
        assert report.holds
