"""Tests for the Section 5 impossibility drivers."""

import pytest

from repro.analysis.impossibility import (
    corollary_5_2,
    corollary_5_4,
    forever_bivalent_run,
    permutation_impossibility,
    refute_candidate,
    standard_layerings,
)
from repro.core.checker import Verdict
from repro.layerings.s1_mobile import S1MobileLayering
from repro.models.mobile import MobileModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.floodset import FloodSet
from repro.protocols.full_information import (
    FullInformationProtocol,
    decide_constant,
    decide_min_observed,
)
from repro.resilience.budget import Budget


class TestStandardLayerings:
    def test_dual_protocol_gets_all_five(self):
        systems = standard_layerings(QuorumDecide(2), 3)
        assert set(systems) == {
            "s1-mobile",
            "synchronic-mp",
            "permutation-mp",
            "synchronic-rw",
            "iis-snapshot",
        }

    def test_mp_only_protocol_gets_three(self):
        systems = standard_layerings(FloodSet(2), 3)
        assert "synchronic-rw" not in systems
        assert len(systems) == 3

    def test_non_protocol_rejected(self):
        with pytest.raises(TypeError):
            standard_layerings(object(), 3)


class TestCorollaries:
    def test_5_2_defeats_min_rule(self):
        fi = FullInformationProtocol(2, decide_min_observed, "min")
        refutation = corollary_5_2(fi, 3)
        assert refutation.verdict is Verdict.AGREEMENT
        assert refutation.schedule() is not None

    def test_5_2_defeats_floodset(self):
        refutation = corollary_5_2(FloodSet(2), 3)
        assert refutation.verdict is Verdict.AGREEMENT

    def test_5_4_defeats_quorum(self):
        refutation = corollary_5_4(QuorumDecide(2), 3)
        assert refutation.verdict is Verdict.AGREEMENT

    def test_permutation_defeats_quorum(self):
        refutation = permutation_impossibility(QuorumDecide(2), 3)
        assert refutation.verdict is Verdict.AGREEMENT

    def test_validity_violating_candidate_caught(self):
        fi = FullInformationProtocol(1, decide_constant(0), "const0")
        refutation = corollary_5_2(fi, 3)
        assert refutation.verdict is Verdict.VALIDITY

    def test_waitforall_decision_violation(self):
        refutation = corollary_5_2(WaitForAll(), 3)
        assert refutation.verdict is Verdict.DECISION


class TestRefuteCandidate:
    """Theorem 4.2: no candidate is SATISFIED in any layered model."""

    @pytest.mark.parametrize(
        "protocol_factory",
        [
            lambda: QuorumDecide(2),
            lambda: WaitForAll(),
            lambda: FullInformationProtocol(2, decide_min_observed, "min"),
        ],
        ids=["quorum", "waitforall", "fi-min"],
    )
    def test_never_satisfied(self, protocol_factory):
        refutations = refute_candidate(
            protocol_factory(), 3, budget=Budget(max_states=600_000)
        )
        assert refutations
        for refutation in refutations:
            assert refutation.verdict is not Verdict.SATISFIED, (
                refutation.model_name
            )


class TestForeverBivalent:
    def test_lasso_is_bivalent_everywhere(self):
        layering = S1MobileLayering(MobileModel(QuorumDecide(2), 3))
        lasso, analyzer = forever_bivalent_run(layering)
        horizon = lasso.prefix.length + 2 * lasso.cycle.length
        for k in range(horizon + 1):
            assert analyzer.valence(lasso.state_at(k)).bivalent
