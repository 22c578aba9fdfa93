"""Size sweeps: n=2 (wait-free) and n=4 across the layered models.

The paper's claims are uniform in n >= 2 (Section 6 additionally needs
n >= 3); these sweeps confirm the executable content does not silently
depend on n=3 peculiarities.
"""

import pytest

from repro.analysis.impossibility import refute_candidate
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.connectivity import lemma_3_6
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.resilience.budget import Budget


class TestWaitFreeN2:
    """n=2, 1-resilient = wait-free: consensus is famously impossible."""

    def test_quorum_defeated_everywhere(self):
        # quorum=1 means "decide on your own input immediately": the
        # degenerate wait-free attempt, defeated by agreement.
        for refutation in refute_candidate(
            QuorumDecide(1), 2, budget=Budget(max_states=300_000)
        ):
            assert refutation.verdict is Verdict.AGREEMENT, (
                refutation.model_name
            )

    def test_waitforall_starved(self):
        model = AsyncMessagePassingModel(WaitForAll(), 2)
        layering = PermutationLayering(model)
        report = ConsensusChecker(
            layering, Budget(max_states=300_000)
        ).check_all(model)
        assert report.verdict is Verdict.DECISION

    def test_bivalent_initial_exists(self):
        layering = S1MobileLayering(MobileModel(QuorumDecide(1), 2))
        analyzer = ValenceAnalyzer(layering, Budget(max_states=300_000))
        bivalent = lemma_3_6(
            layering.model.initial_states((0, 1)), layering, analyzer
        )
        assert analyzer.valence(bivalent).bivalent


@pytest.mark.slow
class TestSweepN4:
    def test_mobile_defeat(self):
        layering = S1MobileLayering(MobileModel(QuorumDecide(3), 4))
        report = ConsensusChecker(
            layering, Budget(max_states=1_500_000)
        ).check_all(layering.model)
        assert report.verdict is Verdict.AGREEMENT

    def test_synchronic_rw_defeat(self):
        layering = SynchronicRWLayering(
            SharedMemoryModel(QuorumDecide(3), 4)
        )
        report = ConsensusChecker(
            layering, Budget(max_states=1_500_000)
        ).check_all(layering.model)
        assert report.verdict is Verdict.AGREEMENT

    def test_lemma_3_6_n4(self):
        layering = S1MobileLayering(MobileModel(QuorumDecide(3), 4))
        analyzer = ValenceAnalyzer(layering, Budget(max_states=1_500_000))
        bivalent = lemma_3_6(
            layering.model.initial_states((0, 1)), layering, analyzer
        )
        assert analyzer.valence(bivalent).bivalent
