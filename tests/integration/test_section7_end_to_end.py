"""End-to-end Section 7: the solvability matrix (experiment E7) and the
generalized bivalence construction (Lemma 7.1)."""

import pytest

from repro.analysis.solvability_experiments import (
    lemma_7_1_run,
    solvability_matrix,
)
from repro.layerings.permutation import PermutationLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget
from repro.tasks.catalog import EXPECTED_SOLVABLE
from repro.tasks.complex import Complex
from repro.tasks.covering import Covering, OutcomeAnalyzer
from repro.tasks.simplex import Simplex


FAST_TASKS = ["consensus", "identity", "constant", "leader-election"]


class TestSolvabilityMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return solvability_matrix(
            n=3, tasks=FAST_TASKS, budget=Budget(max_states=600_000)
        )

    def test_every_row_matches_expectation(self, matrix):
        for name, entry in matrix.items():
            assert entry.matches_expectation, name

    def test_thick_verdicts(self, matrix):
        for name, entry in matrix.items():
            assert entry.row.thick_connected == EXPECTED_SOLVABLE[name], name

    def test_solvers_verified(self, matrix):
        for name in ("identity", "constant"):
            assert matrix[name].row.operationally_solved is True

    def test_unsolvable_candidates_defeated(self, matrix):
        for name in ("consensus", "leader-election"):
            defeats = matrix[name].defeats
            assert defeats
            assert all(not r.satisfied for r in defeats.values())

    def test_corollary_7_3_consistency(self, matrix):
        for name, entry in matrix.items():
            assert entry.row.consistent_with_characterization, name


@pytest.mark.slow
class TestSolvabilityMatrixSlowTasks:
    def test_epsilon_agreement_row(self):
        matrix = solvability_matrix(
            n=3, tasks=["epsilon-agreement"], budget=Budget(max_states=800_000)
        )
        entry = matrix["epsilon-agreement"]
        assert entry.matches_expectation
        assert entry.row.operationally_solved is True

    def test_2_set_agreement_solver_verified(self):
        """The quorum-minimum protocol solves 2-set agreement over
        three-valued inputs, exhaustively, in the permutation and IIS
        submodels — the k=2 side of the BG/HS/SZ frontier."""
        from repro.layerings.iterated_snapshot import (
            IteratedSnapshotLayering,
        )
        from repro.models.snapshot import SnapshotMemoryModel
        from repro.protocols.tasks import KSetAgreementProtocol
        from repro.tasks.catalog import k_set_agreement
        from repro.tasks.checker import TaskChecker

        task = k_set_agreement(3, 2)
        for layering in (
            IteratedSnapshotLayering(
                SnapshotMemoryModel(KSetAgreementProtocol(2), 3)
            ),
            PermutationLayering(
                AsyncMessagePassingModel(KSetAgreementProtocol(2), 3)
            ),
        ):
            report = TaskChecker(
                layering, task, Budget(max_states=1_500_000)
            ).check_all(layering.model)
            assert report.satisfied, report.detail


class TestLemma71:
    def test_covering_bivalent_run(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        layering = PermutationLayering(model)
        initials = model.initial_states((0, 1))
        analyzer = OutcomeAnalyzer(layering, budget=Budget(max_states=400_000))
        # Build a genuine covering of the runs from Con_0: QuorumDecide
        # violates agreement, so mixed-decision outcomes exist and the
        # two sides must be carved from the actual outcome set — side 0
        # takes every outcome containing a 0-decision, side 1 the
        # all-1-decision outcomes (they overlap on faces; fine).
        outcomes = set()
        for s in initials:
            outcomes |= analyzer.outcome(s).outcomes
        side0 = [d for d in outcomes if 0 in d.values()]
        side1 = [d for d in outcomes if d.values() == {1}]
        covering = Covering(Complex(side0), Complex(side1))
        assert covering.covers(sorted(outcomes, key=repr))
        states = lemma_7_1_run(
            layering,
            covering,
            initials,
            length=3,
            budget=Budget(max_states=400_000),
        )
        assert len(states) == 4
        for state in states:
            assert analyzer.outcome(state).bivalent_for(covering)

    def test_rejects_non_covering(self):
        model = AsyncMessagePassingModel(QuorumDecide(2), 3)
        layering = PermutationLayering(model)
        bogus = Covering(
            Complex([Simplex.from_values([9, 9, 9])]),
            Complex([Simplex.from_values([1, 1, 1])]),
        )
        with pytest.raises(ValueError):
            lemma_7_1_run(
                layering,
                bogus,
                model.initial_states((0, 1)),
                length=1,
                budget=Budget(max_states=400_000),
            )
