"""Unit tests for the solvability drivers (Theorem 7.2 / Corollary 7.3)."""

import pytest

from repro.core.checker import Verdict
from repro.protocols.candidates import QuorumDecide
from repro.protocols.tasks import DecideOwnInput
from repro.resilience.budget import Budget
from repro.tasks.catalog import binary_consensus, identity_task
from repro.tasks.checker import TaskReport
from repro.tasks.solvability import (
    SolvabilityRow,
    corollary_7_3_row,
    defeat_in_every_model,
    one_resilient_layerings,
    theorem_7_2_consistency,
    verify_protocol_solves,
)

BUDGET = Budget(max_states=400_000)


def fake_report(verdict):
    return TaskReport(
        verdict=verdict,
        input_facet=None,
        execution=None,
        cycle=None,
        detail="",
        states_explored=0,
    )


class TestSolvabilityRow:
    def test_no_reports_means_unknown(self):
        row = SolvabilityRow("t", thick_connected=True, reports={})
        assert row.operationally_solved is None
        assert row.consistent_with_characterization

    def test_all_satisfied(self):
        row = SolvabilityRow(
            "t",
            thick_connected=True,
            reports={"m": fake_report(Verdict.SATISFIED)},
        )
        assert row.operationally_solved is True
        assert row.consistent_with_characterization

    def test_inconsistency_detected(self):
        # a verified solver for a non-thick-connected problem would
        # falsify the characterization
        row = SolvabilityRow(
            "t",
            thick_connected=False,
            reports={"m": fake_report(Verdict.SATISFIED)},
        )
        assert not row.consistent_with_characterization

    def test_defeated_solver_is_consistent_either_way(self):
        row = SolvabilityRow(
            "t",
            thick_connected=False,
            reports={"m": fake_report(Verdict.VALIDITY)},
        )
        assert row.operationally_solved is False
        assert row.consistent_with_characterization


class TestTheorem72Consistency:
    def test_solved_requires_thick(self):
        reports = {"m": fake_report(Verdict.SATISFIED)}
        assert theorem_7_2_consistency(None, reports, thick_connected=True)
        assert not theorem_7_2_consistency(
            None, reports, thick_connected=False
        )

    def test_unsolved_always_consistent(self):
        reports = {"m": fake_report(Verdict.DECISION)}
        assert theorem_7_2_consistency(None, reports, thick_connected=False)


class TestDrivers:
    def test_one_resilient_layerings_shape(self):
        systems = one_resilient_layerings(DecideOwnInput(), 3)
        assert set(systems) == {
            "synchronic-rw",
            "synchronic-mp",
            "permutation-mp",
            "iis-snapshot",
        }

    def test_verify_identity_solver(self):
        reports = verify_protocol_solves(
            identity_task(3), DecideOwnInput(), budget=BUDGET
        )
        assert all(r.satisfied for r in reports.values())

    def test_defeat_consensus_candidate(self):
        reports = defeat_in_every_model(
            binary_consensus(3), QuorumDecide(2), budget=BUDGET
        )
        assert reports
        assert all(not r.satisfied for r in reports.values())

    def test_corollary_row_for_identity(self):
        row = corollary_7_3_row(
            identity_task(3), DecideOwnInput(), budget=BUDGET
        )
        assert row.thick_connected
        assert row.operationally_solved is True
        assert row.consistent_with_characterization
