"""The one sweep driver: campaigns and sharded ``check_all`` runs.

Sequential and sharded runs share one planner, one span runner and one
ordered merge (:mod:`repro.core.campaign`).  Pinned here: the campaign
hooks and resume cursors agree across ``workers``, and the sequential
path keeps its in-process semantics — one preflight gate over every
root, no unit after the first inconclusive one, and exceptions from the
user's system propagating instead of being quarantined.
"""

import copy

import pytest

from repro.analysis.sync_lower_bound import (
    make_st_system,
    verify_tight_protocols,
)
from repro.core.campaign import SweepUnit, run_campaign
from repro.core.checker import ConsensusChecker, Verdict
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.lint import contracts
from repro.models.sync import SynchronousModel
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import CampaignCheckpoint
from tests.conftest import ToySystem

TRIPPING = Budget(max_states=12)


class RaiseOnAssignment(StSynchronousLayering):
    """An ``S^t`` layering whose successor function raises on one input
    assignment — a bug in the user's system, not a budget trip."""

    def __init__(self, model, doomed):
        super().__init__(model)
        self.doomed = tuple(doomed)

    def successors(self, state):
        if tuple(local.input for local in state.locals) == self.doomed:
            raise RuntimeError("bug in the user's successor function")
        return super().successors(state)


def _doomed(assignment):
    return RaiseOnAssignment(SynchronousModel(FloodSet(2), 3, 1), assignment)


def _unit(system):
    return SweepUnit(system, system.model, Budget(), preflight=False)


class ToyModel:
    """Every input assignment of a two-process toy system starts at x."""

    def __init__(self, system):
        self.system = system
        self.n = system.n

    def initial_state(self, assignment):
        return self.system.state("x")


def reviving_system():
    """Ill-formed: process 1 is failed at the root and revives (RP203)."""
    return ToySystem(
        edges={"x": [("revive", "a")], "a": [("s", "a")]},
        decisions={"a": {0: 0, 1: 0}},
        failed={"x": frozenset({1})},
    )


def _rows(rows):
    return [
        (
            row.protocol_name,
            row.report.verdict,
            row.report.inputs,
            row.report.execution,
            row.report.states_explored,
        )
        for row in rows
    ]


class TestOnUnitParity:
    def test_parallel_fires_for_the_ending_inconclusive_unit(self):
        sequential, parallel = [], []
        verify_tight_protocols(
            3, 1, budget=TRIPPING,
            on_unit=lambda key, report: sequential.append(key),
        )
        rows = verify_tight_protocols(
            3, 1, budget=TRIPPING, workers=2,
            on_unit=lambda key, report: parallel.append(key),
        )
        assert rows[-1].inconclusive
        assert len(sequential) == 3
        assert sorted(parallel) == sorted(sequential)


class TestResumeParity:
    def test_parallel_resume_matches_sequential_resume(self):
        campaign = CampaignCheckpoint()
        suspended = verify_tight_protocols(3, 1, TRIPPING, campaign=campaign)
        assert suspended[-1].inconclusive
        cursor = campaign.resume_point("tight:st:EIG(rounds=2):n3:t1")
        assert cursor is not None and cursor.inner is not None

        twin = copy.deepcopy(campaign)
        sequential = verify_tight_protocols(3, 1, campaign=campaign)
        parallel = verify_tight_protocols(3, 1, campaign=twin, workers=2)
        assert _rows(parallel) == _rows(sequential)
        assert all(row.report.satisfied for row in sequential)


class TestSequentialSemantics:
    def test_preflight_gates_once_over_every_root(self, monkeypatch):
        contracts._clear_memo()
        probes = []
        probe = contracts.preflight_system

        def counting(system, roots, **kwargs):
            roots = list(roots)
            probes.append(len(roots))
            return probe(system, roots, **kwargs)

        monkeypatch.setattr(contracts, "preflight_system", counting)
        layering = make_st_system(FloodSet(2), 3, 1)
        report = ConsensusChecker(layering).check_all(layering.model)
        assert report.satisfied
        assert probes == [8]

    def test_ill_formed_sweep_has_no_inputs(self):
        system = reviving_system()
        report = ConsensusChecker(system).check_all(ToyModel(system))
        assert report.verdict is Verdict.ILL_FORMED
        assert report.inputs is None

    def test_no_unit_after_the_first_inconclusive(self):
        layering = make_st_system(EIG(2), 3, 1)
        doomed = _doomed((0, 0, 0))
        fired = []
        out = run_campaign(
            [
                ("trips", SweepUnit(layering, layering.model, TRIPPING)),
                ("never", _unit(doomed)),
            ],
            on_unit=lambda key, report: fired.append(key),
        )
        assert [key for key, _ in out] == ["trips"] == fired
        assert out[0][1].inconclusive

    def test_system_exception_propagates(self):
        doomed = _doomed((0, 1, 1))
        with pytest.raises(RuntimeError, match="bug in the user's"):
            run_campaign([("doomed", _unit(doomed))])
        with pytest.raises(RuntimeError, match="bug in the user's"):
            ConsensusChecker(doomed, preflight=False).check_all(doomed.model)

    def test_cached_unpreflighted_check_all(self, st_floodset_tight):
        checker = ConsensusChecker(
            st_floodset_tight, preflight=False, cache=True
        )
        report = checker.check_all(st_floodset_tight.model)
        assert report.satisfied
        stats = checker.cache_stats()
        assert stats is not None and stats.hits > 0
