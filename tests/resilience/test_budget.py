"""Unit tests for budgets, meters and graceful checker degradation."""

import inspect

import pytest

from repro.analysis import (
    impossibility,
    solvability_experiments,
    sync_lower_bound,
    sync_tasks,
)
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.exploration import explore, reachable_states
from repro.core.valence import ValenceAnalyzer
from repro.resilience import mutation
from repro.resilience.budget import (
    DEFAULT_BUDGET,
    Budget,
    BudgetStats,
    LIMIT_EDGES,
    LIMIT_INTERRUPTED,
    LIMIT_STATES,
    LIMIT_TIME,
)
from repro.tasks import solvability
from repro.tasks.checker import TaskChecker
from repro.tasks.covering import OutcomeAnalyzer
from tests.conftest import ToySystem


class TestBudgetOf:
    def test_unlimited(self):
        b = Budget.unlimited()
        assert b.describe() == "unlimited"
        meter = b.meter()
        for _ in range(1000):
            assert meter.charge_state() is None

    def test_describe_lists_limits(self):
        text = Budget(max_states=10, max_seconds=2.0).describe()
        assert "states<=10" in text and "time<=2s" in text

    @pytest.mark.parametrize("limit", [0, -1], ids=["zero", "negative"])
    def test_zero_and_negative_trip_immediately(self, limit):
        meter = Budget(max_states=limit).meter()
        assert meter.charge_state() == LIMIT_STATES


class TestMeter:
    def test_states_limit_trips(self):
        meter = Budget(max_states=3).meter()
        assert meter.charge_state() is None
        assert meter.charge_state() is None
        assert meter.charge_state() is None
        assert meter.charge_state() == LIMIT_STATES
        assert meter.tripped == LIMIT_STATES

    def test_edges_limit_trips(self):
        meter = Budget(max_edges=2).meter()
        assert meter.charge_edge() is None
        assert meter.charge_edge() is None
        assert meter.charge_edge() == LIMIT_EDGES

    def test_deadline_trips_on_poll(self):
        meter = Budget(max_seconds=0.0).meter()
        assert meter.poll() == LIMIT_TIME

    def test_deadline_is_anchored_at_budget_construction(self):
        # Two meters from the same budget share one absolute deadline —
        # the CLI --timeout bounds the whole command, not each analysis.
        budget = Budget(max_seconds=0.0)
        assert budget.meter().poll() == LIMIT_TIME
        assert budget.meter().poll() == LIMIT_TIME

    def test_memory_estimate_and_limit(self):
        meter = Budget(max_memory_bytes=1).meter()
        meter.charge_state(("some", "state", "tuple"))
        assert meter.memory_estimate() > 1
        assert meter.poll() == "memory"

    def test_mark_interrupted(self):
        meter = Budget().meter()
        assert meter.mark_interrupted() == LIMIT_INTERRUPTED
        assert meter.stats().limit == LIMIT_INTERRUPTED

    def test_stats_snapshot(self):
        meter = Budget(max_states=1).meter()
        meter.charge_state()
        meter.charge_state()
        stats = meter.stats(frontier=4)
        assert isinstance(stats, BudgetStats)
        assert stats.states == 2 and stats.limit == LIMIT_STATES
        assert stats.frontier == 4
        assert "stopped by states limit" in stats.describe()


def _long_chain(length=50, decide_at_end=True):
    edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(length)}
    edges[f"s{length}"] = [("s", f"s{length}")]
    decisions = (
        {f"s{length}": {0: 0, 1: 0}} if decide_at_end else {}
    )
    return ToySystem(edges=edges, decisions=decisions)


class TestGracefulChecker:
    def test_budget_trip_returns_unknown_with_stats(self):
        sys_ = _long_chain()
        checker = ConsensusChecker(sys_, budget=Budget(max_states=10))
        report = checker.check(sys_.state("s0"), inputs=(0, 0))
        assert report.verdict is Verdict.UNKNOWN
        assert report.inconclusive and not report.refuted
        assert not report.satisfied
        assert report.budget_stats is not None
        assert report.budget_stats.limit == LIMIT_STATES
        assert report.budget_stats.frontier > 0
        assert report.checkpoint is not None

    def test_violation_before_trip_is_still_definitive(self):
        # A violating state within the first few steps must be reported
        # as REFUTED even under a budget that would trip soon after.
        sys_ = ToySystem(
            edges={
                "x": [("a", "bad")],
                "bad": [("s", "bad")],
            },
            decisions={"bad": {0: 0, 1: 1}},
        )
        report = ConsensusChecker(sys_, budget=Budget(max_states=2)).check(
            sys_.state("x"), inputs=(0, 1)
        )
        assert report.verdict is Verdict.AGREEMENT
        assert report.refuted

    def test_unknown_never_reported_satisfied(self):
        # Budget smaller than the space: the checker must not claim
        # SATISFIED for the part it saw.
        sys_ = _long_chain()
        report = ConsensusChecker(sys_, budget=Budget(max_states=5)).check(
            sys_.state("s0"), inputs=(0, 0)
        )
        assert not report.satisfied and report.verdict is Verdict.UNKNOWN

    def test_full_budget_reports_satisfied_with_stats(self):
        sys_ = _long_chain()
        report = ConsensusChecker(sys_).check(sys_.state("s0"), inputs=(0, 0))
        assert report.satisfied
        assert report.budget_stats is not None
        assert report.budget_stats.limit is None


class _InterruptingSystem(ToySystem):
    """Raises KeyboardInterrupt from the k-th successors() call."""

    def __init__(self, *args, interrupt_after=3, **kwargs):
        super().__init__(*args, **kwargs)
        self._calls = 0
        self._interrupt_after = interrupt_after

    def successors(self, state):
        self._calls += 1
        if self._calls == self._interrupt_after:
            raise KeyboardInterrupt
        return super().successors(state)


class TestKeyboardInterrupt:
    def test_interrupt_degrades_to_unknown_checkpoint(self):
        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(20)}
        edges["s20"] = [("s", "s20")]
        sys_ = _InterruptingSystem(
            edges=edges,
            decisions={"s20": {0: 0, 1: 0}},
            interrupt_after=5,
        )
        report = ConsensusChecker(sys_).check(sys_.state("s0"), inputs=(0, 0))
        assert report.verdict is Verdict.UNKNOWN
        assert report.interrupted
        assert report.budget_stats.limit == LIMIT_INTERRUPTED
        assert report.checkpoint is not None

    def test_task_checker_propagates_interrupt(self):
        """The task checker shares the consensus checker's search, which
        turns Ctrl-C into a stopped frontier; with no UNKNOWN verdict to
        report, the task checker re-raises it."""
        from repro.tasks.catalog import binary_consensus
        from repro.tasks.simplex import Simplex

        edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(20)}
        edges["s20"] = [("s", "s20")]
        sys_ = _InterruptingSystem(
            edges=edges,
            decisions={"s20": {0: 0, 1: 0}},
            interrupt_after=5,
        )
        checker = TaskChecker(sys_, binary_consensus(2), preflight=False)
        with pytest.raises(KeyboardInterrupt):
            checker.check(sys_.state("s0"), Simplex.from_values((0, 0)))


#: Every public engine and driver that explores a state space.
ENTRY_POINTS = [
    ConsensusChecker,
    ValenceAnalyzer,
    explore,
    reachable_states,
    TaskChecker,
    OutcomeAnalyzer,
    solvability.verify_protocol_solves,
    solvability.corollary_7_3_row,
    solvability.defeat_in_every_model,
    impossibility.refute_candidate,
    impossibility.forever_bivalent_run,
    impossibility.corollary_5_2,
    impossibility.corollary_5_4,
    impossibility.permutation_impossibility,
    sync_lower_bound.defeat_fast_candidates,
    sync_lower_bound.verify_tight_protocols,
    sync_lower_bound.lemma_6_4,
    sync_tasks.check_solves_in_rounds,
    solvability_experiments.solvability_matrix,
    solvability_experiments.lemma_7_1_run,
    solvability_experiments.diameter_table,
    mutation.mutation_campaign,
]


class TestOneBudgetType:
    """Every entry point takes one ``budget: Budget = DEFAULT_BUDGET``
    parameter: no ``max_states`` integer alias, no ``strict`` switch."""

    @pytest.mark.parametrize(
        "entry", ENTRY_POINTS, ids=lambda entry: entry.__qualname__
    )
    def test_signature(self, entry):
        params = inspect.signature(entry).parameters
        assert "max_states" not in params
        assert "strict" not in params
        budget = params["budget"]
        assert budget.annotation in (Budget, "Budget")
        assert budget.default is DEFAULT_BUDGET

