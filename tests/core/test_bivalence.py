"""Unit tests for the bivalent-run engine (Lemma 4.1 / Theorem 4.2)."""

import pytest

from repro.core.bivalence import (
    NoBivalentSuccessor,
    bivalent_successor,
    build_bivalent_execution,
    build_bivalent_lasso,
)
from repro.core.valence import ValenceAnalyzer
from repro.resilience.budget import Budget
from tests.conftest import ToySystem


@pytest.fixture
def bivalent_chain_system():
    """x0 -> x1 -> x2 -> x0 ... all bivalent (each can branch to 0 or 1)."""
    return ToySystem(
        edges={
            "x0": [("n", "x1"), ("d0", "t0")],
            "x1": [("n", "x2"), ("d1", "t1")],
            "x2": [("n", "x0"), ("d0", "t0")],
            "t0": [("s", "t0")],
            "t1": [("s", "t1")],
        },
        decisions={"t0": {0: 0, 1: 0}, "t1": {0: 1, 1: 1}},
    )


class TestBivalentSuccessor:
    def test_picks_bivalent_child(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        step = bivalent_successor(sys, an, sys.state("x0"))
        assert step.state == sys.state("x1")
        assert step.action == "n"

    def test_requires_bivalent_start(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        with pytest.raises(ValueError):
            bivalent_successor(sys, an, sys.state("t0"))

    def test_no_bivalent_successor_raises_with_diagnosis(self):
        # x is bivalent, but its layer {a, b} splits 0/1-univalent and is
        # NOT valence connected — Lemma 4.1's premise fails, so the
        # engine reports NoBivalentSuccessor with layer_connected=False.
        sys = ToySystem(
            edges={
                "x": [("l", "a"), ("r", "b")],
                "a": [("s", "a")],
                "b": [("s", "b")],
            },
            decisions={"a": {0: 0, 1: 0}, "b": {0: 1, 1: 1}},
        )
        an = ValenceAnalyzer(sys)
        with pytest.raises(NoBivalentSuccessor) as err:
            bivalent_successor(sys, an, sys.state("x"))
        assert err.value.layer_connected is False

    def test_connectivity_check_flag(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        step = bivalent_successor(
            sys, an, sys.state("x0"), check_connectivity=True
        )
        assert step.layer_valence_connected


class TestBuildExecution:
    def test_all_states_bivalent(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        execution = build_bivalent_execution(sys, an, sys.state("x0"), 7)
        assert execution.length == 7
        for state in execution:
            assert an.valence(state).bivalent

    def test_rejects_non_bivalent_start(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        with pytest.raises(ValueError):
            build_bivalent_execution(sys, an, sys.state("t1"), 3)


class TestBuildLasso:
    def test_lasso_closes(self, bivalent_chain_system):
        sys = bivalent_chain_system
        an = ValenceAnalyzer(sys)
        lasso = build_bivalent_lasso(sys, an, sys.state("x0"))
        assert lasso.cycle.initial == lasso.cycle.final
        assert lasso.cycle.length >= 1
        # every state of the infinite run is bivalent
        for k in range(12):
            assert an.valence(lasso.state_at(k)).bivalent

    def test_lasso_on_real_layering(self, quorum_permutation):
        from repro.core.connectivity import lemma_3_6

        layering = quorum_permutation
        an = ValenceAnalyzer(layering, budget=Budget(max_states=300_000))
        start = lemma_3_6(
            layering.model.initial_states((0, 1)), layering, an
        )
        lasso = build_bivalent_lasso(layering, an, start)
        for k in range(lasso.prefix.length + lasso.cycle.length + 1):
            assert an.valence(lasso.state_at(k)).bivalent
