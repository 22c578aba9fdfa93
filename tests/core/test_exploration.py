"""Unit tests for reachability exploration and statistics."""

import pytest

from repro.core.exploration import explore, reachable_states
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import Budget
from tests.conftest import ToySystem


@pytest.fixture
def chain_system():
    edges = {f"s{i}": [("n", f"s{i+1}")] for i in range(5)}
    edges["s5"] = [("s", "s5")]
    return ToySystem(edges=edges)


class TestReachableStates:
    def test_depths(self, chain_system):
        sys = chain_system
        depths = reachable_states(sys, [sys.state("s0")])
        assert depths[sys.state("s0")] == 0
        assert depths[sys.state("s5")] == 5
        assert len(depths) == 6

    def test_max_depth(self, chain_system):
        sys = chain_system
        depths = reachable_states(sys, [sys.state("s0")], max_depth=2)
        assert len(depths) == 3

    def test_multiple_roots_deduped(self, chain_system):
        sys = chain_system
        depths = reachable_states(
            sys, [sys.state("s0"), sys.state("s0"), sys.state("s3")]
        )
        assert depths[sys.state("s3")] == 0

    def test_limit(self, chain_system):
        sys = chain_system
        with pytest.raises(ExplorationLimitExceeded):
            reachable_states(
                sys, [sys.state("s0")], budget=Budget(max_states=2)
            )


class TestExplore:
    def test_stats_shape(self, chain_system):
        sys = chain_system
        stats = explore(sys, [sys.state("s0")])
        assert stats.states == 6
        assert stats.depth_reached == 5
        assert stats.frontier_sizes == [1] * 6
        assert stats.min_layer_size == 1
        assert stats.max_layer_size == 1

    def test_sharing_ratio(self):
        # x has two actions to the same child: one duplicate edge at the
        # set level is collapsed per state, but both a and b lead to c.
        sys = ToySystem(
            edges={
                "x": [("l", "a"), ("r", "b")],
                "a": [("n", "c")],
                "b": [("n", "c")],
                "c": [("s", "c")],
            }
        )
        stats = explore(sys, [sys.state("x")])
        assert stats.duplicate_hits >= 1
        assert 0 < stats.sharing_ratio < 1

    def test_real_layering_stats(self, mobile_floodset):
        layering = mobile_floodset
        stats = explore(
            layering,
            [layering.model.initial_state((0, 1, 1))],
            max_depth=2,
        )
        assert stats.states > 1
        # S_1 has n(n+1) = 12 actions but duplicates collapse
        assert stats.max_layer_size <= 12


class TestEdgeAccounting:
    """``stats.edges`` counts generated (action, child) pairs — the same
    accounting ``reachable_states`` charges its budget with.  Regression:
    ``explore`` used to count only *distinct* children per expansion, so
    its edge numbers (and E9's sharing_ratio) disagreed with the budget
    charged for the identical walk."""

    def _fanin(self):
        # x reaches a twice through different actions: 2 generated pairs,
        # 1 distinct child.  Self-loops keep the successor function total.
        return ToySystem(
            edges={
                "x": [("l", "a"), ("r", "a"), ("m", "b")],
                "a": [("s", "a")],
                "b": [("s", "b")],
            }
        )

    def test_duplicate_actions_counted_per_pair(self):
        sys = self._fanin()
        stats = explore(sys, [sys.state("x")])
        # x generates 3 pairs, a and b one self-loop each.
        assert stats.edges == 5
        # (r, a) is a duplicate pair, and both self-loops re-hit their
        # origin: 3 of the 5 generated successors were already known.
        assert stats.duplicate_hits == 3

    def test_edge_budget_agrees_with_reachable_states(self):
        sys = self._fanin()
        roots = [sys.state("x")]
        stats = explore(sys, roots)
        # The identical walk fits a budget of exactly stats.edges ...
        depths = reachable_states(
            sys, roots, budget=Budget(max_edges=stats.edges)
        )
        assert len(depths) == stats.states
        # ... and trips one edge below it, in both engines.
        short = Budget(max_edges=stats.edges - 1)
        with pytest.raises(ExplorationLimitExceeded):
            reachable_states(sys, roots, budget=short)
        clipped = explore(sys, roots, budget=short)
        assert not clipped.complete and clipped.limit == "edges"


class TestRootFrontierBudget:
    """Seeding the root frontier charges the state budget like any other
    discovery.  Regression: both explorers used to discard the
    ``charge_state`` return for roots, so a root set larger than the
    state budget blew straight past it."""

    def _roots(self, chain_system):
        return [chain_system.state(f"s{i}") for i in range(6)]

    def test_reachable_states_strict_raises_while_seeding(self, chain_system):
        with pytest.raises(ExplorationLimitExceeded, match="seeding"):
            reachable_states(
                chain_system,
                self._roots(chain_system),
                budget=Budget(max_states=3),
            )

    def test_explore_root_frontier_trips(self, chain_system):
        roots = self._roots(chain_system)
        stats = explore(
            chain_system, roots, budget=Budget(max_states=3)
        )
        assert not stats.complete
        assert stats.limit == "states"
        assert stats.states == 4
        assert stats.edges == 0  # stopped before expanding anything
