"""Tests for the ablation statistics and table rendering."""

from repro.analysis.reports import render_table, render_verdict_rows
from repro.analysis.statistics import FilteredLayering, layer_statistics
from repro.analysis.sync_lower_bound import defeat_fast_candidates
from repro.core.exploration import explore
from repro.core.similarity import is_similarity_connected
from repro.core.valence import ValenceAnalyzer
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide


def make_layering():
    return SynchronicRWLayering(SharedMemoryModel(QuorumDecide(2), 3))


class TestLayerStatistics:
    def test_basic_measurement(self):
        layering = make_layering()
        state = layering.model.initial_state((0, 1, 1))
        stats = layer_statistics("s-rw", layering, state)
        assert stats.actions == 15
        assert 2 <= stats.distinct_successors <= 15
        assert stats.valence_connected is None

    def test_with_analyzer(self):
        layering = make_layering()
        analyzer = ValenceAnalyzer(layering)
        state = layering.model.initial_state((0, 1, 1))
        stats = layer_statistics("s-rw", layering, state, analyzer)
        assert stats.valence_connected is True


class TestFilteredLayering:
    def test_ablating_absent_actions(self):
        """E9's headline ablation: without the (j,A) actions the layer's
        states are all the Y states — similarity connected on their own —
        but the submodel loses the ability to starve a process at all."""
        layering = make_layering()
        filtered = FilteredLayering(
            layering, keep=lambda a: a[0] != "absent", name="no-absent"
        )
        state = layering.model.initial_state((0, 1, 1))
        assert len(filtered.layer_actions(state)) == 12
        successors = [
            filtered.apply(state, a) for a in filtered.layer_actions(state)
        ]
        assert is_similarity_connected(successors, filtered)

    def test_full_layer_not_similarity_connected(self):
        """...whereas the full layer is not (the absent states hang off
        the diamond, not the chain)."""
        layering = make_layering()
        state = layering.model.initial_state((0, 1, 1))
        successors = [
            layering.apply(state, a) for a in layering.layer_actions(state)
        ]
        assert not is_similarity_connected(successors, layering)

    def test_filter_preserves_expansion(self):
        layering = make_layering()
        filtered = FilteredLayering(layering, keep=lambda a: True)
        state = layering.model.initial_state((0, 1, 1))
        action = layering.layer_actions(state)[0]
        assert filtered.apply(state, action) == layering.apply(state, action)


class TestSubmodelSize:
    def test_explores(self):
        layering = make_layering()
        stats = explore(
            layering,
            [layering.model.initial_state((0, 1, 1))],
            max_depth=1,
        )
        assert stats.states > 1
        assert stats.depth_reached == 1


class TestRendering:
    def test_render_table_alignment(self):
        table = render_table(
            ["name", "value"], [["a", 1], ["long-name", True]]
        )
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]
        assert "yes" in lines[3]

    def test_render_none_and_floats(self):
        table = render_table(["x"], [[None], [1.23456]])
        assert "-" in table
        assert "1.235" in table

    def test_render_verdict_rows(self):
        rows = defeat_fast_candidates(3, 1)
        text = render_verdict_rows(rows)
        assert "agreement-violation" in text
        assert "FloodSet" in text
