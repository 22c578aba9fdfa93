"""Unit tests for the iterated-immediate-snapshot layering."""

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.core.similarity import similar, similarity_witnesses
from repro.core.state import agree_modulo
from repro.core.valence import ValenceAnalyzer
from repro.layerings.base import verify_layering_embedding
from repro.layerings.iterated_snapshot import (
    IteratedSnapshotLayering,
    blocks_schedule,
    short_blocks_schedule,
    solo_diamond,
    split_merge_edges,
)
from repro.models.shared_memory import SharedMemoryModel
from repro.models.snapshot import SnapshotMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.full_information import FullInformationProtocol
from repro.resilience.budget import Budget
from repro.util.orderings import ordered_partitions


@pytest.fixture
def layering():
    return IteratedSnapshotLayering(
        SnapshotMemoryModel(FullInformationProtocol(4), 3)
    )


class TestStructure:
    def test_requires_snapshot_model(self):
        with pytest.raises(TypeError):
            IteratedSnapshotLayering(
                SharedMemoryModel(QuorumDecide(2), 3)
            )

    def test_action_count(self, layering):
        state = layering.model.initial_state((0, 1, 1))
        # 13 ordered partitions of 3 + 3 * 3 ordered partitions of 2
        assert len(layering.layer_actions(state)) == 22

    def test_ordered_partition_counts(self):
        assert len(ordered_partitions(range(3))) == 13
        assert len(ordered_partitions(range(4))) == 75
        assert ordered_partitions([]) == [()]

    def test_embedding(self, layering):
        state = layering.model.initial_state((0, 1, 1))
        for action in layering.layer_actions(state):
            trace = verify_layering_embedding(layering, state, action)
            assert layering.model.at_phase_boundary(trace[-1])

    def test_unknown_action_rejected(self, layering):
        state = layering.model.initial_state((0, 1, 1))
        with pytest.raises(ValueError):
            layering.expand(state, ("spiral", ()))


class TestConnectivity:
    def test_split_merge_edges_similar(self, layering):
        state = layering.model.initial_state((0, 1, 1))
        for a, b in split_merge_edges(3):
            x = layering.apply(state, a)
            y = layering.apply(state, b)
            assert x == y or similar(x, y, layering), (a, b)

    def test_split_merge_witness_is_singleton(self, layering):
        state = layering.model.initial_state((0, 1, 1))
        # [{0}, {1, 2}] merged to [{0, 1, 2}]: witness must be 0
        split = blocks_schedule(
            [frozenset({0}), frozenset({1, 2})]
        )
        merged = blocks_schedule([frozenset({0, 1, 2})])
        x = layering.apply(state, split)
        y = layering.apply(state, merged)
        assert agree_modulo(x, y, 0)
        assert 0 in similarity_witnesses(x, y, layering)

    def test_full_layer_similarity_connected_without_shorts(self, layering):
        from repro.core.similarity import is_similarity_connected

        state = layering.model.initial_state((0, 1, 1))
        fulls = [
            layering.apply(state, a)
            for a in layering.layer_actions(state)
            if a[0] == "blocks"
        ]
        assert is_similarity_connected(fulls, layering)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_solo_diamond_equality(self, layering, j):
        state = layering.model.initial_state((0, 1, 1))
        left, right = solo_diamond(j, 3)
        y = state
        for action in left:
            y = layering.apply(y, action)
        y_prime = state
        for action in right:
            y_prime = layering.apply(y_prime, action)
        assert y == y_prime


class TestImpossibility:
    def test_quorum_defeated(self):
        model = SnapshotMemoryModel(QuorumDecide(2), 3)
        layering = IteratedSnapshotLayering(model)
        report = ConsensusChecker(
            layering, Budget(max_states=400_000)
        ).check_all(model)
        assert report.verdict is Verdict.AGREEMENT

    def test_waitforall_starved(self):
        model = SnapshotMemoryModel(WaitForAll(), 3)
        layering = IteratedSnapshotLayering(model)
        report = ConsensusChecker(
            layering, Budget(max_states=400_000)
        ).check_all(model)
        assert report.verdict is Verdict.DECISION
        cycle_kinds = {a[0] for a in report.cycle.actions}
        assert cycle_kinds <= {"short-blocks", "blocks"}

    def test_layer_valence_connected(self):
        model = SnapshotMemoryModel(QuorumDecide(2), 3)
        layering = IteratedSnapshotLayering(model)
        analyzer = ValenceAnalyzer(layering, Budget(max_states=400_000))
        state = model.initial_state((0, 1, 1))
        from repro.core.connectivity import is_valence_connected

        layer = [child for _, child in layering.successors(state)]
        assert is_valence_connected(layer, analyzer)

    def test_nonfaulty_under(self, layering):
        short = short_blocks_schedule([frozenset({0, 2})])
        assert layering.nonfaulty_under(short) == frozenset({0, 2})
        full = blocks_schedule([frozenset({0, 1, 2})])
        assert layering.nonfaulty_under(full) == frozenset({0, 1, 2})
