"""Unit tests for the explicit-graph algorithms."""

import pytest

from repro.util.graphs import (
    Graph,
    connected_components,
    diameter,
    is_connected,
    shortest_path,
    shortest_path_lengths,
    strongly_connected_components,
)


def path_graph(k: int) -> Graph:
    return Graph(edges=[(i, i + 1) for i in range(k - 1)])


class TestGraphBasics:
    def test_empty_graph(self):
        g = Graph()
        assert len(g) == 0
        assert g.edge_count() == 0

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert len(g) == 1

    def test_add_edge_adds_vertices(self):
        g = Graph(edges=[("a", "b")])
        assert "a" in g and "b" in g
        assert g.has_edge("a", "b")
        assert g.has_edge("b", "a")

    def test_parallel_edges_collapse(self):
        g = Graph(edges=[("a", "b"), ("a", "b")])
        assert g.edge_count() == 1

    def test_self_loop_ignored_in_adjacency(self):
        g = Graph(edges=[("a", "a")])
        assert "a" in g
        assert not g.has_edge("a", "a")

    def test_neighbors(self):
        g = Graph(edges=[("a", "b"), ("a", "c")])
        assert g.neighbors("a") == frozenset({"b", "c"})

    def test_hashable_vertex_types(self):
        g = Graph(edges=[((1, 2), frozenset({3}))])
        assert (1, 2) in g


class TestComponents:
    def test_single_component(self):
        g = path_graph(5)
        comps = connected_components(g)
        assert len(comps) == 1
        assert comps[0] == frozenset(range(5))

    def test_two_components(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        comps = connected_components(g)
        assert len(comps) == 2
        assert frozenset({"a", "b"}) in comps

    def test_isolated_vertex_is_component(self):
        g = Graph(vertices=["x"], edges=[("a", "b")])
        assert len(connected_components(g)) == 2

    def test_empty_graph_connected(self):
        assert is_connected(Graph())

    def test_singleton_connected(self):
        assert is_connected(Graph(vertices=["a"]))

    def test_disconnected_detected(self):
        assert not is_connected(Graph(vertices=["a", "b"]))


class TestPaths:
    def test_distances(self):
        g = path_graph(4)
        assert shortest_path_lengths(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_shortest_path_endpoints(self):
        g = path_graph(4)
        assert shortest_path(g, 0, 3) == [0, 1, 2, 3]

    def test_shortest_path_to_self(self):
        g = path_graph(3)
        assert shortest_path(g, 1, 1) == [1]

    def test_shortest_path_prefers_shortcut(self):
        g = path_graph(4)
        g.add_edge(0, 3)
        assert shortest_path(g, 0, 3) == [0, 3]

    def test_no_path_returns_none(self):
        g = Graph(vertices=["a", "b"])
        assert shortest_path(g, "a", "b") is None

    def test_missing_vertex_returns_none(self):
        g = Graph(vertices=["a"])
        assert shortest_path(g, "a", "zzz") is None


class TestDiameter:
    def test_path_diameter(self):
        assert diameter(path_graph(5)) == 4

    def test_cycle_diameter(self):
        g = Graph(edges=[(i, (i + 1) % 6) for i in range(6)])
        assert diameter(g) == 3

    def test_complete_graph_diameter(self):
        g = Graph(
            edges=[(i, j) for i in range(4) for j in range(i + 1, 4)]
        )
        assert diameter(g) == 1

    def test_singleton_diameter(self):
        assert diameter(Graph(vertices=["a"])) == 0

    def test_disconnected_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph(vertices=["a", "b"]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diameter(Graph())


class TestStronglyConnectedComponents:
    def test_components_arrive_after_their_successors(self):
        edges = {
            "a": ["b"], "b": ["c", "a"], "c": ["d"], "d": ["c", "e"],
            "e": [], "f": ["a"],
        }
        order = [
            sorted(c)
            for c in strongly_connected_components("af", edges.__getitem__)
        ]
        assert order == [["e"], ["c", "d"], ["a", "b"], ["f"]]

    def test_filtered_successors_prune_the_graph(self):
        edges = {"a": ["b", "c"], "b": ["a"], "c": ["a"]}
        order = list(
            strongly_connected_components(
                ["a"], lambda v: [w for w in edges[v] if w != "c"]
            )
        )
        assert [sorted(c) for c in order] == [["a", "b"]]
