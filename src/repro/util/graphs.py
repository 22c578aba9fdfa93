"""Small explicit-graph algorithms used by the analyses.

The paper reasons about two graphs over sets of global states: the
*similarity graph* ``(X, ~s)`` and the *valence graph* ``(X, ~v)``
(Definition 3.1).  Both are small, undirected and built explicitly; for
them this module provides connectivity, components, shortest paths and
diameter.  The state-space engines (valence and outcome analyzers) also
need one directed algorithm: the strongly connected components of an
explored successor graph, in the order a backwards fold over its
condensation consumes them (:func:`strongly_connected_components`).
Implementing these here (rather than importing networkx) keeps the core
library dependency-free and the algorithms one screen long.

Vertices can be arbitrary hashable objects (global states, simplexes, ...).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Hashable, Iterable, Iterator
from typing import Optional


class Graph:
    """A simple undirected graph with hashable vertices.

    Self-loops are permitted but ignored by the path algorithms (a vertex is
    always at distance 0 from itself).  Parallel edges collapse.
    """

    def __init__(
        self,
        vertices: Iterable[Hashable] = (),
        edges: Iterable[tuple[Hashable, Hashable]] = (),
    ) -> None:
        self._adj: dict[Hashable, set[Hashable]] = {}
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v: Hashable) -> None:
        """Add a vertex (idempotent)."""
        self._adj.setdefault(v, set())

    def add_edge(self, u: Hashable, v: Hashable) -> None:
        """Add an undirected edge, creating endpoints as needed."""
        self.add_vertex(u)
        self.add_vertex(v)
        if u != v:
            self._adj[u].add(v)
            self._adj[v].add(u)

    def vertices(self) -> frozenset[Hashable]:
        """The vertex set."""
        return frozenset(self._adj)

    def neighbors(self, v: Hashable) -> frozenset[Hashable]:
        """The neighbours of *v* (KeyError if absent)."""
        return frozenset(self._adj[v])

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        return u in self._adj and v in self._adj[u]

    def __contains__(self, v: Hashable) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={len(self)}, |E|={self.edge_count()})"


def connected_components(graph: Graph) -> list[frozenset[Hashable]]:
    """Return the connected components of *graph* as frozensets of vertices."""
    seen: set[Hashable] = set()
    components: list[frozenset[Hashable]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component: set[Hashable] = set()
        queue: deque[Hashable] = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            component.add(v)
            for w in graph.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(frozenset(component))
    return components


def is_connected(graph: Graph) -> bool:
    """True iff *graph* has at most one connected component.

    The empty graph is considered connected (vacuously), matching the
    convention used throughout the connectivity lemmas: an empty set of
    states is both similarity- and valence-connected.
    """
    return len(connected_components(graph)) <= 1


def shortest_path_lengths(graph: Graph, source: Hashable) -> dict[Hashable, int]:
    """BFS distances from *source* to every reachable vertex."""
    dist: dict[Hashable, int] = {source: 0}
    queue: deque[Hashable] = deque([source])
    while queue:
        v = queue.popleft()
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def shortest_path(
    graph: Graph, source: Hashable, target: Hashable
) -> Optional[list[Hashable]]:
    """A shortest path from *source* to *target*, or None if disconnected.

    The returned list includes both endpoints; a path from a vertex to
    itself is the singleton list.
    """
    if source not in graph or target not in graph:
        return None
    parent: dict[Hashable, Hashable] = {source: source}
    queue: deque[Hashable] = deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            path = [v]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            return path
        for w in graph.neighbors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


def diameter(graph: Graph) -> int:
    """The diameter of *graph* (max over pairs of shortest-path length).

    Raises ``ValueError`` on a disconnected or empty graph, because the
    s-diameter bounds of Lemma 7.6 are only meaningful for connected sets.
    """
    verts = graph.vertices()
    if not verts:
        raise ValueError("diameter of an empty graph is undefined")
    best = 0
    for v in verts:
        dist = shortest_path_lengths(graph, v)
        if len(dist) != len(verts):
            raise ValueError("diameter of a disconnected graph is undefined")
        best = max(best, max(dist.values()))
    return best


def strongly_connected_components(
    roots: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
) -> Iterator[list[Hashable]]:
    """The strongly connected components reachable from *roots*
    (iterative Tarjan), each as a list of vertices.

    A component is yielded only after every component reachable from it,
    i.e. in reverse topological order of the condensation, so a fold
    running backwards over the graph finds every successor outside the
    component already folded.  ``successors(v)`` is called once, when
    *v* is first reached, and iterated lazily; a caller prunes the graph
    (e.g. skips vertices whose result is already known) by filtering
    inside it.  The filter may change while the generator is suspended:
    dropping vertices of components already yielded (say, because the
    caller just memoized them) changes nothing, as they are finished.
    """
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    scc_stack: list[Hashable] = []
    for root in roots:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        scc_stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            vertex, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = len(index)
                    scc_stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    break
                if child in on_stack and index[child] < lowlink[vertex]:
                    lowlink[vertex] = index[child]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[vertex] < lowlink[parent]:
                        lowlink[parent] = lowlink[vertex]
                if lowlink[vertex] == index[vertex]:
                    component = []
                    while True:
                        member = scc_stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == vertex:
                            break
                    yield component
