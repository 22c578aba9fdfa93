"""Reachability exploration and state-space statistics.

Support machinery for the experiment drivers and benchmarks: breadth-first
enumeration of the states reachable under a successor system, per-depth
frontier sizes, and layer-size statistics.  These are the numbers the
ablation experiments (E9) report — how big the submodels defined by each
layering actually are, and how much sharing the canonical hashable state
representation buys.

:func:`explore` and :func:`reachable_states` run one breadth-first walk,
charging a cooperative :class:`~repro.resilience.Budget` (states,
edges, wall clock, best-effort memory); they differ only in their
result.  On exhaustion :func:`explore` returns the partial statistics
with ``complete=False`` and the tripped limit recorded.
:func:`reachable_states` returns a bare ``{state: depth}`` mapping,
which cannot express partiality, so it raises
:class:`~repro.core.valence.ExplorationLimitExceeded` instead.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import CacheSpec, CacheStats, CachedSystem, resolve_cache
from repro.core.state import GlobalState
from repro.core.valence import ExplorationLimitExceeded
from repro.resilience.budget import DEFAULT_BUDGET, Budget
from repro.resilience.chaos import crashpoint


@dataclass
class ExplorationStats:
    """Statistics from a bounded reachability exploration."""

    states: int = 0
    edges: int = 0
    depth_reached: int = 0
    frontier_sizes: list[int] = field(default_factory=list)
    duplicate_hits: int = 0
    min_layer_size: int = 0
    max_layer_size: int = 0
    complete: bool = True
    limit: Optional[str] = None
    seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None

    @property
    def sharing_ratio(self) -> float:
        """Fraction of generated successors that were already known —
        how much the DAG structure collapses the naive schedule tree.

        ``edges`` counts every generated ``(action, child)`` pair —
        matching what :func:`reachable_states` charges its budget — so
        two layer actions leading to the same child count as two
        generated successors, one of which is a duplicate hit.
        """
        if self.edges == 0:
            return 0.0
        return self.duplicate_hits / self.edges

    @property
    def states_per_second(self) -> float:
        """Exploration throughput (0.0 when no time was measured)."""
        if self.seconds <= 0.0:
            return 0.0
        return self.states / self.seconds


def _bfs(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None,
    budget: Budget,
    cache: CacheSpec,
    preflight: bool,
) -> tuple[dict[GlobalState, int], ExplorationStats, str]:
    """The one breadth-first walk behind :func:`explore` and
    :func:`reachable_states`.

    Returns ``(depth, stats, where)``: the first-reached depth of every
    state charged, the statistics :func:`explore` reports, and — when a
    limit tripped (``stats.limit``) — where it tripped, for the
    exception :func:`reachable_states` raises.  Every trip is honoured
    at its charge site: the every-256-ops slow check would let a
    high-degree expansion overshoot the edge budget by a whole layer.

    The walk returns bare state sets with no verdict channel, so (unlike
    the checkers' ``ILL_FORMED`` reports) a failed contract preflight
    surfaces as :class:`~repro.lint.IllFormedSystemError` carrying the
    findings and witness edges.
    """
    root_seq = list(roots)
    if preflight:
        from repro.lint.contracts import preflight_once

        report = preflight_once(system, root_seq)
        if report is not None:
            report.raise_if_ill_formed()
    system = resolve_cache(system, cache)
    meter = budget.meter()
    stats = ExplorationStats()
    depth: dict[GlobalState, int] = {}
    queue: deque[GlobalState] = deque()
    tripped: Optional[str] = None
    where = ""
    for root in root_seq:
        if root not in depth:
            depth[root] = 0
            tripped = meter.charge_state(root)
            if tripped is not None:
                # The root frontier alone can exhaust the state budget.
                where = f"while seeding {meter.states} root states"
                break
            queue.append(root)
    per_depth: dict[int, int] = {0: len(depth)}
    layer_sizes: list[int] = []
    while queue and tripped is None:
        state = queue.popleft()
        child_depth = depth[state] + 1
        if max_depth is not None and child_depth > max_depth:
            continue
        pairs = system.successors(state)
        # The layer size is the number of *distinct* successor states,
        # but edges count every generated (action, child) pair — the
        # same accounting the budget is charged with.
        layer_sizes.append(len({child for _, child in pairs}))
        for _, child in pairs:
            stats.edges += 1
            tripped = meter.charge_edge()
            if tripped is not None:
                where = f"after {meter.edges} generated edges"
                break
            if child in depth:
                stats.duplicate_hits += 1
                continue
            depth[child] = child_depth
            per_depth[child_depth] = per_depth.get(child_depth, 0) + 1
            tripped = meter.charge_state(child)
            if tripped is not None:
                where = f"after {meter.states} reachable states"
                break
            queue.append(child)
    stats.states = len(depth)
    stats.depth_reached = max(per_depth)
    stats.frontier_sizes = [per_depth[d] for d in sorted(per_depth)]
    if layer_sizes:
        stats.min_layer_size = min(layer_sizes)
        stats.max_layer_size = max(layer_sizes)
    stats.complete = tripped is None
    stats.limit = tripped
    stats.seconds = meter.elapsed()
    if isinstance(system, CachedSystem):
        stats.cache_stats = system.stats()
    return depth, stats, where


def reachable_states(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
    cache: CacheSpec = None,
    preflight: bool = True,
) -> dict[GlobalState, int]:
    """BFS the reachable set; returns ``{state: first-reached depth}``.

    Budget exhaustion raises :class:`ExplorationLimitExceeded`.
    ``cache`` memoizes the successor function (see
    :func:`repro.core.cache.resolve_cache`) — the mapping is identical
    either way.  ``preflight`` (default on) refuses an ill-formed
    system with :class:`~repro.lint.IllFormedSystemError` before
    exploring; ``preflight=False`` reproduces historical behaviour
    exactly.
    """
    depth, stats, where = _bfs(
        system, roots, max_depth, budget, cache, preflight
    )
    if stats.limit is not None:
        raise ExplorationLimitExceeded(
            f"exploration budget exhausted ({stats.limit}) {where}"
        )
    return depth


def explore(
    system,
    roots: Iterable[GlobalState],
    max_depth: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
    cache: CacheSpec = None,
    preflight: bool = True,
) -> ExplorationStats:
    """BFS with full statistics (see :class:`ExplorationStats`).

    Budget exhaustion returns the partial statistics with
    ``complete=False`` and the tripped limit named.  ``cache``
    memoizes the successor function (see
    :func:`repro.core.cache.resolve_cache`); when enabled, the cache's
    counters are snapshotted into ``stats.cache_stats``.  All other
    statistics are identical cached or uncached.  ``preflight`` (default
    on) refuses an ill-formed system with
    :class:`~repro.lint.IllFormedSystemError` before exploring.
    """
    _, stats, _ = _bfs(system, roots, max_depth, budget, cache, preflight)
    if stats.limit is not None:
        crashpoint("exploration.budget.trip")
    return stats
