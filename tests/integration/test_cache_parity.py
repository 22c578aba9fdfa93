"""Cache transparency: cached and uncached runs are indistinguishable.

The hard invariant of :mod:`repro.core.cache`: wrapping a system in a
:class:`CachedSystem` may change wall-clock time only.  Per layering family, the consensus checker and the valence
analyzer must produce byte-identical verdicts and witnesses, the same
budget-relevant state counts, and the explorers the same reachable sets
and statistics.
"""

import pickle

import pytest

from repro.core.cache import CachedSystem
from repro.core.checker import ConsensusChecker
from repro.core.exploration import explore, reachable_states
from repro.core.valence import ValenceAnalyzer

#: One representative per layering family exercised in the suite.
FAMILIES = [
    "mobile_floodset",        # S_1 over the mobile-failure model
    "st_floodset_fast",       # S^t synchronous, defeated protocol
    "st_floodset_tight",      # S^t synchronous, verified protocol
    "quorum_permutation",     # permutation layering over async MP
    "quorum_synchronic_rw",   # S^rw over shared memory
]

#: Cache configurations under test (ids name each one in test names).
CACHE_SPECS = [True]


def _witness_bytes(report):
    """The byte-parity payload of a report: verdict and witnesses.

    ``budget_stats`` is deliberately excluded — it carries wall-clock
    seconds, which caching exists to change.
    """
    return pickle.dumps(
        (report.verdict, report.inputs, report.execution, report.cycle),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("spec", CACHE_SPECS, ids=["unbounded"])
class TestCheckerParity:
    def test_check_all_byte_identical(self, family, spec, request):
        layering = request.getfixturevalue(family)
        plain = ConsensusChecker(layering).check_all(layering.model)
        cached = ConsensusChecker(layering, cache=spec).check_all(
            layering.model
        )
        assert cached.verdict is plain.verdict
        assert _witness_bytes(cached) == _witness_bytes(plain)
        assert cached.states_explored == plain.states_explored
        assert cached.detail == plain.detail


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("spec", CACHE_SPECS, ids=["unbounded"])
class TestValenceParity:
    def test_initial_state_valences_identical(self, family, spec, request):
        layering = request.getfixturevalue(family)
        plain = ValenceAnalyzer(layering)
        cached = ValenceAnalyzer(layering, cache=spec)
        for state in layering.model.initial_states((0, 1)):
            a = plain.valence(state)
            b = cached.valence(state)
            assert a.values == b.values
            assert a.diverges == b.diverges
        assert plain.explored_states == cached.explored_states


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("spec", CACHE_SPECS, ids=["unbounded"])
class TestExplorationParity:
    def test_reachable_sets_identical(self, family, spec, request):
        layering = request.getfixturevalue(family)
        roots = layering.model.initial_states((0, 1))
        plain = reachable_states(layering, roots, max_depth=2)
        cached = reachable_states(layering, roots, max_depth=2, cache=spec)
        assert cached == plain

    def test_explore_stats_identical(self, family, spec, request):
        layering = request.getfixturevalue(family)
        roots = layering.model.initial_states((0, 1))
        plain = explore(layering, roots, max_depth=2)
        cached = explore(layering, roots, max_depth=2, cache=spec)
        assert cached.states == plain.states
        assert cached.edges == plain.edges
        assert cached.duplicate_hits == plain.duplicate_hits
        assert cached.frontier_sizes == plain.frontier_sizes
        assert cached.min_layer_size == plain.min_layer_size
        assert cached.max_layer_size == plain.max_layer_size
        assert cached.cache_stats is not None
        assert plain.cache_stats is None


class TestSharedCacheAcrossEngines:
    def test_one_cache_serves_checker_and_analyzer(self, mobile_floodset):
        """The E15 usage pattern: one shared cache, several engines."""
        shared = CachedSystem(mobile_floodset)
        plain_report = ConsensusChecker(mobile_floodset).check_all(
            mobile_floodset.model
        )
        report = ConsensusChecker(mobile_floodset, cache=shared).check_all(
            mobile_floodset.model
        )
        warm = shared.stats()
        analyzer = ValenceAnalyzer(mobile_floodset, cache=shared)
        for state in mobile_floodset.model.initial_states((0, 1)):
            analyzer.valence(state)
        assert _witness_bytes(report) == _witness_bytes(plain_report)
        # The analyzer re-walks states the checker already expanded, so
        # the shared cache must have served it mostly from memory.
        after = shared.stats()
        assert after.hits > warm.hits
        assert after.misses - warm.misses < warm.misses
