"""E15 — cache speedup: memoization pays on the E12 analyzer workload.

The :mod:`repro.core.cache` layer memoizes ``successors``/``failed_at``/
``decisions`` and hash-conses states.  This bench prices it on the E12
analyzer-scaling grid, run as a small verification *campaign*: each cell
performs ``PASSES`` rounds of the combined E12 workload (exact valence
over all of ``Con_0``, a full ``check_all`` sweep, a depth-2 submodel
exploration) — the shape of a real driver session, where the
impossibility, lemma and diameter analyses re-walk the same state space
with fresh engines.  The cached arm shares one :class:`CachedSystem`
across every engine of every pass; the uncached arm recomputes each
layer transition from scratch.

Two properties are asserted:

* **parity** — the cached and uncached arms produce byte-identical
  verdicts, valences, witnesses and state counts in every cell (the
  cache-transparency invariant, measured rather than unit-tested here).
* **speedup** — the campaign's aggregate wall clock must improve by at
  least ``MIN_SPEEDUP``x.  First and later passes are also recorded
  separately: a warm cache turns a re-analysis into pure engine work
  (~30x on the heavier cells).

Smoke mode (``E15_SMOKE=1`` in the environment, used by CI) shrinks the
grid to its smallest cell and only requires parity plus *some* speedup,
so cache regressions fail fast without benchmarking noise deciding CI.
"""

import os
import time

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.core.cache import CachedSystem
from repro.core.checker import ConsensusChecker
from repro.core.exploration import explore
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget

BUDGET = Budget(max_states=1_500_000)


SMOKE = os.environ.get("E15_SMOKE") == "1"

#: Rounds of the E12 workload per cell — a campaign, not a single shot.
PASSES = 3

#: Required aggregate wall-clock gain of the cached arm (full mode).
MIN_SPEEDUP = 3.0

GRID = [("s1", 3)] if SMOKE else [("s1", 3), ("s1", 4), ("srw", 3), ("per", 3)]


def make(kind: str, n: int):
    protocol = QuorumDecide(n - 1)
    if kind == "s1":
        return S1MobileLayering(MobileModel(protocol, n))
    if kind == "srw":
        return SynchronicRWLayering(SharedMemoryModel(protocol, n))
    if kind == "per":
        return PermutationLayering(AsyncMessagePassingModel(protocol, n))
    raise ValueError(kind)


def one_pass(layering, cache=None):
    """One round of the E12 workload; returns its comparable outcome."""
    analyzer = ValenceAnalyzer(layering, BUDGET, cache=cache)
    valences = []
    for state in layering.model.initial_states((0, 1)):
        result = analyzer.valence(state)
        valences.append((result.values, result.diverges))
    report = ConsensusChecker(layering, BUDGET, cache=cache).check_all(
        layering.model
    )
    stats = explore(
        layering,
        layering.model.initial_states((0, 1)),
        max_depth=2,
        budget=BUDGET,
        cache=cache,
    )
    return (
        valences,
        report.verdict,
        report.inputs,
        report.states_explored,
        stats.states,
        stats.edges,
    )


def run_campaign(layering, cache=None):
    """``PASSES`` rounds; returns (outcomes, per-pass seconds)."""
    outcomes, seconds = [], []
    for _ in range(PASSES):
        start = time.perf_counter()
        outcomes.append(one_pass(layering, cache=cache))
        seconds.append(time.perf_counter() - start)
    return outcomes, seconds


@pytest.mark.parametrize("kind,n", GRID, ids=[f"{k}-n{n}" for k, n in GRID])
def test_e15_cached_campaign(benchmark, kind, n):
    def campaign():
        layering = make(kind, n)
        return run_campaign(layering, cache=CachedSystem(layering))

    outcomes, _ = benchmark.pedantic(campaign, rounds=1, iterations=1)
    assert len(set(map(repr, outcomes))) == 1  # passes agree with themselves


def test_e15_table():
    rows = []
    total_uncached = total_cached = 0.0
    for kind, n in GRID:
        layering = make(kind, n)
        plain, plain_secs = run_campaign(layering)
        shared = CachedSystem(layering)
        cached, cached_secs = run_campaign(layering, cache=shared)

        # Parity: every pass of both arms produced the identical outcome.
        assert cached == plain, f"cache changed the {kind}-n{n} outcome"

        t_plain, t_cached = sum(plain_secs), sum(cached_secs)
        total_uncached += t_plain
        total_cached += t_cached
        stats = shared.stats()
        rows.append(
            [
                kind,
                n,
                f"{t_plain:.2f}",
                f"{t_cached:.2f}",
                f"{t_plain / t_cached:.1f}x",
                f"{plain_secs[-1] / cached_secs[-1]:.0f}x",
                f"{stats.hit_ratio:.2f}",
                stats.interned,
            ]
        )

    speedup = total_uncached / total_cached
    mode = "smoke grid" if SMOKE else "full grid"
    save_table(
        "e15_cache_speedup",
        f"E15: cached vs. uncached verification campaign ({mode}, "
        f"{PASSES} passes of the E12 workload per cell; byte-identical "
        f"outcomes asserted; aggregate speedup {speedup:.1f}x)",
        render_table(
            [
                "layering",
                "n",
                "uncached s",
                "cached s",
                "speedup",
                "warm pass",
                "hit ratio",
                "interned",
            ],
            rows,
        ),
    )
    floor = 1.0 if SMOKE else MIN_SPEEDUP
    assert speedup > floor, (
        f"cache campaign speedup {speedup:.2f}x is below the "
        f"{floor}x floor"
    )
