"""E12 — analyzer performance: what exhaustive layered analysis costs.

Not a paper claim but the engineering envelope of the reproduction:
how the exact valence analysis, the consensus checker and the submodel
exploration scale with n across the layerings.  The table records state
counts; pytest-benchmark records the times.
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
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


def make(kind: str, n: int):
    protocol = QuorumDecide(n - 1)
    if kind == "s1":
        return S1MobileLayering(MobileModel(protocol, n))
    if kind == "srw":
        return SynchronicRWLayering(SharedMemoryModel(protocol, n))
    if kind == "per":
        return PermutationLayering(AsyncMessagePassingModel(protocol, n))
    raise ValueError(kind)


GRID = [
    ("s1", 3),
    ("s1", 4),
    ("srw", 3),
    ("per", 3),
]


@pytest.mark.parametrize(
    "kind,n", GRID, ids=[f"{k}-n{n}" for k, n in GRID]
)
def test_e12_valence_full_con0(benchmark, kind, n):
    def analyze():
        layering = make(kind, n)
        analyzer = ValenceAnalyzer(layering, BUDGET)
        for state in layering.model.initial_states((0, 1)):
            analyzer.valence(state)
        return analyzer.explored_states

    states = benchmark(analyze)
    assert states > 0


@pytest.mark.parametrize(
    "kind,n", GRID, ids=[f"{k}-n{n}" for k, n in GRID]
)
def test_e12_checker_full(benchmark, kind, n):
    def check():
        layering = make(kind, n)
        return ConsensusChecker(layering, BUDGET).check_all(
            layering.model
        )

    report = benchmark(check)
    assert not report.satisfied  # QuorumDecide always falls


def test_e12_table(benchmark):
    def build():
        rows = []
        for kind, n in GRID:
            layering = make(kind, n)
            analyzer = ValenceAnalyzer(layering, BUDGET)
            for state in layering.model.initial_states((0, 1)):
                analyzer.valence(state)
            stats = explore(
                layering,
                layering.model.initial_states((0, 1)),
                max_depth=2,
                budget=BUDGET,
            )
            rows.append(
                [
                    kind,
                    n,
                    analyzer.explored_states,
                    stats.states,
                    f"{stats.sharing_ratio:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    save_table(
        "e12_analyzer_scaling",
        "E12: exhaustive-analysis state counts across layerings and n "
        "(QuorumDecide; valence over all of Con_0, submodel to depth 2)",
        render_table(
            ["layering", "n", "valence states", "states@2", "sharing"],
            rows,
        ),
    )
