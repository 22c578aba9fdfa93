"""E3 — Lemma 5.3 + Corollary 5.4: the synchronic shared-memory layering.

Regenerates the two-step connectivity verification of Lemma 5.3 (Y-chain
plus absent-diamond) and the defeat table for ``S^rw``, and measures how
large the barely-asynchronous submodel actually is.
"""

import pytest

import repro.layerings.synchronic_rw as rw
from benchmarks.helpers import save_table
from repro.analysis.impossibility import corollary_5_4
from repro.analysis.lemmas import lemma_5_3
from repro.analysis.reports import render_table
from repro.core.checker import Verdict
from repro.core.exploration import explore
from repro.core.valence import ValenceAnalyzer
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.resilience.budget import Budget

BUDGET = Budget(max_states=600_000)


def make_layering(protocol=None):
    return SynchronicRWLayering(
        SharedMemoryModel(protocol or QuorumDecide(2), 3)
    )


def test_e3_lemma_5_3(benchmark):
    layering = make_layering()
    analyzer = ValenceAnalyzer(layering, budget=BUDGET)
    state = layering.model.initial_state((0, 1, 1))
    diamonds = [(*rw.absent_diamond(j, 3), j) for j in range(3)]

    def check():
        return lemma_5_3(
            layering, analyzer, state, rw.y_chain(3), diamonds
        )

    report = benchmark(check)
    assert report.holds, report.detail


@pytest.mark.parametrize(
    "name,factory,expected",
    [
        ("QuorumDecide(2)", lambda: QuorumDecide(2), Verdict.AGREEMENT),
        ("WaitForAll", lambda: WaitForAll(), Verdict.DECISION),
    ],
)
def test_e3_defeat(benchmark, name, factory, expected):
    refutation = benchmark(
        lambda: corollary_5_4(factory(), 3, budget=BUDGET)
    )
    assert refutation.verdict is expected


def test_e3_submodel_size_and_table(benchmark):
    layering = make_layering()

    def measure():
        return explore(
            layering,
            layering.model.initial_states((0, 1)),
            max_depth=2,
            budget=BUDGET,
        )

    stats = benchmark(measure)
    assert stats.states > 8
    refutations = {
        "QuorumDecide(2)": corollary_5_4(QuorumDecide(2), 3, BUDGET),
        "WaitForAll": corollary_5_4(WaitForAll(), 3, BUDGET),
    }
    rows = [
        [
            name,
            r.verdict.value,
            r.report.inputs,
            r.report.states_explored,
        ]
        for name, r in refutations.items()
    ]
    rows.append(
        [
            "(submodel, depth 2)",
            f"{stats.states} states",
            f"sharing {stats.sharing_ratio:.2f}",
            stats.edges,
        ]
    )
    save_table(
        "e3_synchronic_rw",
        "E3 (Corollary 5.4): S^rw defeats + submodel size (n=3)",
        render_table(["subject", "verdict/size", "inputs/extra", "states"], rows),
    )
