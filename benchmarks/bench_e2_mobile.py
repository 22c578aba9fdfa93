"""E2 — Lemma 5.1 + Corollary 5.2: the mobile-failure impossibility.

Regenerates the defeat table (protocol x verdict x schedule length) for
the ``S_1`` adversary, and benchmarks the layer-structure verification
(similarity chain + crash display) and the full refutation.
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.impossibility import corollary_5_2
from repro.analysis.lemmas import lemma_5_1
from repro.analysis.reports import render_table
from repro.core.checker import Verdict
from repro.core.valence import ValenceAnalyzer
from repro.layerings.s1_mobile import S1MobileLayering, similarity_chain
from repro.models.mobile import MobileModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.eig import EIG
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget

BUDGET = Budget(max_states=600_000)


CANDIDATES = {
    "FloodSet(2)": lambda: FloodSet(2),
    "EIG(2)": lambda: EIG(2),
    "QuorumDecide(2)": lambda: QuorumDecide(2),
    "WaitForAll": lambda: WaitForAll(),
}

EXPECTED = {
    "FloodSet(2)": Verdict.AGREEMENT,
    "EIG(2)": Verdict.AGREEMENT,
    "QuorumDecide(2)": Verdict.AGREEMENT,
    "WaitForAll": Verdict.DECISION,
}


def defeat(name: str):
    refutation = corollary_5_2(CANDIDATES[name](), 3, budget=BUDGET)
    return refutation


@pytest.mark.parametrize("name", sorted(CANDIDATES))
def test_e2_defeat(benchmark, name):
    refutation = benchmark(defeat, name)
    assert refutation.verdict is EXPECTED[name]


def test_e2_lemma_5_1_layer_check(benchmark):
    layering = S1MobileLayering(MobileModel(FloodSet(2), 3))
    analyzer = ValenceAnalyzer(layering)
    state = layering.model.initial_state((0, 1, 1))

    def check():
        return lemma_5_1(
            layering, analyzer, state, similarity_chain(layering, state)
        )

    report = benchmark(check)
    assert report.holds


def test_e2_table(benchmark):
    def build():
        return {name: defeat(name) for name in sorted(CANDIDATES)}

    refutations = benchmark(build)
    rows = []
    for name, r in refutations.items():
        rows.append(
            [
                name,
                r.verdict.value,
                r.report.inputs,
                r.report.execution.length if r.report.execution else None,
                r.report.states_explored,
            ]
        )
    save_table(
        "e2_mobile",
        "E2 (Corollary 5.2): every candidate defeated under S_1 (n=3)",
        render_table(
            ["protocol", "verdict", "inputs", "schedule", "states"], rows
        ),
    )
