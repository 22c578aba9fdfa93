"""E4 — the permutation layering: transpositions, diamonds, FLP.

Regenerates the minimal-diamond equality check over every permutation,
the transposition-edge similarity verification, the refutation table and
the forever-bivalent lasso construction.
"""

from itertools import permutations

import pytest

from benchmarks.helpers import save_table
from repro.analysis.impossibility import (
    forever_bivalent_run,
    permutation_impossibility,
)
from repro.analysis.reports import render_table
from repro.core.checker import Verdict
from repro.core.similarity import similar
from repro.layerings.permutation import (
    PermutationLayering,
    diamond,
    transposition_edges,
)
from repro.models.async_mp import AsyncMessagePassingModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.full_information import FullInformationProtocol
from repro.resilience.budget import Budget

BUDGET = Budget(max_states=600_000)


def make_layering(protocol=None):
    return PermutationLayering(
        AsyncMessagePassingModel(protocol or QuorumDecide(2), 3)
    )


def test_e4_diamond_equality_sweep(benchmark):
    layering = make_layering(FullInformationProtocol(4))
    state = layering.model.initial_state((0, 1, 1))

    def sweep():
        checked = 0
        for order in permutations(range(3)):
            left, right = diamond(order)
            y = state
            for action in left:
                y = layering.apply(y, action)
            y_prime = state
            for action in right:
                y_prime = layering.apply(y_prime, action)
            assert y == y_prime
            checked += 1
        return checked

    assert benchmark(sweep) == 6


def test_e4_transposition_edges_sweep(benchmark):
    layering = make_layering(FullInformationProtocol(4))
    state = layering.model.initial_state((0, 1, 1))

    def sweep():
        verified = 0
        for order in permutations(range(3)):
            for k in range(2):
                for a, b in transposition_edges(order, k):
                    x = layering.apply(state, a)
                    y = layering.apply(state, b)
                    assert x == y or similar(x, y, layering)
                    verified += 1
        return verified

    assert benchmark(sweep) == 24


@pytest.mark.parametrize(
    "name,factory,expected",
    [
        ("QuorumDecide(2)", lambda: QuorumDecide(2), Verdict.AGREEMENT),
        ("WaitForAll", lambda: WaitForAll(), Verdict.DECISION),
    ],
)
def test_e4_defeat(benchmark, name, factory, expected):
    refutation = benchmark(
        lambda: permutation_impossibility(factory(), 3, budget=BUDGET)
    )
    assert refutation.verdict is expected


def test_e4_bivalent_lasso_and_table(benchmark):
    def build():
        return forever_bivalent_run(make_layering(), budget=BUDGET)

    lasso, analyzer = benchmark(build)
    rows = [
        ["prefix layers", lasso.prefix.length],
        ["cycle layers", lasso.cycle.length],
        ["states explored", analyzer.explored_states],
        [
            "cycle schedule kinds",
            ",".join(sorted({a[0] for a in lasso.cycle.actions})),
        ],
    ]
    save_table(
        "e4_permutation",
        "E4 (permutation layering): forever-bivalent lasso (QuorumDecide, n=3)",
        render_table(["metric", "value"], rows),
    )
    horizon = lasso.prefix.length + lasso.cycle.length
    for k in range(horizon + 1):
        assert analyzer.valence(lasso.state_at(k)).bivalent
