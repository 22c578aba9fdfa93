"""E1 — Lemma 3.6: Con_0 connectivity and bivalent initial states.

Regenerates, per model size, the connectivity verdicts for the set of
initial states and the count of bivalent ones, and benchmarks the full
Con_0 analysis (similarity graph + valence of 2^n initial states).
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.core.connectivity import is_valence_connected
from repro.core.similarity import is_similarity_connected
from repro.core.valence import ValenceAnalyzer
from repro.layerings.s1_mobile import S1MobileLayering
from repro.models.mobile import MobileModel
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget


def analyze_con0(n: int):
    layering = S1MobileLayering(MobileModel(FloodSet(2), n))
    analyzer = ValenceAnalyzer(layering, budget=Budget(max_states=1_500_000))
    initials = layering.model.initial_states((0, 1))
    sim = is_similarity_connected(initials, layering)
    val = is_valence_connected(initials, analyzer)
    bivalent = sum(
        1 for s in initials if analyzer.valence(s).bivalent
    )
    return {
        "n": n,
        "initial_states": len(initials),
        "similarity_connected": sim,
        "valence_connected": val,
        "bivalent_initials": bivalent,
        "states_explored": analyzer.explored_states,
    }


@pytest.mark.parametrize("n", [2, 3, 4])
def test_e1_con0_analysis(benchmark, n):
    row = benchmark(analyze_con0, n)
    assert row["similarity_connected"]
    assert row["valence_connected"]
    # For FloodSet-with-min under S_1, an initial state is bivalent iff
    # the minimum value 0 has a UNIQUE holder: the single mobile failure
    # can silence one zero-holder forever, but never two — so exactly the
    # n one-zero assignments are bivalent.  (Lemma 3.6 needs only >= 1.)
    assert row["bivalent_initials"] == n


def test_e1_table(benchmark):
    rows = benchmark(lambda: [analyze_con0(n) for n in (2, 3, 4)])
    table = render_table(
        [
            "n",
            "|Con_0|",
            "sim-connected",
            "val-connected",
            "bivalent",
            "explored",
        ],
        [
            [
                r["n"],
                r["initial_states"],
                r["similarity_connected"],
                r["valence_connected"],
                r["bivalent_initials"],
                r["states_explored"],
            ]
            for r in rows
        ],
    )
    save_table(
        "e1_initial_states",
        "E1 (Lemma 3.6): Con_0 connectivity and bivalent initial states "
        "(S_1 over M^mf, FloodSet(2))",
        table,
    )
