"""E5 — Corollary 6.3: the t+1-round crossover table.

The headline table: for each (n, t), every candidate deciding within t
rounds is defeated and every t+1-round protocol verifies — who wins flips
exactly at t+1 rounds.
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.analysis.sync_lower_bound import (
    defeat_fast_candidates,
    verify_tight_protocols,
)
from repro.resilience.budget import Budget

GRID = [
    # (n, t, clean_crashes_only_for_full_model) — Section 6 assumes
    # 1 <= t <= n-2, so (n=3, t=2) is deliberately NOT here; see the
    # boundary test below.
    (3, 1, False),
    (4, 1, True),
    (4, 2, True),
]


def crossover(n: int, t: int, clean: bool):
    budget = Budget(max_states=2_000_000)
    defeated = defeat_fast_candidates(n, t, budget=budget)
    verified = verify_tight_protocols(
        n,
        t,
        budget=budget,
        include_full_model=(n, t) == (3, 1),
        clean_crashes_only=clean,
    )
    return defeated, verified


@pytest.mark.parametrize("n,t,clean", GRID, ids=["n3t1", "n4t1", "n4t2"])
def test_e5_crossover(benchmark, n, t, clean):
    defeated, verified = benchmark.pedantic(
        crossover, args=(n, t, clean), rounds=1, iterations=1
    )
    assert all(row.defeated for row in defeated), (n, t)
    assert all(row.report.satisfied for row in verified), (n, t)


def test_e5_boundary_t_above_n_minus_2(benchmark):
    """Why Section 6 assumes t <= n-2: at n=3, t=2 only one nonfaulty
    process can remain, agreement among the nonfaulty loses its bite, and
    the 2-round protocols genuinely SURVIVE the S^t adversary — the t+1
    bound collapses exactly where the paper says its argument stops."""
    rows = benchmark.pedantic(
        defeat_fast_candidates,
        args=(3, 2),
        kwargs={"budget": Budget(max_states=900_000)},
        rounds=1,
        iterations=1,
    )
    two_round = [row for row in rows if row.rounds == 2]
    assert two_round
    assert all(row.report.satisfied for row in two_round)
    one_round = [row for row in rows if row.rounds == 1]
    assert all(row.defeated for row in one_round)


def test_e5_table(benchmark):
    def build():
        rows = []
        for n, t, clean in GRID:
            defeated, verified = crossover(n, t, clean)
            for row in defeated + verified:
                rows.append(
                    [
                        n,
                        t,
                        row.protocol_name,
                        row.rounds,
                        row.report.verdict.value,
                        row.report.states_explored,
                    ]
                )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    save_table(
        "e5_lower_bound",
        "E5 (Corollary 6.3): the t+1 crossover — <=t rounds always defeated, "
        "t+1 rounds always verified",
        render_table(
            ["n", "t", "protocol", "rounds", "verdict", "states"], rows
        ),
    )
