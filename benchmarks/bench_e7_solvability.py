"""E7 — Theorem 7.2 / Corollary 7.3: the solvability matrix.

Regenerates the task x verdict matrix: 1-thick-connectivity on the left,
operational evidence (verified solver / defeated candidate) on the right,
and asserts the two columns agree on every catalog task.
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.analysis.solvability_experiments import solvability_matrix
from repro.resilience.budget import Budget
from repro.tasks.catalog import CATALOG, EXPECTED_SOLVABLE
from repro.tasks.thick import problem_is_k_thick_connected

FAST_TASKS = ["consensus", "identity", "constant", "leader-election"]


@pytest.mark.parametrize("name", sorted(FAST_TASKS))
def test_e7_thick_verdict(benchmark, name):
    problem = CATALOG[name](3)
    verdict = benchmark(
        lambda: problem_is_k_thick_connected(
            problem, 1, max_input_set_size=3
        )
    )
    assert verdict == EXPECTED_SOLVABLE[name]


def test_e7_matrix(benchmark):
    def build():
        return solvability_matrix(
            n=3,
            tasks=FAST_TASKS + ["epsilon-agreement"],
            budget=Budget(max_states=900_000),
        )

    matrix = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = []
    for name, entry in matrix.items():
        assert entry.matches_expectation, name
        solved = entry.row.operationally_solved
        defeats = (
            sorted({r.verdict.value for r in entry.defeats.values()})
            if entry.defeats
            else None
        )
        rows.append(
            [
                name,
                entry.row.thick_connected,
                EXPECTED_SOLVABLE[name],
                solved,
                ",".join(defeats) if defeats else "-",
            ]
        )
    save_table(
        "e7_solvability",
        "E7 (Corollary 7.3): 1-thick-connectivity <=> 1-resilient "
        "solvability (n=3)",
        render_table(
            [
                "task",
                "1-thick-connected",
                "expected-solvable",
                "solver-verified",
                "candidate-defeats",
            ],
            rows,
        ),
    )
