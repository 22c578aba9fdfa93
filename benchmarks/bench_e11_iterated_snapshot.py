"""E11 — the iterated-immediate-snapshot extension (full-paper claim).

The paper announces that the Section 7 equivalence extends to snapshot
shared memory and iterated immediate snapshots.  This experiment checks
the extension end to end: the IIS layer's subdivision connectivity (the
split/merge edges and the solo diamond), the impossibility verdicts, and
the solvable-task solvers verified in the IIS submodel.
"""

from itertools import permutations

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.similarity import similar
from repro.layerings.iterated_snapshot import (
    IteratedSnapshotLayering,
    solo_diamond,
    split_merge_edges,
)
from repro.models.snapshot import SnapshotMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.full_information import FullInformationProtocol
from repro.protocols.tasks import (
    DecideOwnInput,
    EpsilonAgreementProtocol,
)
from repro.resilience.budget import Budget
from repro.tasks.catalog import epsilon_agreement, identity_task
from repro.tasks.checker import TaskChecker

CONSENSUS_BUDGET = Budget(max_states=400_000)
TASK_BUDGET = Budget(max_states=800_000)


def make_layering(protocol):
    return IteratedSnapshotLayering(SnapshotMemoryModel(protocol, 3))


def test_e11_subdivision_edges(benchmark):
    layering = make_layering(FullInformationProtocol(4))
    state = layering.model.initial_state((0, 1, 1))

    def sweep():
        verified = 0
        for a, b in split_merge_edges(3):
            x = layering.apply(state, a)
            y = layering.apply(state, b)
            assert x == y or similar(x, y, layering)
            verified += 1
        for j in range(3):
            left, right = solo_diamond(j, 3)
            end_left = state
            for action in left:
                end_left = layering.apply(end_left, action)
            end_right = state
            for action in right:
                end_right = layering.apply(end_right, action)
            assert end_left == end_right
        return verified

    assert benchmark(sweep) == 15


@pytest.mark.parametrize(
    "name,factory,expected",
    [
        ("QuorumDecide(2)", lambda: QuorumDecide(2), Verdict.AGREEMENT),
        ("WaitForAll", lambda: WaitForAll(), Verdict.DECISION),
    ],
)
def test_e11_defeat(benchmark, name, factory, expected):
    def run():
        layering = make_layering(factory())
        return ConsensusChecker(layering, CONSENSUS_BUDGET).check_all(
            layering.model
        )

    report = benchmark(run)
    assert report.verdict is expected


def test_e11_solvers_and_table(benchmark):
    def build():
        rows = []
        for task, protocol in [
            (identity_task(3), DecideOwnInput()),
            (epsilon_agreement(3), EpsilonAgreementProtocol()),
        ]:
            layering = make_layering(protocol)
            report = TaskChecker(layering, task, TASK_BUDGET).check_all(
                layering.model
            )
            rows.append(
                [
                    task.name,
                    protocol.name(),
                    report.verdict.value,
                    report.states_explored,
                ]
            )
        for name, factory, expected in [
            ("consensus-candidate", lambda: QuorumDecide(2), "agreement"),
            ("consensus-candidate", lambda: WaitForAll(), "decision"),
        ]:
            layering = make_layering(factory())
            report = ConsensusChecker(layering, CONSENSUS_BUDGET).check_all(
                layering.model
            )
            rows.append(
                [
                    name,
                    factory().name(),
                    report.verdict.value,
                    report.states_explored,
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    for row in rows[:2]:
        assert row[2] == "satisfied"
    save_table(
        "e11_iterated_snapshot",
        "E11 (full-paper extension): the IIS submodel — solvable tasks "
        "verify, consensus candidates fall (n=3)",
        render_table(["subject", "protocol", "verdict", "states"], rows),
    )
