"""Kernel parity: the engines sharing one graph kernel keep their answers.

The task checker runs the consensus checker's search
(:func:`repro.core.checker.explore_problem`), and the valence and outcome
analyzers share one region explorer and one Tarjan
(:func:`repro.core.valence.explore_region`,
:func:`repro.util.graphs.strongly_connected_components`).  The values
pinned here were recorded from the implementation in which each engine
carried its own copy of these loops: task-checker verdicts, state counts
and witnesses for every task cell of the suite, outcome sets for the
Lemma 7.1 driver's system, and valence results and explored-state counts
on FLP ``per``/3.  The one deliberate difference, the task checker's
write-once witness, is pinned in ``tests/tasks/test_task_checker.py``.

Witnesses and outcome sets are pinned as short digests of their
``repr`` (stable across hash seeds: actions and simplexes are built
from ints and tuples).
"""

import hashlib

import pytest

from repro.analysis.impossibility import forever_bivalent_run
from repro.analysis.sync_tasks import check_solves_in_rounds
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.floodset import FloodSet
from repro.protocols.tasks import (
    DecideConstantProtocol,
    DecideOwnInput,
    EpsilonAgreementProtocol,
)
from repro.resilience.budget import DEFAULT_BUDGET, Budget
from repro.tasks.catalog import (
    binary_consensus,
    constant_task,
    epsilon_agreement,
    identity_task,
)
from repro.tasks.checker import TaskChecker
from repro.tasks.covering import OutcomeAnalyzer
from repro.tasks.solvability import verify_protocol_solves

#: The digest of a report without a witness (a SATISFIED report).
NO_WITNESS = "dad69ecd0612bd3f"


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pin(report):
    """(verdict, states explored, digest of facet and witness actions)."""
    execution = report.execution.actions if report.execution else None
    cycle = report.cycle.actions if report.cycle else None
    witness = digest((repr(report.input_facet), execution, cycle))
    return report.verdict.value, report.states_explored, witness


def perm(protocol):
    return PermutationLayering(AsyncMessagePassingModel(protocol, 3))


CHECK_ALL_CELLS = {
    "identity-own-perm": (
        lambda: perm(DecideOwnInput()), identity_task, DEFAULT_BUDGET,
        ("satisfied", 8, NO_WITNESS),
    ),
    "constant-constant-perm": (
        lambda: perm(DecideConstantProtocol()), constant_task,
        DEFAULT_BUDGET, ("satisfied", 8, NO_WITNESS),
    ),
    "epsilon-epsilon-srw": (
        lambda: SynchronicRWLayering(
            SharedMemoryModel(EpsilonAgreementProtocol(), 3)
        ),
        epsilon_agreement, DEFAULT_BUDGET, ("satisfied", 256, NO_WITNESS),
    ),
    "consensus-quorum-perm": (
        lambda: perm(QuorumDecide(2)), binary_consensus, DEFAULT_BUDGET,
        ("validity-violation", 8, "f3e1b2e6c404a57e"),
    ),
    "consensus-waitforall-perm": (
        lambda: perm(WaitForAll()), binary_consensus,
        Budget(max_states=300_000),
        ("decision-violation", 538, "d0b9c306cbf2d35c"),
    ),
    "identity-constant0-perm": (
        lambda: perm(DecideConstantProtocol(0)), identity_task,
        DEFAULT_BUDGET, ("validity-violation", 1, "7f57122b15022210"),
    ),
}


@pytest.mark.parametrize("cell", sorted(CHECK_ALL_CELLS))
def test_task_check_all(cell):
    make_layering, task, budget, expected = CHECK_ALL_CELLS[cell]
    layering = make_layering()
    report = TaskChecker(layering, task(3), budget).check_all(layering.model)
    assert pin(report) == expected


SOLVES_CELLS = {
    "identity": (
        identity_task, DecideOwnInput,
        {
            "synchronic-rw": ("satisfied", 8, NO_WITNESS),
            "synchronic-mp": ("satisfied", 8, NO_WITNESS),
            "permutation-mp": ("satisfied", 8, NO_WITNESS),
            "iis-snapshot": ("satisfied", 8, NO_WITNESS),
        },
    ),
    "consensus": (
        binary_consensus, lambda: QuorumDecide(2),
        {
            "synchronic-rw": ("validity-violation", 3, "fead009f2b40dccf"),
            "synchronic-mp": ("validity-violation", 3, "fead009f2b40dccf"),
            "permutation-mp": ("validity-violation", 8, "f3e1b2e6c404a57e"),
            "iis-snapshot": ("validity-violation", 6, "cb14757c3ca0aa1f"),
        },
    ),
}


@pytest.mark.parametrize("cell", sorted(SOLVES_CELLS))
def test_verify_protocol_solves(cell):
    task, protocol, expected = SOLVES_CELLS[cell]
    reports = verify_protocol_solves(
        task(3), protocol(), budget=Budget(max_states=400_000)
    )
    assert {model: pin(r) for model, r in reports.items()} == expected


ROUNDS_CELLS = {
    "identity-0r": (
        identity_task, DecideOwnInput, 0, ("satisfied", 8, NO_WITNESS)
    ),
    "constant-0r": (
        constant_task, DecideConstantProtocol, 0,
        ("satisfied", 8, NO_WITNESS),
    ),
    "epsilon-1r": (
        epsilon_agreement, EpsilonAgreementProtocol, 1,
        ("satisfied", 64, NO_WITNESS),
    ),
    "epsilon-0r": (
        epsilon_agreement, EpsilonAgreementProtocol, 0,
        ("decision-violation", 1, "cf9c5ff3a2d53c3a"),
    ),
    "consensus-floodset1-1r": (
        binary_consensus, lambda: FloodSet(1), 1,
        ("validity-violation", 3, "59a82769e958a822"),
    ),
    "consensus-floodset2-2r": (
        binary_consensus, lambda: FloodSet(2), 2,
        ("satisfied", 84, NO_WITNESS),
    ),
    "consensus-floodset2-1r": (
        # Re-pinned when the round-bound witness became the run from the
        # initial state to the undecided one (one layer here).
        binary_consensus, lambda: FloodSet(2), 1,
        ("decision-violation", 5, "f17d24c7100f779b"),
    ),
}


@pytest.mark.parametrize("cell", sorted(ROUNDS_CELLS))
def test_check_solves_in_rounds(cell):
    task, protocol, rounds, expected = ROUNDS_CELLS[cell]
    report = check_solves_in_rounds(task(3), protocol(), t=1, rounds=rounds)
    assert pin(report) == expected


#: Per initial state (product order over {0, 1}^3): number of outcomes,
#: divergence, digest of the sorted outcome reprs.
OUTCOMES = {
    "quorum": [
        (4, False, "eab60bba540f718a"),
        (4, False, "eab60bba540f718a"),
        (4, False, "eab60bba540f718a"),
        (10, False, "a9ba302e0d4831c8"),
        (4, False, "eab60bba540f718a"),
        (10, False, "1ba1fd5a50800d3b"),
        (10, False, "a2ababfcaff8632a"),
        (4, False, "5d614d6cc842b479"),
    ],
    "epsilon": [
        (4, False, "eab60bba540f718a"),
        (10, False, "78e769b907061051"),
        (10, False, "ee64f95b8ad43d59"),
        (10, False, "25f688329e195b99"),
        (10, False, "aa537f47e3b346f6"),
        (10, False, "f757a6d755d062f4"),
        (10, False, "c9b9a2fdeb580e47"),
        (4, False, "c4f4d705e30fc8d8"),
    ],
}


@pytest.mark.parametrize(
    "name,protocol",
    [("quorum", lambda: QuorumDecide(2)), ("epsilon", EpsilonAgreementProtocol)],
    ids=["quorum", "epsilon"],
)
def test_outcome_sets(name, protocol):
    layering = perm(protocol())
    analyzer = OutcomeAnalyzer(layering, Budget(max_states=500_000))
    got = []
    for state in layering.model.initial_states((0, 1)):
        result = analyzer.outcome(state)
        got.append(
            (
                len(result.outcomes),
                result.diverges,
                digest(sorted(repr(o) for o in result.outcomes)),
            )
        )
    assert got == OUTCOMES[name]


def test_flp_per3_valence():
    layering = perm(QuorumDecide(2))
    analyzer = ValenceAnalyzer(layering)
    got = []
    for state in layering.model.initial_states((0, 1)):
        result = analyzer.valence(state)
        got.append((sorted(result.values), result.diverges))
    assert got == [
        ([0], True), ([0], True), ([0], True), ([0, 1], True),
        ([0], True), ([0, 1], True), ([0, 1], True), ([1], True),
    ]
    assert analyzer.explored_states == 2990


def test_flp_per3_bivalent_run():
    lasso, analyzer = forever_bivalent_run(perm(QuorumDecide(2)))
    assert analyzer.explored_states == 2991
    assert digest(lasso) == "93a373f7f460cd22"
