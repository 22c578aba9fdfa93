"""End-to-end Section 5: impossibility across every model and candidate.

These are the E2/E3/E4 experiments in test form: every candidate protocol,
in every applicable layered model, is classified by the exhaustive checker
and the verdict is never SATISFIED (Theorem 4.2), while the defeat kind
matches the candidate's design.
"""

import pytest

from repro.analysis.impossibility import refute_candidate, standard_layerings
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.connectivity import is_valence_connected, lemma_3_6
from repro.core.valence import ValenceAnalyzer
from repro.protocols.candidates import (
    QuorumDecide,
    RotatingCoordinator,
    WaitForAll,
)
from repro.protocols.full_information import (
    FullInformationProtocol,
    decide_constant,
    decide_min_observed,
    decide_own_input,
)
from repro.resilience.budget import Budget

EXPECTED_DEFEAT = {
    "quorum": Verdict.AGREEMENT,
    "waitforall": Verdict.DECISION,
    "rotating-coordinator": Verdict.AGREEMENT,
    "fi-min": Verdict.AGREEMENT,
    "fi-own": Verdict.AGREEMENT,
    "fi-const": Verdict.VALIDITY,
}


def make_candidate(key):
    return {
        "quorum": lambda: QuorumDecide(2),
        "waitforall": lambda: WaitForAll(),
        "rotating-coordinator": lambda: RotatingCoordinator(3),
        "fi-min": lambda: FullInformationProtocol(
            2, decide_min_observed, "min"
        ),
        "fi-own": lambda: FullInformationProtocol(1, decide_own_input, "own"),
        "fi-const": lambda: FullInformationProtocol(
            1, decide_constant(0), "const0"
        ),
    }[key]()


@pytest.mark.parametrize("key", sorted(EXPECTED_DEFEAT))
def test_candidate_defeated_everywhere_with_expected_kind(key):
    refutations = refute_candidate(
        make_candidate(key), 3, budget=Budget(max_states=600_000)
    )
    assert len(refutations) >= 3
    for refutation in refutations:
        assert refutation.verdict is not Verdict.SATISFIED
        assert refutation.verdict is EXPECTED_DEFEAT[key], (
            key,
            refutation.model_name,
            refutation.report.detail,
        )


@pytest.mark.parametrize(
    "model_name", ["s1-mobile", "synchronic-mp", "permutation-mp", "synchronic-rw"]
)
def test_every_layer_on_bivalent_path_is_valence_connected(model_name):
    """The load-bearing connectivity claim, along an actual bivalent walk."""
    protocol = QuorumDecide(2)
    layering = standard_layerings(protocol, 3)[model_name]
    analyzer = ValenceAnalyzer(layering, budget=Budget(max_states=600_000))
    state = lemma_3_6(
        layering.model.initial_states((0, 1)), layering, analyzer
    )
    for _ in range(3):
        layer = [child for _, child in layering.successors(state)]
        assert is_valence_connected(layer, analyzer), model_name
        nxt = next(
            (s for s in layer if analyzer.valence(s).bivalent), None
        )
        if nxt is None:
            break
        state = nxt


def test_schedules_replay_to_their_violations():
    for refutation in refute_candidate(
        QuorumDecide(2), 3, budget=Budget(max_states=600_000)
    ):
        report = refutation.report
        layering = standard_layerings(QuorumDecide(2), 3)[
            refutation.model_name
        ]
        state = layering.model.initial_state(report.inputs)
        for action in report.execution.actions:
            state = layering.apply(state, action)
        decisions = layering.decisions(state)
        failed = layering.failed_at(state)
        values = {v for i, v in decisions.items() if i not in failed}
        assert len(values) > 1
