"""E9 — ablations: what each structural piece of a layering buys.

* Removing the ``(j, A)`` absent actions from ``S^rw``: the remaining
  layer becomes similarity connected on its own (the diamond was only
  needed for the absent states) — but the submodel can no longer starve
  anybody, so it stops being a 1-resilient model at all.
* Removing the short schedules from ``S^per``: same story for message
  passing.
* Layer width and submodel size across the four layerings — the cost of
  each submodel's "degree of asynchrony".
"""

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.analysis.statistics import FilteredLayering, layer_statistics
from repro.core.checker import ConsensusChecker, Verdict
from repro.core.exploration import explore
from repro.core.valence import ValenceAnalyzer
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.layerings.synchronic_mp import SynchronicMPLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.shared_memory import SharedMemoryModel
from repro.models.sync import SynchronousModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget

BUDGET = Budget(max_states=600_000)


def all_layerings():
    return {
        "S_1 (mobile)": S1MobileLayering(MobileModel(QuorumDecide(2), 3)),
        "S^t (sync, t=1)": StSynchronousLayering(
            SynchronousModel(FloodSet(2), 3, 1)
        ),
        "S^rw": SynchronicRWLayering(SharedMemoryModel(QuorumDecide(2), 3)),
        "synchronic-MP": SynchronicMPLayering(
            AsyncMessagePassingModel(QuorumDecide(2), 3)
        ),
        "S^per": PermutationLayering(
            AsyncMessagePassingModel(QuorumDecide(2), 3)
        ),
    }


def test_e9_layer_widths_table(benchmark):
    def build():
        rows = []
        for name, layering in all_layerings().items():
            analyzer = ValenceAnalyzer(layering, budget=BUDGET)
            state = layering.model.initial_state((0, 1, 1))
            stats = layer_statistics(name, layering, state, analyzer)
            size = explore(
                layering,
                [state],
                max_depth=2,
                budget=BUDGET,
            )
            rows.append(
                [
                    name,
                    stats.actions,
                    stats.distinct_successors,
                    stats.similarity_connected,
                    stats.valence_connected,
                    size.states,
                    f"{size.sharing_ratio:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    save_table(
        "e9_layer_widths",
        "E9: layer structure across the layerings (n=3, depth-2 submodel)",
        render_table(
            [
                "layering",
                "actions",
                "successors",
                "sim-conn",
                "val-conn",
                "states@2",
                "sharing",
            ],
            rows,
        ),
    )
    assert len(rows) == 5


def test_e9_ablate_absent_actions(benchmark):
    """Without the absent actions S^rw cannot express a crash: the
    WaitForAll candidate — defeated by starvation in the full layering —
    VERIFIES in the ablated submodel.  The absent actions are exactly
    what makes the submodel 1-resilient."""
    layering = SynchronicRWLayering(SharedMemoryModel(WaitForAll(), 3))
    full_report = ConsensusChecker(layering, BUDGET).check_all(
        layering.model
    )
    assert full_report.verdict is Verdict.DECISION

    filtered = FilteredLayering(
        layering, keep=lambda a: a[0] != "absent", name="S^rw-no-absent"
    )

    def check():
        return ConsensusChecker(filtered, BUDGET).check_all(layering.model)

    ablated_report = benchmark(check)
    assert ablated_report.verdict is Verdict.SATISFIED


def test_e9_ablate_short_schedules(benchmark):
    """Same ablation for the permutation layering's short schedules."""
    layering = PermutationLayering(
        AsyncMessagePassingModel(WaitForAll(), 3)
    )
    filtered = FilteredLayering(
        layering, keep=lambda a: a[0] != "short", name="S^per-no-short"
    )

    def check():
        return ConsensusChecker(filtered, BUDGET).check_all(layering.model)

    report = benchmark(check)
    assert report.verdict is Verdict.SATISFIED

    full_report = ConsensusChecker(layering, BUDGET).check_all(
        layering.model
    )
    assert full_report.verdict is Verdict.DECISION
