"""The preflight's default-on integration with checkers and explorers.

Two behaviours are pinned here:

* an ill-formed system yields ``ILL_FORMED`` reports (checkers) or an
  :class:`IllFormedSystemError` (explorers) instead of garbage verdicts;
* ``preflight=False`` reproduces the pre-preflight engines exactly — a
  clean system's report is identical with the stage on or off, and an
  ill-formed system is explored rather than refused.
"""

from __future__ import annotations

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.core.exploration import explore, reachable_states
from repro.lint import IllFormedSystemError
from repro.tasks.catalog import binary_consensus
from repro.tasks.checker import TaskChecker
from repro.tasks.simplex import Simplex
from tests.conftest import ToySystem


def reviving_system():
    """Ill-formed: process 1 is failed at the root and revives (RP203)."""
    return ToySystem(
        edges={
            "x": [("revive", "a"), ("other", "b")],
            "a": [("s", "a")],
            "b": [("s", "b")],
        },
        decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
        failed={"x": frozenset({1})},
    )


def valid_diamond():
    """Well-formed: x -> {a, b}, both all-decided on 0."""
    return ToySystem(
        edges={
            "x": [("l", "a"), ("r", "b")],
            "a": [("s", "a")],
            "b": [("s", "b")],
        },
        decisions={"a": {0: 0, 1: 0}, "b": {0: 0, 1: 0}},
    )


class TestConsensusChecker:
    def test_ill_formed_verdict_with_report(self):
        system = reviving_system()
        report = ConsensusChecker(system).check(system.state("x"), (0, 0))
        assert report.verdict is Verdict.ILL_FORMED
        assert report.ill_formed
        assert not report.satisfied
        assert [f.code for f in report.preflight.findings] == ["RP203"]
        assert report.preflight.findings[0].witness is not None
        assert "RP203" in report.detail

    def test_no_preflight_explores_the_ill_formed_system(self):
        system = reviving_system()
        report = ConsensusChecker(system, preflight=False).check(
            system.state("x"), (0, 0)
        )
        assert report.verdict is not Verdict.ILL_FORMED
        assert report.preflight is None

    def test_no_preflight_parity_on_a_clean_system(self):
        # The stage must be invisible on well-formed systems: identical
        # reports (verdict, witnesses, counters) with it on or off.
        # budget_stats carries wall-clock seconds, the one legitimately
        # nondeterministic field, so it is normalized out.
        import dataclasses

        system = valid_diamond()
        with_stage = ConsensusChecker(system).check(
            system.state("x"), (0, 0)
        )
        without = ConsensusChecker(system, preflight=False).check(
            system.state("x"), (0, 0)
        )
        assert dataclasses.replace(
            with_stage, budget_stats=None
        ) == dataclasses.replace(without, budget_stats=None)

    def test_ill_formed_charges_no_exploration(self):
        system = reviving_system()
        report = ConsensusChecker(system).check(system.state("x"), (0, 0))
        assert report.states_explored == 0
        assert report.execution is None and report.cycle is None


class TestTaskChecker:
    def test_ill_formed_verdict(self):
        system = reviving_system()
        checker = TaskChecker(system, binary_consensus(2))
        report = checker.check(
            system.state("x"), Simplex.from_values((0, 0))
        )
        assert report.verdict is Verdict.ILL_FORMED
        assert report.ill_formed
        assert [f.code for f in report.preflight.findings] == ["RP203"]

    def test_no_preflight_explores(self):
        system = reviving_system()
        checker = TaskChecker(
            system, binary_consensus(2), preflight=False
        )
        report = checker.check(
            system.state("x"), Simplex.from_values((0, 0))
        )
        assert report.verdict is not Verdict.ILL_FORMED


class TestExplorers:
    def test_reachable_states_refuses(self):
        system = reviving_system()
        with pytest.raises(IllFormedSystemError) as excinfo:
            reachable_states(system, [system.state("x")])
        assert excinfo.value.report is not None
        assert [f.code for f in excinfo.value.report.findings] == [
            "RP203"
        ]

    def test_reachable_states_no_preflight_parity(self):
        broken = reviving_system()
        depths = reachable_states(
            broken, [broken.state("x")], preflight=False
        )
        assert depths == {
            broken.state("x"): 0,
            broken.state("a"): 1,
            broken.state("b"): 1,
        }
        clean = valid_diamond()
        assert reachable_states(
            clean, [clean.state("x")]
        ) == reachable_states(clean, [clean.state("x")], preflight=False)

    def test_explore_refuses(self):
        system = reviving_system()
        with pytest.raises(IllFormedSystemError):
            explore(system, [system.state("x")])
        stats = explore(system, [system.state("x")], preflight=False)
        assert stats.states == 3


class TestRealSystemParity:
    def test_no_preflight_parity_on_an_e12_cell(self, st_floodset_fast):
        # One real grid cell (FloodSet(1) under S^t, n=3, t=1): the full
        # check_all sweep must be byte-identical with the stage on or
        # off, wall-clock seconds aside.
        import dataclasses

        layering = st_floodset_fast
        with_stage = ConsensusChecker(layering).check_all(layering.model)
        without = ConsensusChecker(layering, preflight=False).check_all(
            layering.model
        )
        assert dataclasses.replace(
            with_stage, budget_stats=None
        ) == dataclasses.replace(without, budget_stats=None)
