"""Unit tests for the rotating-coordinator candidate."""

import pytest

from repro.protocols.candidates import CoordinatorState, RotatingCoordinator
from repro.resilience.budget import Budget


@pytest.fixture
def proto():
    return RotatingCoordinator(phases=3)


def coord_msg(pid, phase, estimate):
    return ("coord", pid, phase, estimate)


class TestBasics:
    def test_phases_validated(self):
        with pytest.raises(ValueError):
            RotatingCoordinator(0)

    def test_initial_estimate_is_input(self, proto):
        s = proto.initial_local(1, 3, 7)
        assert s.estimate == 7
        assert proto.decision(1, 3, s) is None

    def test_emit_carries_phase_and_estimate(self, proto):
        s = proto.initial_local(2, 3, 1)
        assert proto.emit(2, 3, s) == ("coord", 2, 0, 1)

    def test_freezes_after_phases(self, proto):
        s = CoordinatorState(pid=0, input=1, estimate=1, phase=3, decided=1)
        assert proto.emit(0, 3, s) is None
        assert proto.observe(0, 3, s, ()) == s


class TestAdoption:
    def test_adopts_coordinator_estimate(self, proto):
        # phase 0's coordinator is process 0
        s = proto.initial_local(1, 3, 1)
        s1 = proto.observe(1, 3, s, ((0, coord_msg(0, 0, 0)),))
        assert s1.estimate == 0
        assert s1.phase == 1

    def test_ignores_non_coordinator(self, proto):
        s = proto.initial_local(1, 3, 1)
        s1 = proto.observe(1, 3, s, ((2, coord_msg(2, 0, 0)),))
        assert s1.estimate == 1

    def test_ignores_stale_phase(self, proto):
        s = proto.initial_local(1, 3, 1)
        s1 = proto.observe(1, 3, s, ((0, coord_msg(0, 2, 0)),))
        assert s1.estimate == 1

    def test_coordinator_keeps_own_estimate(self, proto):
        s = proto.initial_local(0, 3, 1)  # process 0 coordinates phase 0
        s1 = proto.observe(0, 3, s, ((2, coord_msg(2, 0, 0)),))
        assert s1.estimate == 1

    def test_decides_estimate_at_final_phase(self):
        proto = RotatingCoordinator(1)
        s = proto.initial_local(1, 3, 1)
        s1 = proto.observe(1, 3, s, ((0, coord_msg(0, 0, 0)),))
        assert proto.decision(1, 3, s1) == 0


class TestDefeat:
    def test_defeated_in_every_layered_model(self):
        from repro.analysis.impossibility import refute_candidate
        from repro.core.checker import Verdict

        for refutation in refute_candidate(
            RotatingCoordinator(3), 3, budget=Budget(max_states=900_000)
        ):
            assert refutation.verdict is Verdict.AGREEMENT, (
                refutation.model_name
            )
