"""Unit tests for the layering framework itself."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.layerings.base import Layering, verify_layering_embedding
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.mobile import MobileModel, omit_action
from repro.models.shared_memory import SharedMemoryModel, step_action
from repro.protocols.candidates import QuorumDecide
from repro.protocols.floodset import FloodSet


class BrokenLayering(Layering):
    """Expands to a primitive that is not enabled — must be caught."""

    def layer_actions(self, state):
        return [("broken",)]

    def expand(self, state, action):
        return [("no-such-primitive", 0)]


class WrongFoldLayering(Layering):
    """apply() disagrees with the folded expansion — must be caught."""

    def layer_actions(self, state):
        return [("weird",)]

    def expand(self, state, action):
        return [omit_action(0, ())]

    def apply(self, state, action):
        # deliberately apply a DIFFERENT primitive than expand claims
        return self.model.apply(state, omit_action(0, (1, 2)))


class TestEmbeddingVerification:
    def test_broken_expansion_caught(self):
        model = MobileModel(FloodSet(2), 3)
        layering = BrokenLayering(model)
        state = model.initial_state((0, 1, 1))
        with pytest.raises(AssertionError, match="not enabled"):
            verify_layering_embedding(layering, state, ("broken",))

    def test_wrong_fold_caught(self):
        model = MobileModel(FloodSet(2), 3)
        layering = WrongFoldLayering(model)
        state = model.initial_state((0, 1, 1))
        with pytest.raises(AssertionError, match="disagrees"):
            verify_layering_embedding(layering, state, ("weird",))

    def test_caught_under_optimize_flag(self):
        # ``python -O`` strips assert statements; the check must not be one.
        root = Path(__file__).resolve().parents[2]
        script = """
from repro.layerings.base import verify_layering_embedding
from repro.models.mobile import MobileModel
from repro.protocols.floodset import FloodSet
from tests.layerings.test_base import BrokenLayering, WrongFoldLayering

assert False, "asserts are live: not running under -O"
model = MobileModel(FloodSet(2), 3)
state = model.initial_state((0, 1, 1))
for layering, action in (
    (BrokenLayering(model), ("broken",)),
    (WrongFoldLayering(model), ("weird",)),
):
    try:
        verify_layering_embedding(layering, state, action)
    except AssertionError as exc:
        print("caught:", exc)
    else:
        print("missed:", type(layering).__name__)
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root)]
        ))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, cwd=root, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2, result.stdout
        assert "not enabled" in lines[0] and lines[0].startswith("caught:")
        assert "disagrees" in lines[1] and lines[1].startswith("caught:")

    def test_trace_endpoints(self):
        model = SharedMemoryModel(QuorumDecide(2), 3)
        layering = SynchronicRWLayering(model)
        state = model.initial_state((0, 1, 1))
        action = layering.layer_actions(state)[0]
        trace = verify_layering_embedding(layering, state, action)
        assert trace[0] == state
        assert trace[-1] == layering.apply(state, action)
        # the sync action (j=0,k=0): 2 proper writes + 2*3 early... all
        # reads late: 2 writes + 1 j-write + 3 j-reads + 6 late reads
        assert len(trace) == 1 + len(layering.expand(state, action))


class TestSuccessorSystemConformance:
    """Models and layerings both satisfy the analyzer-facing protocol."""

    @pytest.mark.parametrize(
        "system_factory",
        [
            lambda: MobileModel(FloodSet(2), 3),
            lambda: S1MobileLayering(MobileModel(FloodSet(2), 3)),
            lambda: SynchronicRWLayering(
                SharedMemoryModel(QuorumDecide(2), 3)
            ),
        ],
        ids=["model", "s1", "srw"],
    )
    def test_interface(self, system_factory):
        system = system_factory()
        model = getattr(system, "model", system)
        state = model.initial_state((0, 1, 1))
        succs = system.successors(state)
        assert succs
        for action, child in succs:
            assert child.n == 3
            assert isinstance(system.nonfaulty_under(action), frozenset)
        assert isinstance(system.failed_at(state), frozenset)
        assert isinstance(system.decisions(state), dict)

    def test_layering_properties(self):
        layering = S1MobileLayering(MobileModel(FloodSet(2), 3))
        assert layering.n == 3
        assert isinstance(layering.model, MobileModel)
