"""Parity of the fused layer application with the per-primitive fold.

:meth:`Layering.apply` hands a layer's whole expansion to
:meth:`Model.apply_many`, which the asynchronous models fuse over one
working copy of ``(env, locals)``.  The reference is
:func:`verify_layering_embedding`, which steps through the same expansion
one :meth:`Model.apply` at a time and builds every intermediate state.
Every layering family, every registry protocol, n in {2, 3}: the two
paths must reach equal, equally hashed endpoints, and an illegal
primitive sequence must fail with the same ``ValueError`` either way.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.analysis.impossibility import standard_layerings
from repro.layerings.base import verify_layering_embedding
from repro.layerings.permutation import (
    PermutationLayering,
    full_schedule,
    pair_schedule,
)
from repro.layerings.synchronic_mp import SynchronicMPLayering, sync_mp
from repro.models.async_mp import (
    AsyncMessagePassingModel,
    flush_action,
    recv_action,
    stage_action,
)
from repro.models.shared_memory import SharedMemoryModel, step_action
from repro.models.snapshot import (
    SnapshotMemoryModel,
    scan_action,
    update_action,
)
from repro.protocols.base import MessagePassingProtocol
from repro.protocols.candidates import QuorumDecide
from repro.protocols.registry import PROTOCOLS

STATES_PER_CELL = 200


def _cells():
    for name in sorted(PROTOCOLS):
        for n in (2, 3):
            for family in sorted(standard_layerings(PROTOCOLS[name](n), n)):
                yield pytest.param(name, n, family, id=f"{name}-{family}-{n}")


def _reachable(layering, limit):
    """About *limit* states of *layering*, breadth first from ``Con_0``."""
    initial = layering.model.initial_states()
    seen = set(initial)
    queue = deque(initial)
    states = []
    while queue and len(states) < limit:
        state = queue.popleft()
        states.append(state)
        for _, child in layering.successors(state):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return states


@pytest.mark.parametrize("name,n,family", list(_cells()))
def test_fused_apply_matches_fold(name, n, family):
    layering = standard_layerings(PROTOCOLS[name](n), n)[family]
    applications = 0
    for state in _reachable(layering, STATES_PER_CELL):
        for action in layering.layer_actions(state):
            trace = verify_layering_embedding(layering, state, action)
            fused = layering.apply(state, action)
            assert fused == trace[-1]
            assert hash(fused) == hash(trace[-1])
            applications += 1
    assert applications > 0


def _fold_error(model, state, primitives):
    try:
        for primitive in primitives:
            state = model.apply(state, primitive)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("the per-primitive fold accepted the sequence")


class _SelfSender(MessagePassingProtocol):
    """Sends a message to itself: an illegal ``stage``."""

    def initial_local(self, i, n, input_value):
        return input_value

    def decision(self, i, n, local):
        return None

    def outgoing(self, i, n, local):
        return {i: local}

    def transition(self, i, n, local, received):
        return local


def _mp():
    return AsyncMessagePassingModel(QuorumDecide(2), 3)


@pytest.mark.parametrize(
    "model_factory,primitives",
    [
        pytest.param(
            _mp,
            [stage_action(0), recv_action(0), stage_action(0)],
            id="mp-double-stage",
        ),
        pytest.param(
            _mp,
            [stage_action(1), flush_action(1), recv_action(0), flush_action(0)],
            id="mp-flush-without-outbox",
        ),
        pytest.param(
            lambda: AsyncMessagePassingModel(_SelfSender(), 3),
            [recv_action(1), stage_action(1)],
            id="mp-self-message",
        ),
        pytest.param(
            _mp, [stage_action(0), ("bogus", 0)], id="mp-unknown-action"
        ),
        pytest.param(
            lambda: SharedMemoryModel(QuorumDecide(2), 3),
            [step_action(0), step_action(1), ("read", 0)],
            id="rw-unknown-action",
        ),
        pytest.param(
            lambda: SnapshotMemoryModel(QuorumDecide(2), 3),
            [update_action(0), scan_action(0), scan_action(0)],
            id="snapshot-scan-before-update",
        ),
        pytest.param(
            lambda: SnapshotMemoryModel(QuorumDecide(2), 3),
            [update_action(1), update_action(1)],
            id="snapshot-double-update",
        ),
        pytest.param(
            lambda: SnapshotMemoryModel(QuorumDecide(2), 3),
            [update_action(2), ("bogus", 2)],
            id="snapshot-unknown-action",
        ),
    ],
)
def test_error_parity(model_factory, primitives):
    model = model_factory()
    state = model.initial_state((0, 1, 1))
    expected = _fold_error(model, state, primitives)
    with pytest.raises(ValueError) as caught:
        model.apply_many(state, primitives)
    assert str(caught.value) == expected


class _SenderRecorder(MessagePassingProtocol):
    """Gossips to everyone each phase and records the order in which
    senders arrive in ``received``, phase by phase."""

    def initial_local(self, i, n, input_value):
        return (input_value, ())

    def decision(self, i, n, local):
        return None

    def outgoing(self, i, n, local):
        value, log = local
        return {dest: (i, len(log)) for dest in range(n) if dest != i}

    def transition(self, i, n, local, received):
        value, log = local
        return (value, log + (tuple(received),))


def _sender_orders(state):
    """Every recorded ``received`` order, over all processes and phases."""
    return [order for local in state.locals for order in local[1][1]]


class TestSenderOrder:
    """``received`` lists senders in ascending order even when a flush
    earlier in the same layer adds a lower sender's channel after a
    higher sender's channel is already pending."""

    def test_synchronic_mp_layer(self):
        # sync(0, 0): 1 and 2 flush to everyone, then the slow process 0
        # flushes, so 1 and 2 each find 0's channel added after 2's / 1's.
        layering = SynchronicMPLayering(
            AsyncMessagePassingModel(_SenderRecorder(), 3)
        )
        state = layering.model.initial_state((0, 1, 1))
        after = layering.apply(state, sync_mp(0, 0))
        _, log_1 = after.locals[1][1]
        assert log_1 == ((0, 2),)
        orders = _sender_orders(after)
        assert orders and all(list(o) == sorted(o) for o in orders)
        assert after == verify_layering_embedding(
            layering, state, sync_mp(0, 0)
        )[-1]

    def test_permutation_pair_layer(self):
        # After [0, 1, 2] the channel 2 -> 1 is pending and 0 -> 1 is
        # empty; in [0, {1, 2}] process 0 flushes to 1 before 1 receives.
        layering = PermutationLayering(
            AsyncMessagePassingModel(_SenderRecorder(), 3)
        )
        state = layering.model.initial_state((0, 1, 1))
        state = layering.apply(state, full_schedule((0, 1, 2)))
        assert layering.model.pending_for(state, 1).keys() == {2}
        after = layering.apply(state, pair_schedule((0, 1, 2), 1))
        _, log_1 = after.locals[1][1]
        assert log_1[-1] == (0, 2)
        orders = _sender_orders(after)
        assert orders and all(list(o) == sorted(o) for o in orders)
        assert after == verify_layering_embedding(
            layering, state, pair_schedule((0, 1, 2), 1)
        )[-1]
