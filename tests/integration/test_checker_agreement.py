"""Checker cross-validation: consensus-as-a-task vs the consensus checker.

Binary consensus can be checked two independent ways: the dedicated
:class:`ConsensusChecker` (agreement/validity/decision as separate
predicates) and the generic :class:`TaskChecker` against the
``binary_consensus`` decision problem (agreement and validity folded into
Δ-membership).  The verdicts must correspond on every protocol and
layered model:

* SATISFIED ⇔ SATISFIED;
* agreement- or validity-violations surface as Δ-violations;
* decision-violations coincide exactly.
"""

import pytest

from repro.core.checker import ConsensusChecker, Verdict
from repro.layerings.permutation import PermutationLayering
from repro.layerings.s1_mobile import S1MobileLayering
from repro.layerings.st_synchronous import StSynchronousLayering
from repro.models.async_mp import AsyncMessagePassingModel
from repro.models.mobile import MobileModel
from repro.models.sync import SynchronousModel
from repro.protocols.candidates import QuorumDecide, WaitForAll
from repro.protocols.floodset import FloodSet
from repro.resilience.budget import Budget
from repro.tasks.catalog import binary_consensus
from repro.tasks.checker import TaskChecker

CASES = {
    "quorum-permutation": lambda: PermutationLayering(
        AsyncMessagePassingModel(QuorumDecide(2), 3)
    ),
    "waitforall-permutation": lambda: PermutationLayering(
        AsyncMessagePassingModel(WaitForAll(), 3)
    ),
    "floodset1-st": lambda: StSynchronousLayering(
        SynchronousModel(FloodSet(1), 3, 1)
    ),
    "floodset2-st": lambda: StSynchronousLayering(
        SynchronousModel(FloodSet(2), 3, 1)
    ),
    "quorum-mobile": lambda: S1MobileLayering(
        MobileModel(QuorumDecide(2), 3)
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdicts_correspond(name):
    layering = CASES[name]()
    consensus_report = ConsensusChecker(
        layering, Budget(max_states=600_000)
    ).check_all(layering.model)
    task_report = TaskChecker(
        layering, binary_consensus(3), Budget(max_states=600_000)
    ).check_all(layering.model)

    if consensus_report.satisfied:
        assert task_report.satisfied, name
    elif consensus_report.verdict in (Verdict.AGREEMENT, Verdict.VALIDITY):
        assert task_report.verdict is Verdict.VALIDITY, (
            name,
            task_report.verdict,
        )
    elif consensus_report.verdict is Verdict.DECISION:
        assert task_report.verdict is Verdict.DECISION, name
    else:  # pragma: no cover - no WRITE_ONCE protocols shipped
        pytest.fail(f"unexpected verdict {consensus_report.verdict}")
