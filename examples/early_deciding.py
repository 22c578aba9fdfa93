#!/usr/bin/env python3
"""Wasted faults: the paper's closing remark on Lemma 6.1, live.

"If in some execution k+w crashes are detected by the end of round k,
then agreement can be secured by the end of round t+1-w.  Hence, by
allowing k+w crashes by the end of round k, the environment has
essentially 'wasted' w faults in its quest to delay agreement."

This script runs the early-deciding FloodSet through every S^t schedule
and tabulates the worst decision round as a function of the faults the
adversary actually spent — each fault buys the adversary exactly one
round, and an unspent fault is a round handed back to the protocol.

It also replays the bug the exhaustive checker found in this protocol's
first draft: if an early decider goes silent after deciding, it looks
crashed to everyone else and poisons their clean-round detection.

Run:  python examples/early_deciding.py
"""

import os

from repro.analysis.reports import render_table
from repro.analysis.sync_lower_bound import make_st_system
from repro.core.checker import ConsensusChecker
from repro.models.sync import NO_FAILURE, SynchronousModel, fail_action
from repro.protocols.early_deciding import EarlyDecidingFloodSet
from repro.resilience import Budget

# CI smoke runs cap every exploration budget via this env var.
BUDGET = Budget(
    max_states=int(os.environ.get("REPRO_MAX_STATES", "2000000"))
)


def decision_profile(n: int, t: int):
    from collections import defaultdict

    layering = make_st_system(EarlyDecidingFloodSet(t), n, t)
    model = layering.model
    worst = defaultdict(int)

    def all_decided(state):
        failed = model.failed_at(state)
        decided = model.decisions(state)
        return all(i in decided for i in range(n) if i not in failed)

    from itertools import product

    for inputs in product((0, 1), repeat=n):
        stack = [(model.initial_state(inputs), 0)]
        while stack:
            state, depth = stack.pop()
            if all_decided(state):
                failures = len(model.failed_at(state))
                worst[failures] = max(worst[failures], depth)
                continue
            for action in layering.layer_actions(state):
                stack.append((layering.apply(state, action), depth + 1))
    return dict(worst)


def main() -> None:
    print("== Early-deciding FloodSet: exhaustive verification ==\n")
    for n, t in [(3, 1), (4, 2)]:
        layering = make_st_system(EarlyDecidingFloodSet(t), n, t)
        report = ConsensusChecker(layering, BUDGET).check_all(
            layering.model
        )
        print(
            f"  n={n}, t={t}: {report.verdict.value} "
            f"({report.states_explored} states)"
        )

    print("\n== Each fault buys the adversary exactly one round ==\n")
    rows = []
    for n, t in [(3, 1), (4, 2)]:
        for failures, rounds in sorted(decision_profile(n, t).items()):
            rows.append([n, t, failures, t - failures, rounds, t + 1])
    print(
        render_table(
            ["n", "t", "faults spent", "faults wasted",
             "worst decision round", "t+1"],
            rows,
        )
    )

    print("\n== The bug the checker caught in the first draft ==\n")
    print(
        "  Draft rule: stop broadcasting once decided.  The checker's "
        "counterexample,\n  replayed (n=3, t=1, inputs (0,1,1)):"
    )
    model = SynchronousModel(EarlyDecidingFloodSet(1), 3, 1)
    state = model.initial_state((0, 1, 1))
    state = model.apply(state, fail_action((0, frozenset({1}))))
    print(
        "    round 1: process 0 omits to {1}; process 2 heard everyone "
        "and decides 0 early"
    )
    state = model.apply(state, NO_FAILURE)
    decisions = model.decisions(state)
    print(
        f"    round 2: with the FIX (deciders keep relaying), process 1 "
        f"decides {decisions[1]} — agreement holds"
    )
    print(
        "    without the fix, process 2's silence hides the 0 from "
        "process 1, which decides 1: disagreement.\n"
    )
    print(
        "  Exhaustive model checking is how this class of protocol bug "
        "surfaces at design time."
    )


if __name__ == "__main__":
    main()
