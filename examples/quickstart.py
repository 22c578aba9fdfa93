#!/usr/bin/env python3
"""Quickstart: the t+1-round synchronous lower bound, live.

Corollary 6.3 (Dolev–Strong via layering): every t-resilient consensus
protocol has a run needing t+1 rounds.  This script shows both directions
for n=3, t=1:

1. FloodSet deciding after t=1 round is *defeated*: the S^t adversary
   prints the exact failure schedule producing a disagreement.
2. FloodSet (and EIG) with t+1=2 rounds *verify exhaustively* — every
   failure pattern of the full synchronous model is explored.

Run:  python examples/quickstart.py
"""

import os

from repro import (
    Budget,
    ConsensusChecker,
    EIG,
    FloodSet,
    StSynchronousLayering,
    SynchronousModel,
)

N, T = 3, 1

# CI smoke runs cap every exploration budget via this env var.
BUDGET = Budget(
    max_states=int(os.environ.get("REPRO_MAX_STATES", "1000000"))
)


def describe_action(action) -> str:
    _, j, k = action
    blocked = sorted(set(range(k)) - {j})
    if not blocked:
        return "failure-free round"
    return f"process {j} omits its messages to {blocked} (then silenced)"


def main() -> None:
    print(f"== The t+1 lower bound, n={N}, t={T} ==\n")

    # -- 1. the doomed candidate: decide after t rounds --------------------
    doomed = SynchronousModel(FloodSet(rounds=T), N, T)
    layering = StSynchronousLayering(doomed)
    report = ConsensusChecker(layering, BUDGET).check_all(doomed)
    print(f"FloodSet({T} round) under S^t: {report.verdict.value}")
    print(f"  inputs: {report.inputs}")
    print(f"  what happened: {report.detail}")
    print("  the adversary's schedule:")
    for step, action in enumerate(report.execution.actions, start=1):
        print(f"    round {step}: {describe_action(action)}")

    # replay it, to show the witness is real
    state = doomed.initial_state(report.inputs)
    for action in report.execution.actions:
        state = layering.apply(state, action)
    decisions = {
        i: v
        for i, v in layering.decisions(state).items()
        if i not in layering.failed_at(state)
    }
    print(f"  replayed decisions of non-failed processes: {decisions}\n")

    # -- 2. the tight protocols: t+1 rounds verify exhaustively ------------
    for protocol in (FloodSet(rounds=T + 1), EIG(rounds=T + 1)):
        model = SynchronousModel(protocol, N, T)
        st_report = ConsensusChecker(
            StSynchronousLayering(model), BUDGET
        ).check_all(model)
        full_report = ConsensusChecker(model, BUDGET).check_all(model)
        print(
            f"{protocol.name()}: S^t -> {st_report.verdict.value} "
            f"({st_report.states_explored} states), "
            f"full model -> {full_report.verdict.value} "
            f"({full_report.states_explored} states)"
        )
    print(
        "\nThe bound is exactly t+1: one round fewer is always defeated, "
        "one round more always verifies."
    )


if __name__ == "__main__":
    main()
