#!/usr/bin/env python3
"""Santoro–Widmayer: consensus dies under a single mobile failure.

"Time is not a healer": even in a fully synchronous system, if in every
round at most ONE process may lose SOME messages, consensus is impossible
(Corollary 5.2).  This script replays the layered proof's moving parts
over ``S_1``:

1. the similarity chain across a layer — Lemma 5.1(iii)'s witness, with
   each link's crash-display continuation checked;
2. the adversary defeating FloodSet — which is correct in the t-resilient
   model! — because mobile failures never run out;
3. a forever-bivalent run in the shared-memory synchronic submodel for
   comparison (Corollary 5.4 uses exactly the same skeleton).

Run:  python examples/mobile_failures.py
"""

from repro import (
    Budget,
    ConsensusChecker,
    FloodSet,
    MobileModel,
    QuorumDecide,
    S1MobileLayering,
    SharedMemoryModel,
    SynchronicRWLayering,
    ValenceAnalyzer,
    build_bivalent_lasso,
    lemma_3_6,
    similar,
)
from repro.core.faulty import check_crash_display
from repro.core.similarity import similarity_witnesses
from repro.layerings.s1_mobile import similarity_chain

import os

N = 3

# CI smoke runs cap every exploration budget via this env var.
BUDGET = Budget(
    max_states=int(os.environ.get("REPRO_MAX_STATES", "600000"))
)


def main() -> None:
    print("== Lemma 5.1: the structure of one S_1 layer ==\n")
    protocol = FloodSet(rounds=2)
    model = MobileModel(protocol, N)
    layering = S1MobileLayering(model)
    state = model.initial_state((0, 1, 1))

    links = 0
    for a, b in similarity_chain(layering, state):
        x, y = layering.apply(state, a), layering.apply(state, b)
        if x == y:
            continue
        witnesses = similarity_witnesses(x, y, layering)
        assert witnesses and check_crash_display(
            layering, x, y, min(witnesses), steps=8
        )
        links += 1
    layer = {child for _, child in layering.successors(state)}
    print(
        f"  layer size: {len(layer)} distinct states, "
        f"{links} non-trivial similarity links, all crash-display checked"
    )

    print("\n== Corollary 5.2: FloodSet(t+1) falls to mobile failures ==\n")
    report = ConsensusChecker(layering, BUDGET).check_all(model)
    print(f"  FloodSet(2 rounds), correct for t=1 crashes: {report.verdict.value}")
    print(f"  inputs {report.inputs}; schedule:")
    for step, (_, j, group) in enumerate(report.execution.actions, 1):
        blocked = sorted(group - {j})
        text = f"process {j} omits to {blocked}" if blocked else "no loss"
        print(f"    round {step}: {text}")
    print(
        "  The mobile adversary can afflict a DIFFERENT process each "
        "round — the t-resilient correctness proof has no clean round to "
        "stand on."
    )

    print("\n== Corollary 5.4: the same skeleton in shared memory ==\n")
    rw_layering = SynchronicRWLayering(SharedMemoryModel(QuorumDecide(2), N))
    analyzer = ValenceAnalyzer(rw_layering, budget=BUDGET)
    start = lemma_3_6(
        rw_layering.model.initial_states((0, 1)), rw_layering, analyzer
    )
    lasso = build_bivalent_lasso(rw_layering, analyzer, start)
    print(
        f"  bivalent run in S^rw: {lasso.prefix.length} + "
        f"{lasso.cycle.length}-cycle layers, every state bivalent"
    )
    print(
        "  ... in a submodel where every round at least n-1 processes "
        "write and read n-1 fresh values — barely asynchronous, and "
        "already impossible."
    )


if __name__ == "__main__":
    main()
