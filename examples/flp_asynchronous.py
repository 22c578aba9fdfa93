#!/usr/bin/env python3
"""FLP impossibility via the permutation layering (Section 5.1).

The permutation layering is the paper's immediate-snapshot analogue for
message passing.  This script demonstrates Theorem 4.2's full trichotomy
on three candidate protocols — any asynchronous consensus attempt must
give up decision, agreement or validity — and then replays the proof's
own artifacts: the minimal FLP diamond (two schedules, one global state)
and the forever-bivalent run built layer by layer via Lemma 4.1.

Run:  python examples/flp_asynchronous.py
"""

from repro import (
    AsyncMessagePassingModel,
    Budget,
    ConsensusChecker,
    FullInformationProtocol,
    PermutationLayering,
    QuorumDecide,
    ValenceAnalyzer,
    WaitForAll,
    build_bivalent_lasso,
    decide_constant,
    lemma_3_6,
)
from repro.layerings.permutation import diamond

import os

N = 3

# CI smoke runs cap every exploration budget via this env var.
BUDGET = Budget(
    max_states=int(os.environ.get("REPRO_MAX_STATES", "600000"))
)


def classify(protocol) -> None:
    model = AsyncMessagePassingModel(protocol, N)
    layering = PermutationLayering(model)
    report = ConsensusChecker(layering, budget=BUDGET).check_all(model)
    print(f"{protocol.name()}:")
    print(f"  verdict: {report.verdict.value}  (inputs {report.inputs})")
    if report.execution is not None:
        print(f"  schedule length: {report.execution.length} layers")
    if report.cycle is not None:
        skipped = [
            a for a in report.cycle.actions if a[0] == "short"
        ]
        print(
            f"  starvation cycle: {len(report.cycle.actions)} layer(s), "
            f"short schedules: {skipped}"
        )
    print()


def main() -> None:
    print("== Theorem 4.2's trichotomy under the permutation layering ==\n")
    classify(QuorumDecide(quorum=N - 1))  # gives up agreement
    classify(WaitForAll())  # gives up decision
    classify(
        FullInformationProtocol(1, decide_constant(0), "const0")
    )  # gives up validity

    print("== The minimal FLP diamond ==")
    protocol = QuorumDecide(N - 1)
    model = AsyncMessagePassingModel(protocol, N)
    layering = PermutationLayering(model)
    state = model.initial_state((0, 1, 1))
    left, right = diamond((0, 1, 2))
    y = state
    for action in left:
        y = layering.apply(y, action)
    y_prime = state
    for action in right:
        y_prime = layering.apply(y_prime, action)
    print(f"  x{left[0][1]}{left[1][1]} == x{right[0][1]}{right[1][1]} ?")
    print(f"  -> {'EQUAL' if y == y_prime else 'DIFFERENT'} global states")
    print("  (the short and full schedules share a successor, hence a valence)\n")

    print("== The forever-bivalent run (Lemma 3.6 + repeated Lemma 4.1) ==")
    analyzer = ValenceAnalyzer(layering, budget=BUDGET)
    start = lemma_3_6(model.initial_states((0, 1)), layering, analyzer)
    inputs = [
        model.proto_local(start, i).input for i in range(N)
    ]
    print(f"  bivalent initial state: inputs {tuple(inputs)}")
    lasso = build_bivalent_lasso(layering, analyzer, start)
    print(
        f"  bivalent lasso: {lasso.prefix.length} prefix layer(s) + "
        f"{lasso.cycle.length} repeating layer(s)"
    )
    for k in range(lasso.prefix.length + lasso.cycle.length):
        result = analyzer.valence(lasso.state_at(k))
        print(
            f"    layer {k}: action {lasso.action_at(k)[0]!r:8} "
            f"valence {set(result.values)}"
        )
    print(
        "\nEvery state stays bivalent forever — the undecidability at the "
        "heart of FLP, produced constructively."
    )


if __name__ == "__main__":
    main()
