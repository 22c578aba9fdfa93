"""Output gates: pinned verdicts and state counts, and witness replay.

Every witness is replayed through the public model API: each step of an
execution must be what ``system.apply(state, action)`` produces, the
first state must be the initial state of the reported inputs, and the
final state must exhibit the reported violation.  Each function returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import workloads


def replay(system, execution) -> list:
    """Problems found replaying *execution* step by step on *system*."""
    problems = []
    for i, (state, action, nxt) in enumerate(execution.transitions()):
        if system.apply(state, action) != nxt:
            problems.append(f"step {i} ({action!r}) does not replay")
            break
    return problems


def nonfailed_decisions(system, state) -> dict:
    failed = system.failed_at(state)
    return {
        i: v for i, v in system.decisions(state).items() if i not in failed
    }


def check_report_witness(system, model, report) -> list:
    """Replay a refutation's witness and confirm the violation it shows."""
    verdict = report.verdict.value
    if verdict == "satisfied":
        return []
    execution = report.execution
    if execution is None or report.inputs is None:
        return [f"{verdict} without a witness"]
    problems = []
    if execution.initial != model.initial_state(tuple(report.inputs)):
        problems.append("witness does not start at the reported inputs")
    problems += replay(system, execution)
    final = execution.final
    if verdict == "agreement-violation":
        if len(set(nonfailed_decisions(system, final).values())) < 2:
            problems.append("final state shows no disagreement")
    elif verdict == "validity-violation":
        values = set(nonfailed_decisions(system, final).values())
        if values <= set(report.inputs):
            problems.append("final state shows no invalid decision")
    elif verdict == "decision-violation":
        cycle = report.cycle
        if cycle is None:
            return problems + ["decision violation without a cycle"]
        if cycle.initial != execution.final or cycle.final != cycle.initial:
            problems.append("lasso cycle does not close on the prefix")
        problems += replay(system, cycle)
    return problems


def check_flp(layering, lasso, analyzer) -> list:
    """Pinned states and lasso, replayed, every lasso state bivalent."""
    problems = []
    if analyzer.explored_states != workloads.FLP_STATES:
        problems.append(
            f"states {analyzer.explored_states} != {workloads.FLP_STATES}"
        )
    shape = (lasso.prefix.actions, lasso.cycle.actions)
    if shape != workloads.FLP_LASSO:
        problems.append(f"lasso actions {shape!r} differ from the pinned lasso")
    model = layering.model
    if lasso.prefix.initial not in model.initial_states((0, 1)):
        problems.append("lasso does not start at an initial state")
    if lasso.cycle.initial != lasso.prefix.final:
        problems.append("lasso cycle does not start where the prefix ends")
    if lasso.cycle.final != lasso.cycle.initial:
        problems.append("lasso cycle does not close")
    problems += replay(layering, lasso.prefix)
    problems += replay(layering, lasso.cycle)
    for state in lasso.prefix.states + lasso.cycle.states:
        if not analyzer.valence(state).bivalent:
            problems.append("lasso visits a state that is not bivalent")
            break
    return problems


def lower_bound_systems(campaign: str) -> list:
    """The (system, model) pairs a Corollary 6.3 campaign builds, in its
    unit order (mirrors ``defeat_fast_candidates`` and
    ``verify_tight_protocols``)."""
    from repro.analysis.sync_lower_bound import make_st_system
    from repro.models.sync import SynchronousModel
    from repro.protocols.eig import EIG
    from repro.protocols.floodset import FloodSet

    n, t = workloads.LB_N, workloads.LB_T
    systems = []
    if campaign == "defeat":
        for rounds in range(1, t + 1):
            for protocol in (FloodSet(rounds), EIG(rounds)):
                layering = make_st_system(protocol, n, t)
                systems.append((layering, layering.model))
    else:
        for protocol in (FloodSet(t + 1), EIG(t + 1)):
            layering = make_st_system(protocol, n, t)
            systems.append((layering, layering.model))
            model = SynchronousModel(protocol, n, t)
            systems.append((model, model))
    return systems


def check_lower_bound_unit(key, report, system, model) -> list:
    expected = workloads.LB_EXPECTED.get(key)
    got = (report.verdict.value, report.states_explored)
    if expected is None:
        return [f"unexpected unit {key}"]
    problems = [] if got == expected else [f"{key}: {got} != {expected}"]
    return problems + check_report_witness(system, model, report)


def serve_default_max_states() -> int:
    """The state budget ``repro serve`` gives jobs that set none."""
    from repro.serve.server import ServeConfig

    return ServeConfig(dir=".").default_max_states


def cell_layering(cell):
    """The layered system of a serve cell, built as the job server does."""
    from repro.analysis.impossibility import standard_layerings
    from repro.protocols.registry import PROTOCOLS

    protocol, model, n = cell
    return standard_layerings(PROTOCOLS[protocol](n), n)[model]


def serve_reference(cells) -> dict:
    """In-process reference per serve cell: the fingerprint, the
    canonical stored payload ``run_job`` produces, and witness problems.
    """
    from repro.core.checker import ConsensusChecker
    from repro.serve.jobs import JobSpec, canonical_json, run_job

    budget = {"max_states": serve_default_max_states()}
    reference = {}
    for cell in cells:
        job = workloads.cell_job(cell)
        spec = JobSpec.from_dict(job)
        fingerprint = spec.fingerprint()
        result = run_job({"job": spec.canonical(), "budget": budget})
        record = result.get("record", {})
        problems = []
        if not result.get("conclusive"):
            problems.append(f"{cell}: in-process run_job inconclusive")
        expected = workloads.SERVE_EXPECTED[cell]
        got = (record.get("verdict"), record.get("states_explored"))
        if got != expected:
            problems.append(f"{cell}: {got} != {expected}")
        layering = cell_layering(cell)
        report = ConsensusChecker(
            layering, preflight=False, cache=True
        ).check_all(layering.model)
        if (report.verdict.value, report.states_explored) != got:
            problems.append(f"{cell}: checker and run_job disagree")
        if report.execution is not None and record.get(
            "schedule_length"
        ) != len(report.execution.actions):
            problems.append(f"{cell}: schedule length differs")
        problems += [
            f"{cell}: {p}"
            for p in check_report_witness(layering, layering.model, report)
        ]
        reference[cell] = {
            "fingerprint": fingerprint,
            "record": record,
            "payload": canonical_json(
                {"fingerprint": fingerprint, "job": spec.canonical(),
                 "record": record}
            ),
            "problems": problems,
        }
    return reference
