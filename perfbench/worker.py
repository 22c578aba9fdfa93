"""One measured pass in a fresh interpreter.

The runner starts ``python3 perfbench/worker.py`` with ``PYTHONPATH=src``
and writes one JSON spec to its stdin; the worker writes one JSON result
to its stdout.  Modes:

``pass``
    Import ``repro``, build the workload's systems, note the ready time,
    then run the job list one job at a time, timing each and checking
    its output outside the timed region.
``setup``
    The set-up part of ``pass`` only (extra ``setup_s`` samples).
``serve-replay``
    Replay a ``serve-mixed`` job list in-process through the calls one
    ``submit`` makes on the server: ``JobSpec.from_dict``,
    ``JobSpec.fingerprint``, ``VerdictStore.get``, then for a fresh job
    ``CampaignJournal.record``, ``run_job``, ``VerdictStore.put`` and
    ``CampaignJournal.record``.

Untraced passes time a calibration slice (see :mod:`calibrate`) before
each job and after the last one, outside the job latencies.  With
``trace`` set, spans are recorded (see :mod:`tracing`) and the per-layer
metrics of the pass are returned; ``trace == "serve"`` records only the
serve-level calls, keeping the engine untraced.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

import checks
import tracing
import workloads
from calibrate import calibration_slice

EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def build(workload: str, jobs: list) -> list:
    """Import the library and build the systems of one pass."""
    if workload == "flp-valence":
        from repro import (
            AsyncMessagePassingModel,
            PermutationLayering,
            QuorumDecide,
        )
        from repro.analysis.impossibility import forever_bivalent_run  # noqa: F401

        return [
            PermutationLayering(AsyncMessagePassingModel(QuorumDecide(2), 3))
            for _ in jobs
        ]
    # The first preflight imports the lint package; importing it here
    # keeps that one-off cost in set-up instead of in whichever job
    # happens to run first.
    import repro.lint.contracts  # noqa: F401

    if workload == "lower-bound":
        import repro.analysis.sync_lower_bound  # noqa: F401
    elif workload == "serve-mixed":
        import repro.serve.jobs  # noqa: F401
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return list(jobs)


def run_flp(systems, tracer, calibration) -> tuple[list, int]:
    from repro.analysis.impossibility import forever_bivalent_run

    results, valence_states = [], 0
    for layering in systems:
        calibration()
        t0 = time.perf_counter()
        with tracer.job():
            lasso, analyzer = forever_bivalent_run(layering)
        latency = time.perf_counter() - t0
        tracing.count_cache(tracer.job_counts, analyzer.system)
        problems = checks.check_flp(layering, lasso, analyzer)
        valence_states += analyzer.explored_states
        results.append({"latency_s": latency, "problems": problems})
        del lasso, analyzer
    return results, valence_states


def run_lower_bound(campaigns, tracer, calibration) -> list:
    from repro.analysis.sync_lower_bound import (
        defeat_fast_candidates,
        verify_tight_protocols,
    )

    functions = {
        "defeat": defeat_fast_candidates,
        "tight": verify_tight_protocols,
    }
    results = []
    for campaign in campaigns:
        keys, starts, stamps = [], [], []

        def on_unit(key, report):
            stamps.append(time.perf_counter())
            keys.append(key)
            calibration()
            starts.append(time.perf_counter())

        calibration()
        starts.append(time.perf_counter())
        with tracer.job():
            rows = functions[campaign](workloads.LB_N, workloads.LB_T,
                                     on_unit=on_unit)
        systems = checks.lower_bound_systems(campaign)
        for key, row, (system, model), begin, done in zip(
            keys, rows, systems, starts, stamps
        ):
            results.append({
                "key": key,
                "latency_s": done - begin,
                "problems": checks.check_lower_bound_unit(
                    key, row.report, system, model
                ),
            })
        if len(rows) != len(systems) or len(keys) != len(rows):
            results.append({"key": campaign, "latency_s": 0.0,
                            "problems": [f"{campaign}: unit count differs"]})
    return results


def run_serve_replay(entries, tracer, directory) -> tuple[list, dict]:
    """The in-process replay of one ``serve-mixed`` pass."""
    from repro.resilience.journal import CampaignJournal
    from repro.serve.jobs import JobSpec, run_job
    from repro.serve.store import VerdictStore

    budget = {"max_states": checks.serve_default_max_states(),
              "max_seconds": 60.0}
    store = VerdictStore(os.path.join(directory, "verdicts.store"))
    ledger = CampaignJournal.create(os.path.join(directory, "server.journal"))
    counters = {"stored": 0, "store_hits": 0, "errors": 0}
    results = []

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        with tracer.span(name):
            value = fn(*args)
        parts[name] = parts.get(name, 0.0) + time.perf_counter() - t0
        return value

    try:
        for cell, fresh in entries:
            cell = tuple(cell)
            parts: dict = {}
            record = None
            t0 = time.perf_counter()
            with tracer.job():
                spec = timed("serve.validate", JobSpec.from_dict,
                             workloads.cell_job(cell))
                fingerprint = timed("serve.fingerprint", spec.fingerprint)
                stored = timed("store.get", store.get, fingerprint)
                if stored is not None:
                    counters["store_hits"] += 1
                    record = stored["record"]
                else:
                    timed("journal.record", ledger.record,
                          f"job:{fingerprint}",
                          {"job": spec.canonical(), "tenant": "default"})
                    result = timed("serve.run_job", run_job,
                                   {"job": spec.canonical(), "budget": budget})
                    if result.get("conclusive"):
                        record = result["record"]
                        if timed("store.put", store.put, fingerprint,
                                 spec.canonical(), record):
                            counters["stored"] += 1
                    else:
                        counters["errors"] += 1
                    timed("journal.record", ledger.record,
                          f"done:{fingerprint}", {"outcome": "stored"})
            latency = time.perf_counter() - t0
            expected = workloads.SERVE_EXPECTED[cell]
            got = None if record is None else (
                record.get("verdict"), record.get("states_explored"))
            problems = [] if got == expected else [f"{cell}: {got} != {expected}"]
            if (stored is None) != bool(fresh):
                problems.append(f"{cell}: store hit on a fresh job or miss on a repeat")
            results.append({"cell": list(cell), "fresh": fresh,
                            "latency_s": latency, "parts": parts,
                            "problems": problems})
    finally:
        ledger.close()
        store.close()
    return results, counters


def layer_metrics(tracer, valence_states) -> dict:
    """The per-layer metrics of one traced pass."""
    totals = tracer.totals()
    counts = tracer.job_counts

    def get(name):
        return totals.get(name, EMPTY)

    apply, succ = get(tracing.APPLY), get(tracing.SUCCESSORS)
    checker, preflight = get(tracing.CHECKER), get(tracing.PREFLIGHT)
    job = get(tracing.JOB)
    checker_states = counts["checker.states"]
    distinct = valence_states + checker_states
    hits = counts["cache.hits"]
    lookups = hits + counts["cache.misses"]
    return {
        "models.apply.calls": apply["calls"],
        "models.apply.self_s": apply["self_s"],
        "layerings.successors.calls": succ["calls"],
        "layerings.successors.self_s": succ["self_s"],
        "layerings.primitives_per_layer": (
            apply["calls"] / counts["layer_actions"]
            if counts["layer_actions"] else 0.0
        ),
        "state.built": counts["state.built"],
        "state.built_per_distinct": (
            counts["state.built"] / distinct if distinct else 0.0
        ),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.interned": counts["cache.interned"],
        "cache.self_s": get(tracing.CACHE)["self_s"],
        "valence.states": valence_states,
        "valence.self_s": get(tracing.VALENCE)["self_s"],
        "checker.states": checker_states,
        "checker.edges": counts["checker.edges"],
        "checker.self_s": checker["self_s"],
        "preflight.calls": preflight["calls"],
        "preflight.self_s": preflight["self_s"],
        "preflight.share": (
            preflight["total_s"] / job["total_s"] if job["total_s"] else 0.0
        ),
        "trace.spans": sum(t["calls"] for t in totals.values()),
    }


class _NoTrace:
    """Stand-in for the tracer in untraced passes."""

    @property
    def job_counts(self) -> Counter:
        return Counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def job(self):
        return self

    def span(self, name):
        return self


def main() -> int:
    spec = json.loads(sys.stdin.readline())
    mode, workload = spec["mode"], spec["workload"]
    trace = spec.get("trace")
    systems = build(workload, spec["jobs"])
    ready = time.monotonic()
    out: dict = {"ready": ready}
    if mode == "setup":
        print(json.dumps(out), flush=True)
        return 0
    tracer = tracing.Tracer() if trace else _NoTrace()
    if trace == "all":
        tracing.install_engine(tracer)
    slices: list = []

    def calibration():
        if not trace:
            slices.append(calibration_slice())

    valence_states = 0
    if workload == "flp-valence":
        results, valence_states = run_flp(systems, tracer, calibration)
        calibration()
    elif workload == "lower-bound":
        results = run_lower_bound(systems, tracer, calibration)
    else:
        results, out["counters"] = run_serve_replay(
            systems, tracer, spec["dir"]
        )
    out["jobs"] = results
    out["wall_s"] = sum(r["latency_s"] for r in results)
    out["calibration_s"] = slices
    if trace == "all":
        out["layers"] = layer_metrics(tracer, valence_states)
        for job, seconds in zip(results, tracer.per_job(tracing.PREFLIGHT)):
            job["preflight_s"] = seconds
    if trace and spec.get("spans_path"):
        tracer.dump(spec["spans_path"], spec.get("header", {}))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
