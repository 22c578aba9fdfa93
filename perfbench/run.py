"""Benchmark runner: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload flp-valence --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

``flp-valence``
    Fresh runs of Theorem 4.2's construction,
    ``forever_bivalent_run(PermutationLayering(AsyncMessagePassingModel(
    QuorumDecide(2), 3)))``.
``lower-bound``
    The 8 campaign units of ``repro lower-bound --n 4 --t 2
    --full-model``, through ``defeat_fast_candidates(4, 2)`` and
    ``verify_tight_protocols(4, 2)``.
``serve-mixed``
    ``repro serve`` at its defaults on a fresh store; one client on one
    connection submits the 32 refute cells once fresh and then again as
    repeats, in a seeded interleaving, each with ``wait=true``.

Jobs run one at a time in a closed loop.  A run repeats whole passes over
the workload's fixed job list, each in a fresh process (a fresh server
for ``serve-mixed``), until ``--seconds`` would be exceeded, then checks
every output.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` one untraced pass and two traced passes give the per-layer
metrics, the tracing overhead, and the exact-count check.  The last line
of stdout is the JSON result; the full report (provenance included) is
the line before it and ``perfbench/out/result-*.json``.

Exit status: 0 when every output is correct, 1 when a check failed (the
result is still printed), 2 when the directory is not a checkout of the
library (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from calibrate import REFERENCE_S, calibration_slice

HERE = os.path.dirname(os.path.abspath(__file__))

#: ``setup_s`` is the median of at least this many set-ups per run.
SETUP_SAMPLES = 5
#: Every run makes at least this many passes.
MIN_PASSES = 2
#: No pass starts once the run would end later than this.
RUN_BUDGET_S = 150.0
#: Per-request socket timeout for the serve client.
REQUEST_TIMEOUT_S = 60.0

#: Counts that must repeat exactly across the two traced passes.
EXACT_COUNTS = (
    "models.apply.calls",
    "state.built",
    "valence.states",
    "checker.states",
    "checker.edges",
    "preflight.calls",
    "serve.stored",
    "serve.store_hits",
)

#: The ROADMAP's re-anchor facts the traced runs re-measure.
ROADMAP_FACTS = {
    "per3_valence_states": 2990,
    "per3_globalstates_built": 271928,
    "preflight_factor_small_cells": [3.0, 6.0],
}


class ChildFailed(RuntimeError):
    """A pass process or the server failed to produce its result."""


class Run:
    """Everything one invocation needs: arguments, paths, outcomes."""

    def __init__(self, args, root: str) -> None:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        #: Metric name -> unit, as ``BENCHMARK.json`` defines them.
        self.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.args = args
        self.workload = args.workload
        self.seed = args.seed
        self.root = root
        self.out_dir = os.path.join(HERE, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.began = time.monotonic()
        self.jobs = workloads.job_list(self.workload, self.seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.began

    def judge(self, problems: list, where: str = "") -> None:
        """Count one job, failed when it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}{p}" for p in problems)

    def fail_jobs(self, count: int, reason: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(reason)

    # -- child processes ---------------------------------------------------
    def child(self, spec: dict) -> dict:
        """Run ``worker.py`` on *spec*; its result with ``setup_s``."""
        timeout = max(5.0, 175.0 - self.elapsed())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
        )
        try:
            out, err = proc.communicate(
                json.dumps(spec).encode() + b"\n", timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{spec['mode']} pass timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.strip():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            raise ChildFailed(
                f"{spec['mode']} pass exited {proc.returncode}: {' | '.join(tail)}"
            )
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result


# -- serve-mixed: the live server --------------------------------------------

class Connection:
    """One persistent newline-JSON connection to ``repro serve``."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection(
            (host, port), timeout=REQUEST_TIMEOUT_S
        )
        self.reader = self.sock.makefile("rb")

    def request(self, obj: dict) -> dict:
        self.sock.sendall(json.dumps(obj).encode() + b"\n")
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def wait_endpoint(directory: str, proc, deadline: float) -> tuple[str, int]:
    path = os.path.join(directory, "endpoint")
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ChildFailed(f"server exited {proc.returncode} at start")
        try:
            with open(path, encoding="ascii") as fh:
                text = fh.read()
        except FileNotFoundError:
            text = ""
        if text.endswith("\n"):
            host, port = text.strip().rsplit(":", 1)
            return host, int(port)
        time.sleep(0.002)
    raise ChildFailed("server did not publish its endpoint in time")


def read_store(path: str) -> dict:
    """``{fingerprint: stored payload bytes}`` of a verdict store file."""
    from repro.serve.store import VerdictStore

    with VerdictStore(path) as store:
        return {fp: store.record_bytes(fp) for fp in store.fingerprints()}


def serve_pass(run: Run, entries: list) -> dict:
    """Start a server on a fresh store, submit *entries*, shut it down.

    The server and every process in its process group are killed and its
    directory removed in ``finally``, whatever happened.
    """
    directory = tempfile.mkdtemp(prefix="serve-", dir=run.out_dir)
    log_path = os.path.join(directory, "server.log")
    proc = None
    try:
        with open(log_path, "wb") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", directory],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                cwd=run.root,
                env=run.env,
                start_new_session=True,
            )
        host, port = wait_endpoint(directory, proc, spawned + 30.0)
        conn = Connection(host, port)
        try:
            if conn.request({"op": "ping"}).get("status") != "ok":
                raise ChildFailed("server did not answer ping")
            setup = time.monotonic() - spawned
            answers = []
            slices = [calibration_slice()] if entries else []
            for cell, fresh in entries:
                sent = time.perf_counter()
                response = conn.request({
                    "op": "submit",
                    "job": workloads.cell_job(tuple(cell)),
                    "wait": True,
                })
                answers.append((tuple(cell), fresh,
                                time.perf_counter() - sent, response))
                if fresh:
                    slices.append(calibration_slice())
            stats = conn.request({"op": "stats"})["stats"]
            conn.request({"op": "shutdown"})
        finally:
            conn.close()
        proc.wait(timeout=30)
        stored = read_store(os.path.join(directory, "verdicts.store"))
        return {"setup_s": setup,
                "wall_s": sum(answer[2] for answer in answers),
                "answers": answers, "calibration_s": slices,
                "counters": stats["counters"], "stored": stored}
    except (OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        detail = ""
        if os.path.exists(log_path):
            with open(log_path, "rb") as fh:
                detail = fh.read().decode(errors="replace").strip()[-300:]
        raise ChildFailed(f"server pass failed: {exc!r} {detail}") from None
    finally:
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        shutil.rmtree(directory, ignore_errors=True)


def check_serve_pass(run: Run, result: dict, reference: dict) -> None:
    """Judge every answer of one server pass against the reference."""
    from repro.serve.jobs import canonical_json

    sent_repeats = 0
    for cell, fresh, _, response in result["answers"]:
        ref = reference[cell]
        problems = list(ref["problems"]) if fresh else []
        if response.get("status") != "done" or "result" not in response:
            problems.append(f"{cell}: answer {response!r}")
        else:
            if canonical_json(response["result"]) != canonical_json(ref["record"]):
                problems.append(f"{cell}: answered record differs from run_job")
            if response.get("id") != ref["fingerprint"]:
                problems.append(f"{cell}: fingerprint differs")
            if bool(response.get("cached")) == bool(fresh):
                problems.append(f"{cell}: fresh/repeat answered from the wrong path")
        if fresh and result["stored"].get(ref["fingerprint"]) != ref["payload"]:
            problems.append(f"{cell}: stored record not byte-identical to run_job")
        sent_repeats += not fresh
        run.judge(problems)
    counters = result["counters"]
    expected = {"stored": len(reference), "store_hits": sent_repeats,
                "errors": 0}
    for name, value in expected.items():
        if counters.get(name) != value:
            run.problems.append(
                f"server counter {name} = {counters.get(name)}, expected {value}"
            )


# -- statistics ---------------------------------------------------------------

def tail(samples: list) -> dict | None:
    """The highest percentile with at least ten samples beyond it
    (nearest rank), or None when nothing beyond p50 is supported."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 50, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return {"percentile": q, "value": ordered[rank - 1], "samples": n}
    return None


def ms(seconds: list) -> list:
    return [s * 1000.0 for s in seconds]


# -- the two kinds of run -----------------------------------------------------

def run_passes(run: Run, one_pass) -> list:
    """Whole passes until the next one would overrun ``--seconds``."""
    passes = []
    while True:
        try:
            passes.append(one_pass())
        except ChildFailed as exc:
            run.fail_jobs(workloads.jobs_per_pass(run.workload, run.jobs),
                          str(exc))
            break
        spent = run.elapsed()
        per_pass = spent / len(passes)
        if spent + per_pass > RUN_BUDGET_S or (
            len(passes) >= MIN_PASSES and spent + per_pass > run.args.seconds
        ):
            break
    return passes


def measure(run: Run) -> tuple[dict, dict]:
    """An untraced run: end-to-end metrics plus reported extras."""
    serve = run.workload == "serve-mixed"
    if serve:
        passes = run_passes(run, lambda: serve_pass(run, run.jobs))
    else:
        spec = {"mode": "pass", "workload": run.workload, "jobs": run.jobs}
        passes = run_passes(run, lambda: run.child(spec))
    if not passes:
        return {}, {}
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        try:
            if serve:
                setups.append(serve_pass(run, [])["setup_s"])
            else:
                setups.append(run.child({"mode": "setup",
                                         "workload": run.workload,
                                         "jobs": run.jobs})["setup_s"])
        except ChildFailed as exc:
            run.problems.append(str(exc))
            break
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if serve:
        reference = serve_reference(run)
        for result in passes:
            check_serve_pass(run, result, reference)
        fresh = [a[2] for p in passes for a in p["answers"] if a[1]]
        hits = [a[2] for p in passes for a in p["answers"] if not a[1]]
    else:
        fresh, hits = [], []
        for result in passes:
            for job in result["jobs"]:
                run.judge(job["problems"])
                fresh.append(job["latency_s"])
    slices = [x for p in passes for x in p["calibration_s"]]
    factor = REFERENCE_S / statistics.median(slices)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_ms": statistics.median(ms(fresh)),
    }
    metrics = {name: value * factor for name, value in raw.items()}
    metrics["peak_rss_mb"] = peak
    extras = {
        "speed_factor": factor,
        "calibration_slices": len(slices),
        "raw": raw,
        "passes": len(passes),
        "detail": [
            {"wall_s": p["wall_s"], "slices_s": p["calibration_s"],
             "jobs_ms": ms([j["latency_s"] for j in p["jobs"]]
                           if "jobs" in p else [a[2] for a in p["answers"]])}
            for p in passes
        ],
        "setup_samples_s": setups,
        "setup_samples": len(setups),
        "jobs": len(fresh),
        "job_tail_ms": scaled(tail(ms(fresh)), factor),
    }
    if serve:
        extras["hit_p50_ms"] = statistics.median(ms(hits)) * factor
        extras["hit_tail_ms"] = scaled(tail(ms(hits)), factor)
        extras["hits"] = len(hits)
    return metrics, extras


def scaled(tail_entry: dict | None, factor: float) -> dict | None:
    if tail_entry is None:
        return None
    return dict(tail_entry, value=tail_entry["value"] * factor)


def serve_reference(run: Run) -> dict:
    """The in-process reference of every serve cell, computed after
    measuring.  It is a pure function of the library's source, so it is
    kept in ``out/`` under the source digest and reused by later runs of
    the same source."""
    import checks

    path = os.path.join(
        run.out_dir, f"serve-reference-{source_digest(run.root)}.json"
    )
    try:
        with open(path, encoding="ascii") as fh:
            stored = json.load(fh)
        return {tuple(item["cell"]): dict(item, payload=item["payload"].encode("ascii"))
                for item in stored}
    except (OSError, ValueError, KeyError):
        pass
    cells = sorted({tuple(cell) for cell, _ in run.jobs})
    reference = checks.serve_reference(cells)
    items = [
        dict(ref, cell=list(cell), payload=ref["payload"].decode("ascii"))
        for cell, ref in reference.items()
    ]
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(items, fh)
    os.replace(tmp, path)
    return reference


def traced_pass(run: Run, tag: str, mode: str, level: str, **extra) -> dict:
    spec = dict(extra, mode=mode, workload=run.workload, jobs=run.jobs,
                trace=level)
    if level == "all":
        spec["spans_path"] = os.path.join(
            run.out_dir, f"spans-{run.workload}-{tag}.bin.gz"
        )
        spec["header"] = {"workload": run.workload, "seed": run.seed,
                          "pass": tag}
    return run.child(spec)


def traced(run: Run) -> tuple[dict, dict]:
    """A traced run: per-layer metrics, overhead, exact-count check."""
    serve = run.workload == "serve-mixed"
    layers = {
        name: 0 if unit == "count" else 0.0
        for name, unit in run.per_layer.items()
    }
    extras: dict = {}
    if serve:
        untraced = serve_pass(run, run.jobs)
        check_serve_pass(run, untraced, serve_reference(run))
        layers["serve.stored"] = untraced["counters"]["stored"]
        layers["serve.store_hits"] = untraced["counters"]["store_hits"]
        layers["serve.errors"] = untraced["counters"]["errors"]
        dirs = [tempfile.mkdtemp(prefix="replay-", dir=run.out_dir)
                for _ in range(3)]
        try:
            base = traced_pass(run, "S", "serve-replay", "serve", dir=dirs[0])
            a = traced_pass(run, "A", "serve-replay", "all", dir=dirs[1])
            b = traced_pass(run, "B", "serve-replay", "all", dir=dirs[2])
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        for result in (base, a, b):
            for job in result["jobs"]:
                run.judge(job["problems"], "replay: ")
        layers.update(serve_layers(untraced, base))
        for p in (a, b):
            for key in ("stored", "store_hits", "errors"):
                if p["counters"][key] != untraced["counters"][key]:
                    run.problems.append(
                        f"replay {key} = {p['counters'][key]}, live server "
                        f"{untraced['counters'][key]}"
                    )
        extras["preflight_factor_small_cells"] = preflight_factor(base, a)
    else:
        spec = {"mode": "pass", "workload": run.workload, "jobs": run.jobs}
        base = run.child(spec)
        a = traced_pass(run, "A", "pass", "all")
        b = traced_pass(run, "B", "pass", "all")
        for result in (base, a, b):
            for job in result["jobs"]:
                run.judge(job["problems"])
    for name in EXACT_COUNTS:
        if exact_count(a, name) != exact_count(b, name):
            run.problems.append(
                f"count {name} differs across traced passes: "
                f"{exact_count(a, name)} vs {exact_count(b, name)}"
            )
    for name, value in a["layers"].items():
        if isinstance(value, int):
            layers[name] = value
        else:
            layers[name] = (value + b["layers"][name]) / 2
    traced_wall = (a["wall_s"] + b["wall_s"]) / 2
    layers["trace.overhead_s"] = traced_wall - base["wall_s"]
    extras["untraced_wall_s"] = base["wall_s"]
    extras["traced_wall_s"] = traced_wall
    if run.workload == "flp-valence":
        jobs = len(run.jobs)
        extras["per_job_globalstates_built"] = a["layers"]["state.built"] / jobs
        extras["per_job_valence_states"] = a["layers"]["valence.states"] / jobs
    return layers, extras


def exact_count(result: dict, name: str):
    """A count of one traced pass; the serve counters come from the
    replay's store, since the live server runs once per traced run."""
    if name.startswith("serve."):
        return result.get("counters", {}).get(name[len("serve."):], 0)
    return result["layers"].get(name, 0)


def serve_layers(untraced: dict, base: dict) -> dict:
    """serve/store/journal call times from the serve-level replay, and
    the part of fresh-job latency they do not explain."""
    calls: dict = {}
    explained: dict = {}
    for job in base["jobs"]:
        for name, seconds in job["parts"].items():
            calls.setdefault(name, []).append(seconds * 1000.0)
        if job["fresh"]:
            explained[tuple(job["cell"])] = sum(job["parts"].values())
    def med(name):
        values = calls.get(name)
        return statistics.median(values) if values else 0.0
    overhead = [
        latency - explained[cell]
        for cell, fresh, latency, _ in untraced["answers"]
        if fresh and cell in explained
    ]
    return {
        "serve.validate_ms": med("serve.validate"),
        "serve.fingerprint_ms": med("serve.fingerprint"),
        "store.get_ms": med("store.get"),
        "serve.run_job_ms": med("serve.run_job"),
        "store.put_ms": med("store.put"),
        "journal.record_ms": med("journal.record"),
        "serve.overhead_ms": (
            statistics.median(overhead) * 1000.0 if overhead else 0.0
        ),
    }


def preflight_factor(base: dict, traced_all: dict) -> float | None:
    """Median over small fresh cells (run_job under 150 ms untraced) of
    job time over job time without preflight, from the traced replay."""
    small = {
        tuple(job["cell"]) for job in base["jobs"]
        if job["fresh"] and job["parts"].get("serve.run_job", 1.0) < 0.150
    }
    factors = [
        job["latency_s"] / (job["latency_s"] - job["preflight_s"])
        for job in traced_all["jobs"]
        if job["fresh"] and tuple(job["cell"]) in small
        and job["latency_s"] > job["preflight_s"]
    ]
    return statistics.median(factors) if factors else None


# -- provenance and output ------------------------------------------------------

def source_digest(root: str) -> str:
    """sha256 over the library's Python sources (paths and bytes)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(run: Run) -> dict:
    commit = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=run.root,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(run.root):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": bool(run.args.trace),
        "seconds": run.args.seconds,
        "run_length_s": run.elapsed(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source_digest(run.root),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a checkout of the library "
            "(src/repro not found)", file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    sys.path.insert(0, os.path.join(root, "src"))
    run = Run(args, root)
    if args.trace:
        try:
            values, extras = traced(run)
        except ChildFailed as exc:
            run.fail_jobs(workloads.jobs_per_pass(run.workload, run.jobs),
                          str(exc))
            values, extras = {}, {}
        units = run.per_layer
    else:
        values, extras = measure(run)
        units = run.end_to_end
    correct = (
        not run.problems and run.failed == 0 and run.attempted > 0
        and set(values) == set(units)
    )
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items() if name in values
    }
    report = {
        "provenance": provenance(run),
        "metrics": metrics,
        "extras": extras,
        "error_rate": run.failed / run.attempted if run.attempted else 1.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "roadmap": {
            "reference": ROADMAP_FACTS,
            "measured": {
                key: extras[key] for key in (
                    "per_job_valence_states",
                    "per_job_globalstates_built",
                    "preflight_factor_small_cells",
                ) if key in extras
            },
        },
        "problems": run.problems[:50],
    }
    path = os.path.join(
        run.out_dir,
        f"result-{run.workload}-seed{run.seed}-trace{args.trace}.json",
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
