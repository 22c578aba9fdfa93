"""Sweep orchestration: campaigns and the sharded ``check_all`` driver.

A *sweep* is one :meth:`ConsensusChecker.check_all` over one layered
system; a *campaign* is an ordered list of keyed sweeps
(:class:`SweepUnit`), the unit of the analysis drivers' tables.  Every
sweep, alone or in a campaign, runs the checker's one path — plan its
assignments (:meth:`~repro.core.checker.ConsensusChecker.plan_sweep`),
check spans of them (:meth:`~repro.core.checker.ConsensusChecker.check_span`),
merge the spans in assignment order
(:meth:`~repro.core.checker.ConsensusChecker.merge_spans`).  ``workers``
only decides where the spans run: inline, one span per sweep, or as
shards on the fault-isolated pool (:func:`run_sharded`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

from repro.core.checker import ConsensusChecker, ConsensusReport
from repro.resilience.budget import Budget
from repro.resilience.chaos import crashpoint
from repro.resilience.checkpoint import CheckAllCheckpoint
from repro.resilience.pool import PoolConfig, UnitOutcome, run_units


@dataclass(frozen=True)
class SweepUnit:
    """One campaign unit: a full ``check_all`` over one layered system.

    Picklable payload for :func:`run_sweep_unit`; *system* and *model*
    are usually ``layering`` and ``layering.model`` but may coincide
    (the full synchronous model checks itself).  *resume* carries the
    in-flight :class:`~repro.resilience.CheckAllCheckpoint` when a
    campaign is resumed, and *value_domain* the input values swept.
    *cache* is the checker's ``cache=`` spec; a ``CachedSystem`` passed
    here (or as *system*) ships only its configuration across the
    process boundary, so each pool worker warms one private cache per
    unit — preserving the deterministic merge.
    """

    system: object
    model: object
    budget: Budget
    resume: Optional[CheckAllCheckpoint] = None
    cache: object = None
    preflight: bool = True
    value_domain: tuple = (0, 1)

    def checker(self) -> ConsensusChecker:
        """A fresh checker for this unit's sweep."""
        return ConsensusChecker(
            self.system, self.budget, cache=self.cache,
            preflight=self.preflight,
        )


def run_sweep_unit(unit: SweepUnit) -> ConsensusReport:
    """One exhaustive sweep, inline."""
    return unit.checker().check_all(
        unit.model, unit.value_domain, checkpoint=unit.resume
    )


# -- the sharded driver -------------------------------------------------------
#
# The pool pickles payloads into worker processes and calls a module-level
# function on them: here one span of one sweep, keyed by the sweep's key.

def _shard_spans(
    start: int, stop: int, shard_states: Optional[int]
) -> list[tuple[int, int]]:
    """Split the assignment cursor range into ``[lo, hi)`` shard spans.

    ``shard_states`` is the number of root assignments per shard
    (default 1 — the finest load balance; payloads are O(span), so fine
    shards cost nothing on the wire).
    """
    if shard_states is not None and shard_states < 1:
        raise ValueError("shard_states must be >= 1")
    size = shard_states or 1
    return [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]


class _SweepContext:
    """Worker-side specs of one sharded run, keyed by sweep.

    Shipped to each worker **once** via ``run_units(..., context=...)``,
    never per shard.  It holds every sweep's :class:`SweepUnit` (resume
    checkpoints stripped — the span payloads carry the cursor) and
    lazily builds one checker and plan per key per process, so all the
    spans of a sweep that land on one worker share one checker, one warm
    cache and one preflight memo.  Sharing is sound because cache
    transparency guarantees byte-identical verdicts, witnesses and
    checkpoints cached or uncached, warm or cold.
    """

    def __init__(self, specs: dict):
        self.specs = specs  # {key: SweepUnit}
        self._sweeps: dict = {}

    def sweep(self, key):
        """The process-local ``(checker, plan)`` of sweep *key*."""
        built = self._sweeps.get(key)
        if built is None:
            unit = self.specs[key]
            checker = unit.checker()
            plan = checker.plan_sweep(unit.model, unit.value_domain)
            built = self._sweeps[key] = (checker, plan)
        return built

    def warmup(self) -> None:
        """Run the memoized preflight probe of the first sweep (whose
        spans are dispatched first) during pool cold-start.

        Best-effort by contract (the pool swallows warmup errors); an
        ill-formed system is never memoized as clean, so its first span
        re-probes and reports ILL_FORMED through the normal merge.
        """
        checker, plan = self.sweep(next(iter(self.specs)))
        checker._preflight_gate(
            [plan.model.initial_state(plan.assignments[0])], None
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_sweeps"] = {}  # caches never cross processes
        return state


def _run_span(payload, context: _SweepContext) -> list:
    """Pool unit: check one span of one sweep.

    The contract preflight gates here, inside the fault-isolated worker,
    never in the driver: the probe calls the user's successor function,
    so a crashing system must crash a *worker* (retried, then
    quarantined) rather than the whole run.
    """
    key, lo, hi, inner = payload
    checker, plan = context.sweep(key)
    return checker.check_span(plan, lo, hi, inner, gate=True)


def run_sharded(
    sweeps: dict,
    workers: int,
    pool: Optional[PoolConfig] = None,
    shard_states: Optional[int] = None,
    on_merged=None,
) -> dict:
    """Run ``{key: SweepUnit}`` sweeps as shards on the worker pool.

    Each sweep's plan is split into spans of ``shard_states``
    assignments and every span of every sweep is scheduled across one
    pool, so even a single heavyweight sweep parallelizes.  A sweep is
    merged in assignment order the moment its last span finishes, and
    *on_merged* (when given) is called as ``on_merged(key, report)``
    right then; a span the pool quarantined merges its sweep as UNKNOWN
    at the span's cursor without failing its neighbours.

    Returns ``{key: report}`` for every sweep.
    """
    config = pool or PoolConfig()
    if config.workers != workers:
        config = replace(config, workers=workers)
    plans: dict = {}
    shards: list[tuple] = []
    for key, unit in sweeps.items():
        checker = unit.checker()
        plan = checker.plan_sweep(unit.model, unit.value_domain, unit.resume)
        spans = _shard_spans(plan.start, len(plan.assignments), shard_states)
        plans[key] = (checker, plan, spans)
        for lo, hi in spans:
            inner = plan.inner if lo == plan.start else None
            shards.append(((key, lo), (key, lo, hi, inner)))

    outcomes: dict = {}
    merged: dict = {}
    remaining = {key: len(spans) for key, (_, _, spans) in plans.items()}

    def merge(key) -> None:
        checker, plan, spans = plans[key]
        results = []
        for lo, hi in spans:
            # A quarantined span merges as the cause the pool gave up with.
            outcome = outcomes[(key, lo)]
            results.append(
                (lo, hi, outcome.value if outcome.ok else outcome.cause())
            )
        merged[key] = checker.merge_spans(plan, results)
        if on_merged is not None:
            on_merged(key, merged[key])

    def finished(outcome: UnitOutcome) -> None:
        key = outcome.key[0]
        outcomes[outcome.key] = outcome
        remaining[key] -= 1
        if not remaining[key]:
            merge(key)

    for key, left in remaining.items():
        if not left:  # resumed past the last assignment
            merge(key)
    if shards:
        specs = {key: replace(unit, resume=None) for key, unit in sweeps.items()}
        run_units(
            _run_span, shards, config, on_complete=finished,
            context=_SweepContext(specs),
        )
    return merged


def run_campaign(
    units: Sequence[tuple],
    campaign=None,
    workers: Optional[int] = None,
    pool: Optional[PoolConfig] = None,
    on_unit=None,
    shard_states: Optional[int] = None,
) -> list[tuple]:
    """Run ``(key, SweepUnit)`` campaign units with shared resilience
    semantics; the engine behind the analysis drivers' ``workers=N``.

    Sequentially (``workers`` None or <= 1) units run inline one at a
    time in submission order, stopping after the first inconclusive
    report — continuing a campaign whose budget already tripped would
    be futile — and an exception from the user's system propagates.
    With ``workers > 1`` every pending sweep runs through
    :func:`run_sharded` on one pool.  Either way reports are taken in
    submission order with the same early stop, so both paths return
    identical results for identical inputs.

    A :class:`~repro.resilience.CampaignCheckpoint` is honoured and
    maintained either way: completed units are reused instantly,
    conclusive reports are recorded as they finish (an interrupt loses
    at most in-flight units), and the inconclusive unit that ends the
    campaign is suspended for resume.  *on_unit*, when given, is called
    as ``on_unit(key, report)`` after each freshly-run unit's campaign
    update, the ending inconclusive unit included (a hook for per-unit
    timing or progress).

    Returns ``(key, report)`` pairs in submission order, truncated at
    the first inconclusive report.
    """
    done: dict = {}
    pending: dict = {}
    for key, unit in units:
        if campaign is not None:
            report = campaign.report_for(key)
            if report is not None:
                done[key] = report
                continue
            resume = campaign.resume_point(key)
            if resume is not None:
                unit = replace(unit, resume=resume)
        pending[key] = unit

    def finish(key, report: ConsensusReport) -> None:
        crashpoint("campaign.unit.finish")
        if campaign is not None:
            if report.inconclusive:
                campaign.suspend(key, report.checkpoint)
            else:
                campaign.record(key, report)
        if on_unit is not None:
            on_unit(key, report)

    fresh: dict = {}
    if workers is not None and workers > 1 and pending:
        def record_conclusive(key, report: ConsensusReport) -> None:
            if not report.inconclusive:
                finish(key, report)

        fresh = run_sharded(
            pending, workers, pool, shard_states, record_conclusive
        )
    out: list[tuple] = []
    for key, _ in units:
        if key in done:
            report = done[key]
        elif key in fresh:
            report = fresh[key]
            if report.inconclusive:
                finish(key, report)
        else:
            crashpoint("campaign.unit.start")
            report = run_sweep_unit(pending[key])
            finish(key, report)
        out.append((key, report))
        if report.inconclusive:
            break
    return out
