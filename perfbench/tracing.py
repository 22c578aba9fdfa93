"""In-memory spans around the library's layer boundaries.

The tracer records one span per wrapped call (name, start, end, parent
span) in flat arrays, counts work at the same boundaries, and writes the
spans out once at the end of a pass (see :meth:`Tracer.dump`).  Self time of a span is its
duration minus the time covered by its child spans.

:func:`install_engine` wraps the public entry points of the engine
layers.  The functions under test build most of their instances
internally, so the wrappers go on the classes (and on the one
module-level function, ``repro.lint.contracts.preflight_system``), in
the traced child process only; nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

#: Names of the engine spans (layer boundaries).
APPLY = "models.apply"
SUCCESSORS = "layerings.successors"
CACHE = "cache"
VALENCE = "valence"
CHECKER = "checker"
PREFLIGHT = "preflight"
JOB = "job"


class Tracer:
    """Flat-array span recorder plus boundary counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.job_counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, on_result=None):
        """*fn* recording a span per call; ``on_result(result, parent)``
        runs after each call with the calling span's name."""
        nid = self.name_id(name)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        stack, names, clock = self.stack, self.names, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            caller = stack[-1]
            kind.append(nid)
            parent.append(caller)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result, None if caller < 0 else names[kind[caller]])
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block (for calls the benchmark makes itself)."""
        idx = len(self.kind)
        self.kind.append(self.name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.stack.pop()

    @contextmanager
    def job(self, name: str = JOB):
        """A root span for one job; counters moved inside it are added
        to :attr:`job_counts`, so work done outside jobs (the output
        checks) stays out of the metrics."""
        before = Counter(self.counts)
        with self.span(name):
            yield
        self.job_counts.update(self.counts - before)

    def totals(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` over the spans
        inside job spans.

        A name's ``total_s`` counts only its outermost spans, so a
        nested call of the same name is not counted twice.
        """
        n = len(self.kind)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        job = self._ids.get(JOB, -1)
        inside = bytearray(n)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p < 0:
                inside[i] = kind[i] == job
            else:
                inside[i] = inside[p]
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            if not inside[i]:
                continue
            k = kind[i]
            d = end[i] - start[i]
            calls[k] += 1
            own[k] += d - child[i]
            p = parent[i]
            if p < 0 or kind[p] != k:
                total[k] += d
        return {
            name: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
            for k, name in enumerate(self.names)
        }

    def per_job(self, name: str) -> list:
        """Time inside outermost *name* spans, per job span in order."""
        n = len(self.kind)
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        job, target = self._ids.get(JOB, -1), self._ids.get(name, -1)
        root = [0] * n
        jobs: dict = {}
        for i in range(n):
            p = parent[i]
            if p < 0:
                root[i] = i
                if kind[i] == job:
                    jobs[i] = 0.0
                continue
            root[i] = root[p]
            if kind[i] == target and kind[p] != target and root[i] in jobs:
                jobs[root[i]] += end[i] - start[i]
        return list(jobs.values())

    def dump(self, path: str, header: dict) -> None:
        """Write the spans, gzip-compressed: one JSON header line (with
        ``names``, the span count ``spans`` and the ``arrays`` layout),
        then the raw bytes of the four arrays in that order.  Span ``i``
        is named ``names[kind[i]]`` and has parent span ``parent[i]``
        (-1 for a root)."""
        meta = dict(header, names=self.names, spans=len(self.kind),
                    arrays=["kind:H", "parent:l", "start:d", "end:d"])
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
            for arr in (self.kind, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def _model_classes():
    import repro.layerings  # noqa: F401  (imports every model family)
    import repro.models.snapshot  # noqa: F401
    from repro.models.base import Model

    seen, todo = [], [Model]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [cls for cls in seen if "apply" in cls.__dict__]


def count_cache(counts: Counter, cache) -> None:
    """Add a cache's lookups and interned states to *counts*.

    *cache* is a ``CacheStats``, a ``CachedSystem`` or None (uncached).
    Read while the cache is alive: the statistics of a collected cache
    over-count interned states.
    """
    stats = getattr(cache, "stats", None)
    stats = stats() if callable(stats) else cache
    if stats is not None and hasattr(stats, "interned"):
        counts["cache.hits"] += stats.hits
        counts["cache.misses"] += stats.misses
        counts["cache.interned"] += stats.interned


def install_engine(tracer: Tracer) -> None:
    """Wrap the engine layers' public entry points for this process.

    Spans: ``Model.apply`` on every concrete model, ``successors`` of
    layerings and of models analysed directly, the ``CachedSystem``
    lookups, ``ValenceAnalyzer.valence``, ``ConsensusChecker.check_all``
    and ``preflight_system``.  Counts: ``GlobalState`` constructions,
    layer actions produced by successor functions, checker states, and
    checker edges (successor lists returned straight to the checker).
    """
    import repro.lint.contracts as contracts
    from repro.core.cache import CachedSystem
    from repro.core.checker import ConsensusChecker
    from repro.core.state import GlobalState
    from repro.core.valence import ValenceAnalyzer
    from repro.layerings.base import Layering
    from repro.models.base import Model

    counts = tracer.counts

    def layer_result(result, caller):
        counts["layer_actions"] += len(result)
        if caller == CHECKER:
            counts["checker.edges"] += len(result)

    def cache_result(result, caller):
        if caller == CHECKER:
            counts["checker.edges"] += len(result)

    def checker_result(report, caller):
        counts["checker.states"] += report.states_explored

    for cls in _model_classes():
        cls.apply = tracer.wrap(cls.__dict__["apply"], APPLY)
    Model.successors = tracer.wrap(Model.successors, SUCCESSORS, layer_result)
    Layering.successors = tracer.wrap(
        Layering.successors, SUCCESSORS, layer_result
    )
    CachedSystem.successors = tracer.wrap(
        CachedSystem.successors, CACHE, cache_result
    )
    for attr in ("failed_at", "decisions", "nonfaulty_under"):
        setattr(CachedSystem, attr, tracer.wrap(getattr(CachedSystem, attr), CACHE))
    ValenceAnalyzer.valence = tracer.wrap(ValenceAnalyzer.valence, VALENCE)
    check_all = tracer.wrap(ConsensusChecker.check_all, CHECKER, checker_result)

    def check_all_with_cache(self, *args, **kwargs):
        report = check_all(self, *args, **kwargs)
        count_cache(counts, self.cache_stats())
        return report

    ConsensusChecker.check_all = check_all_with_cache
    contracts.preflight_system = tracer.wrap(
        contracts.preflight_system, PREFLIGHT
    )

    post_init = GlobalState.__post_init__

    def counted_post_init(self):
        counts["state.built"] += 1
        post_init(self)

    GlobalState.__post_init__ = counted_post_init
