"""E13 — budget metering overhead: the cooperative checks must be cheap.

The resilience layer's budget meter is charged from the hottest loops in
the library (every state and edge of every exhaustive search), so its
cost is a tax on *all* verification.  Two measurements:

* **macro** — states/second of a full :func:`repro.core.exploration.explore`
  sweep of the synchronic read/write layering under three budgets:
  ``unlimited`` (no limits armed), ``states`` (the state limit alone, the
  shape of :data:`~repro.resilience.budget.DEFAULT_BUDGET`), and ``full``
  (all four limits armed high enough never to trip — the worst realistic
  case).
* **micro** — nanoseconds per ``charge_state`` call on a bare meter, which
  bounds the per-state cost independent of successor generation.

The acceptance bar is that the fully-armed budget costs < 5% relative to
the unlimited baseline on the macro sweep.  In practice successor
generation dominates by orders of magnitude, so the measured overhead sits
inside timer noise; the table under ``benchmarks/results/`` records both
numbers.
"""

import time

import pytest

from benchmarks.helpers import save_table
from repro.analysis.reports import render_table
from repro.core.exploration import explore
from repro.layerings.synchronic_rw import SynchronicRWLayering
from repro.models.shared_memory import SharedMemoryModel
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget

#: The allowed relative slowdown of fully-armed budgets vs unlimited.
OVERHEAD_BAR = 0.05

#: Timer-noise allowance for the hard assertion on shared machines.
NOISE_ALLOWANCE = 0.10


def make_system(n: int = 3):
    """The E12 shared-memory workload (~650 states, ~2100 edges)."""
    return SynchronicRWLayering(SharedMemoryModel(QuorumDecide(n - 1), n))


def budget_for(config: str) -> Budget:
    """The three measured budget configurations."""
    if config == "unlimited":
        return Budget.unlimited()
    if config == "states":
        return Budget(max_states=50_000_000)
    if config == "full":
        return Budget(
            max_states=50_000_000,
            max_edges=500_000_000,
            max_seconds=3600.0,
            max_memory_bytes=1 << 40,
        )
    raise ValueError(config)


def run_explore(config: str):
    system = make_system()
    roots = list(system.model.initial_states((0, 1)))
    stats = explore(system, roots, budget=budget_for(config))
    assert stats.complete
    return stats


CONFIGS = ["unlimited", "states", "full"]


@pytest.mark.parametrize("config", CONFIGS)
def test_e13_explore_under_budget(benchmark, config):
    stats = benchmark(run_explore, config)
    assert stats.states > 0


def _states_per_second(config: str, repeats: int = 3) -> tuple[float, int]:
    """Best-of-N throughput (best-of suppresses one-sided OS noise)."""
    best = 0.0
    states = 0
    for _ in range(repeats):
        start = time.perf_counter()
        stats = run_explore(config)
        elapsed = time.perf_counter() - start
        states = stats.states
        best = max(best, states / elapsed)
    return best, states


def _charge_ns(config: str, calls: int = 200_000) -> float:
    """Nanoseconds per charge_state on a bare meter (no exploration)."""
    meter = budget_for(config).meter()
    token = ("p", 0, frozenset((0, 1)))
    start = time.perf_counter()
    for _ in range(calls):
        meter.charge_state(token)
    return (time.perf_counter() - start) / calls * 1e9


def test_e13_table():
    rows = []
    rates = {}
    for config in CONFIGS:
        rate, states = _states_per_second(config)
        rates[config] = rate
        rows.append(
            [config, states, f"{rate:,.0f}", f"{_charge_ns(config):.0f}"]
        )
    overhead = rates["unlimited"] / rates["full"] - 1.0
    rows.append(["full-vs-unlimited overhead", "-", f"{overhead:+.1%}", "-"])
    save_table(
        "e13_budget_overhead",
        "E13: budget metering overhead (explore, synchronic-rw "
        f"QuorumDecide n=3; bar: <{OVERHEAD_BAR:.0%})",
        render_table(
            ["budget", "states", "states/sec", "ns/charge"], rows
        ),
    )
    assert overhead < OVERHEAD_BAR + NOISE_ALLOWANCE, (
        f"budget metering overhead {overhead:.1%} is far above the "
        f"{OVERHEAD_BAR:.0%} target"
    )
