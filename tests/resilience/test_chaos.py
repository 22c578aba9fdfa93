"""The crashpoint framework: specs, arming, scope, and firing modes.

The full kill/resume sweeps live in the integration suite
(``tests/integration/test_chaos_recovery.py``); this file pins down the
injection mechanics those sweeps rely on.
"""

import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

import repro.resilience.chaos as chaos
from repro.cli import main
from repro.exitcodes import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_SERVER_UNREACHABLE,
    EXIT_UNEXPECTED,
)
from repro.resilience.chaos import (
    ENV_SCOPE,
    ENV_SPECS,
    BaselineFailed,
    ChaosInjected,
    CrashSpec,
    _select_hits,
    active_plan,
    chaos_sweep,
    crashpoint,
    is_armed,
    parse_specs,
    staged_result,
)


class TestSpecs:
    def test_parse_round_trip(self):
        specs = parse_specs("a.b:3:kill; c.d:1:stall:2.5")
        assert specs == (
            CrashSpec("a.b", 3, "kill", 0.0),
            CrashSpec("c.d", 1, "stall", 2.5),
        )
        assert specs[1].describe() == "c.d:1:stall:2.5"

    def test_empty_chunks_skipped(self):
        assert parse_specs(";;  ;") == ()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("just-a-name")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            parse_specs("a:1:explode")


class TestCrashpoint:
    def test_disarmed_is_a_noop(self):
        assert not is_armed()
        crashpoint("anything.at.all")  # must not raise, count, or trace

    def test_raise_mode_fires_on_the_exact_hit(self):
        with active_plan("p.q:2:raise") as state:
            crashpoint("p.q")  # hit 1: no fire
            with pytest.raises(ChaosInjected):
                crashpoint("p.q")  # hit 2: fire
            assert state.hits["p.q"] == 2
            assert [s.hit for s in state.fired] == [2]

    def test_hits_counted_per_name(self):
        with active_plan("") as state:
            crashpoint("a")
            crashpoint("a")
            crashpoint("b")
            assert state.hits == {"a": 2, "b": 1}

    def test_stall_mode_sleeps(self):
        with active_plan("s:1:stall:0.05"):
            started = time.monotonic()
            crashpoint("s")
            assert time.monotonic() - started >= 0.04

    def test_trace_file_records_every_hit(self, tmp_path):
        trace = tmp_path / "trace.txt"
        with active_plan("", trace_path=str(trace)):
            crashpoint("x.y")
            crashpoint("x.y")
            crashpoint("z")
        assert trace.read_text().splitlines() == ["x.y", "x.y", "z"]

    def test_plan_restored_after_context(self):
        with active_plan("p:1:raise"):
            assert is_armed()
        assert not is_armed()


def _child_hits_crashpoint(env: dict) -> None:
    os.environ.update(env)
    chaos.rearm_from_env()
    crashpoint("engine.point")


class TestScope:
    """Workers inherit the chaos environment but must not die at engine
    crashpoints — a killed worker's unit would be retried, re-killed and
    quarantined, changing verdicts."""

    def _run_child(self, env: dict) -> int:
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_child_hits_crashpoint, args=(env,))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode is not None
        return proc.exitcode

    def test_main_scope_spares_child_processes(self):
        code = self._run_child(
            {ENV_SPECS: "engine.point:1:kill", ENV_SCOPE: "main"}
        )
        assert code == 0

    def test_all_scope_kills_child_processes(self):
        code = self._run_child(
            {ENV_SPECS: "engine.point:1:kill", ENV_SCOPE: "all"}
        )
        assert code == -signal.SIGKILL

    def test_kill_mode_is_a_real_sigkill(self):
        ctx = multiprocessing.get_context("fork")

        def die():
            # scope="all": this body runs in a multiprocessing child,
            # which the default main-only scope would deliberately spare.
            with active_plan("p:1:kill", scope="all"):
                crashpoint("p")

        proc = ctx.Process(target=die)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL


class TestHitSelection:
    def test_small_counts_take_everything(self):
        assert _select_hits(3, 5, "p", seed=0) == [1, 2, 3]

    def test_large_counts_keep_first_and_last(self):
        picks = _select_hits(100, 4, "p", seed=0)
        assert len(picks) == 4
        assert picks[0] == 1 and picks[-1] == 100
        assert all(1 <= h <= 100 for h in picks)

    def test_selection_is_deterministic(self):
        assert _select_hits(50, 3, "p", seed=1) == _select_hits(
            50, 3, "p", seed=1
        )

    def test_selection_varies_with_seed(self):
        varied = {
            tuple(_select_hits(1000, 5, "p", seed=s)) for s in range(8)
        }
        assert len(varied) > 1

    def test_max_hits_is_a_cap(self):
        assert _select_hits(5, 1, "p", seed=0) == [1]
        assert _select_hits(5, 2, "p", seed=0) == [1, 5]
        for count in range(1, 12):
            for cap in range(1, 5):
                picks = _select_hits(count, cap, "p", seed=0)
                assert len(picks) == min(count, cap)
                assert picks[0] == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_hits_below_one_rejected(self, cap):
        with pytest.raises(ValueError):
            _select_hits(5, cap, "p", seed=0)


class FakeTarget:
    """An in-process sweep target: a scripted census, no subprocesses."""

    CHECKS = ("struck", "checked")
    columns = ("crashpoint", "hit", "mode", *CHECKS)
    modes = ("kill", "exit")
    cells = None
    title = "a fake target"
    contract = "nothing real"

    def __init__(self, reachable=None, failing=(), baseline_error=None):
        self.reachable = dict(reachable or {})
        self.failing = set(failing)
        self.baseline_error = baseline_error
        self.calls = []

    def baseline(self, dirpath):
        self.calls.append("baseline")
        if self.baseline_error:
            raise BaselineFailed(self.baseline_error)
        return "expected"

    def census(self, dirpath):
        self.calls.append("census")
        return Counter(self.reachable)

    def cycle(self, dirpath, cell, baseline):
        assert os.path.isdir(dirpath) and not os.listdir(dirpath)
        assert baseline == "expected"
        self.calls.append(cell)
        if cell in self.failing:
            return staged_result(cell, self.CHECKS, 1, "diverged")
        return staged_result(cell, self.CHECKS, 2)


class TestSweepDriver:
    REACHABLE = {"b.point": 5, "a.point": 1, "c.point": 40}

    def test_seeded_selection_over_the_sorted_census(self, tmp_path):
        target = FakeTarget(self.REACHABLE)
        sweep = chaos_sweep(
            target, workdir=str(tmp_path), max_hits_per_point=3, seed=7
        )
        assert list(sweep.reachable) == ["a.point", "b.point", "c.point"]
        expected = [
            (point, hit, "kill")
            for point in ("a.point", "b.point", "c.point")
            for hit in _select_hits(self.REACHABLE[point], 3, point, 7)
        ]
        assert [r.cell for r in sweep.results] == expected
        assert target.calls == ["baseline", "census", *expected]

    def test_points_filter_keeps_the_full_census(self, tmp_path):
        sweep = chaos_sweep(
            FakeTarget(self.REACHABLE),
            workdir=str(tmp_path),
            max_hits_per_point=2,
            points=["b.point"],
        )
        assert len(sweep.reachable) == 3
        assert [r.cell for r in sweep.results] == [
            ("b.point", 1, "kill"), ("b.point", 5, "kill"),
        ]

    def test_modes_loop_innermost(self, tmp_path):
        sweep = chaos_sweep(
            FakeTarget({"p": 2}),
            workdir=str(tmp_path),
            modes=("kill", "exit"),
        )
        assert [r.cell for r in sweep.results] == [
            ("p", 1, "kill"), ("p", 1, "exit"),
            ("p", 2, "kill"), ("p", 2, "exit"),
        ]

    def test_on_result_fires_in_cycle_order(self, tmp_path):
        seen = []
        sweep = chaos_sweep(
            FakeTarget(self.REACHABLE),
            workdir=str(tmp_path),
            on_result=seen.append,
        )
        assert seen == sweep.results and len(seen) == 7

    def test_ok_and_describe(self, tmp_path):
        sweep = chaos_sweep(
            FakeTarget({"p": 3}, failing=[("p", 3, "kill")]),
            workdir=str(tmp_path),
        )
        assert not sweep.ok
        assert [r.ok for r in sweep.results] == [True, True, False]
        assert sweep.results[2].checks == {"struck": True, "checked": False}
        assert sweep.results[2].row() == ["p", 3, "kill", True, False,
                                          "diverged"]
        text = sweep.describe()
        assert text.splitlines()[0] == "1 reachable crashpoints, 3 cycles, 2 ok"
        assert "FAIL p:3:kill: diverged" in text
        assert chaos_sweep(FakeTarget({"p": 3}), workdir=str(tmp_path)).ok

    def test_empty_census_is_not_ok(self, tmp_path):
        sweep = chaos_sweep(FakeTarget({}), workdir=str(tmp_path))
        assert sweep.results == [] and not sweep.ok and not sweep.error

    def test_baseline_failure_becomes_sweep_error(self, tmp_path):
        target = FakeTarget(self.REACHABLE, baseline_error="no server")
        sweep = chaos_sweep(target, workdir=str(tmp_path))
        assert sweep.error == "no server"
        assert not sweep.ok and sweep.results == []
        assert target.calls == ["baseline"]
        assert "baseline failed: no server" in sweep.describe()

    def test_fixed_cells_skip_the_census(self, tmp_path):
        target = FakeTarget()
        target.cells = [("drop", "request"), ("reset", "stream")]
        sweep = chaos_sweep(target, workdir=str(tmp_path), modes=("raise",))
        assert [r.cell for r in sweep.results] == target.cells
        assert sweep.reachable == {}
        assert "census" not in target.calls

    def test_each_sweep_gets_a_fresh_kept_subdirectory(self, tmp_path):
        chaos_sweep(FakeTarget({"p": 1}), workdir=str(tmp_path))
        chaos_sweep(FakeTarget({"p": 1}), workdir=str(tmp_path))
        roots = sorted(os.listdir(tmp_path))
        assert len(roots) == 2
        assert sorted(os.listdir(tmp_path / roots[0])) == [
            "baseline", "census", "cycle-p.1.kill",
        ]

    @pytest.mark.parametrize(
        "kwargs", [{"max_hits_per_point": 0}, {"modes": ("raise",)},
                   {"modes": ()}]
    )
    def test_bad_arguments_rejected_before_any_work(self, tmp_path, kwargs):
        target = FakeTarget({"p": 1})
        with pytest.raises(ValueError):
            chaos_sweep(target, workdir=str(tmp_path), **kwargs)
        assert target.calls == []


class TestChaosCommand:
    """`repro chaos` maps a sweep onto exit codes in one place."""

    def _run(self, monkeypatch, capsys, target, *flags):
        monkeypatch.setattr(chaos, "CampaignTarget", lambda argv, timeout: target)
        code = main(["chaos", *flags, "--", "lower-bound"])
        return code, capsys.readouterr().out

    def test_all_cycles_ok_exit_0(self, monkeypatch, capsys, tmp_path):
        code, out = self._run(
            monkeypatch, capsys, FakeTarget({"p": 2}),
            "--workdir", str(tmp_path),
        )
        assert code == EXIT_OK
        assert "crashpoint  hit  mode  struck  checked  detail" in out
        assert "every cycle held the contract: nothing real" in out

    def test_diverged_cycle_exit_1(self, monkeypatch, capsys, tmp_path):
        target = FakeTarget({"p": 2}, failing=[("p", 2, "kill")])
        code, out = self._run(
            monkeypatch, capsys, target, "--workdir", str(tmp_path)
        )
        assert code == EXIT_UNEXPECTED
        assert "UNEXPECTED" in out

    def test_nothing_reachable_exit_2(self, monkeypatch, capsys, tmp_path):
        code, _ = self._run(
            monkeypatch, capsys, FakeTarget({}), "--workdir", str(tmp_path)
        )
        assert code == EXIT_INCONCLUSIVE

    def test_baseline_failure_exit_69(self, monkeypatch, capsys, tmp_path):
        target = FakeTarget({"p": 2}, baseline_error="never served")
        code, out = self._run(
            monkeypatch, capsys, target, "--workdir", str(tmp_path)
        )
        assert code == EXIT_SERVER_UNREACHABLE
        assert "never served" in out

    @pytest.mark.parametrize(
        "flags", [("--max-hits", "0"), ("--modes", "stall"),
                  ("--modes", "raise")]
    )
    def test_usage_errors_exit_2(self, monkeypatch, capsys, tmp_path, flags):
        target = FakeTarget({"p": 2})
        code, _ = self._run(
            monkeypatch, capsys, target, "--workdir", str(tmp_path), *flags
        )
        assert code == EXIT_INCONCLUSIVE
        assert target.calls == []
