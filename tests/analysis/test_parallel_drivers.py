"""Parallel campaign drivers: identical tables, incremental checkpoints.

The analysis drivers (``refute_candidate``, ``defeat_fast_candidates``,
``verify_tight_protocols``, ``solvability_matrix``) must produce
results identical to their sequential selves under ``workers=N``,
record campaign progress as workers finish, and surface the flags
end-to-end through the CLI.
"""

from repro.analysis.impossibility import refute_candidate
from repro.analysis.solvability_experiments import solvability_matrix
from repro.analysis.sync_lower_bound import (
    defeat_fast_candidates,
    verify_tight_protocols,
)
from repro.cli import EXIT_INCONCLUSIVE, EXIT_OK, main
from repro.protocols.candidates import QuorumDecide
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import CampaignCheckpoint


def _rows_equal(parallel_rows, sequential_rows):
    assert len(parallel_rows) == len(sequential_rows)
    for par, seq in zip(parallel_rows, sequential_rows):
        assert par.protocol_name == seq.protocol_name
        assert par.report.verdict is seq.report.verdict
        assert par.report.inputs == seq.report.inputs
        assert par.report.states_explored == seq.report.states_explored


class TestDriverParity:
    def test_defeat_fast_candidates(self):
        _rows_equal(
            defeat_fast_candidates(3, 1, workers=2),
            defeat_fast_candidates(3, 1),
        )

    def test_verify_tight_protocols(self):
        sequential = verify_tight_protocols(3, 1, include_full_model=False)
        parallel = verify_tight_protocols(
            3, 1, include_full_model=False, workers=2
        )
        _rows_equal(parallel, sequential)
        assert all(r.report.satisfied for r in parallel)

    def test_refute_candidate(self):
        sequential = refute_candidate(QuorumDecide(quorum=2), 3)
        parallel = refute_candidate(QuorumDecide(quorum=2), 3, workers=3)
        assert len(parallel) == len(sequential)
        for par, seq in zip(parallel, sequential):
            assert par.model_name == seq.model_name
            assert par.verdict is seq.verdict
            assert par.report.states_explored == seq.report.states_explored

    def test_solvability_matrix(self):
        kwargs = dict(
            tasks=["identity", "constant"], budget=Budget(max_states=50_000)
        )
        sequential = solvability_matrix(**kwargs)
        parallel = solvability_matrix(workers=2, **kwargs)
        assert list(parallel) == list(sequential)
        for name in sequential:
            assert parallel[name].row == sequential[name].row
            assert parallel[name].error is None
            assert (
                parallel[name].matches_expectation
                == sequential[name].matches_expectation
            )


class TestCampaignIntegration:
    def test_parallel_campaign_records_completed_units(self):
        campaign = CampaignCheckpoint()
        rows = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        assert len(campaign.completed) == len(rows)
        for row in rows:
            key = f"defeat:{row.protocol_name}:n3:t1"
            assert campaign.report_for(key) is not None

    def test_parallel_campaign_reuses_cached_units(self):
        campaign = CampaignCheckpoint()
        first = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        second = defeat_fast_candidates(3, 1, campaign=campaign, workers=2)
        _rows_equal(second, first)
        # The cached reports are the same objects — nothing re-ran.
        for f, s in zip(first, second):
            assert s.report is f.report

    def test_on_unit_fires_per_fresh_unit(self):
        fired = []
        campaign = CampaignCheckpoint()
        rows = defeat_fast_candidates(
            3,
            1,
            campaign=campaign,
            workers=2,
            on_unit=lambda key, report: fired.append(key),
        )
        assert sorted(fired) == sorted(
            f"defeat:{row.protocol_name}:n3:t1" for row in rows
        )


class TestCLIWorkers:
    def test_lower_bound_with_workers(self, capsys):
        code = main(
            ["lower-bound", "--n", "3", "--t", "1", "--workers", "2"]
        )
        assert code == EXIT_OK
        assert "crossover holds" in capsys.readouterr().out

    def test_workers_output_matches_sequential(self, capsys):
        main(["lower-bound", "--n", "3", "--t", "1"])
        sequential_out = capsys.readouterr().out
        main(["lower-bound", "--n", "3", "--t", "1", "--workers", "2"])
        parallel_out = capsys.readouterr().out
        assert parallel_out == sequential_out

    def test_worker_flags_parse_with_knobs(self, capsys):
        code = main(
            [
                "impossibility",
                "--protocol",
                "quorum",
                "--workers",
                "2",
                "--unit-timeout",
                "60",
                "--max-retries",
                "2",
                "--max-states",
                "20000",
            ]
        )
        assert code == EXIT_OK

    def test_corrupted_resume_exits_2_with_diagnostic(
        self, tmp_path, capsys
    ):
        path = tmp_path / "corrupt.ckpt"
        path.write_bytes(b"\x80\x05 definitely not a full pickle")
        code = main(["lower-bound", "--resume", str(path)])
        assert code == EXIT_INCONCLUSIVE
        err = capsys.readouterr().err
        assert "cannot resume" in err
        assert "corrupted checkpoint" in err
        assert "Traceback" not in err

    def test_parallel_run_writes_checkpoint_incrementally(
        self, tmp_path, capsys
    ):
        """With --checkpoint, the autosave hook persists units as they
        finish — the file exists and resumes cleanly afterwards."""
        path = tmp_path / "run.ckpt"
        code = main(
            [
                "lower-bound",
                "--n",
                "3",
                "--t",
                "1",
                "--workers",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK
        assert path.exists()
        capsys.readouterr()
        code = main(["lower-bound", "--resume", str(path), "--workers", "2"])
        assert code == EXIT_OK
        assert "crossover holds" in capsys.readouterr().out
