"""Checkpoint/resume: resumed runs reach uninterrupted verdicts.

The acceptance bar: for at least one model per family (synchronous,
mobile, shared-memory), running ``check_all`` under a budget that trips,
then resuming from the produced checkpoint — possibly over many hops —
must yield a verdict identical to the uninterrupted run's, witness
included.
"""

import pytest

from repro.core.checker import ConsensusChecker
from repro.resilience.budget import Budget
from repro.resilience.checkpoint import (
    CampaignCheckpoint,
    CheckAllCheckpoint,
    CheckpointCorrupt,
    CheckpointMismatch,
    system_fingerprint,
)
from repro.resilience.frames import read_frames, rewrite_frames
from repro.resilience.journal import MAGIC, CampaignJournal, load_journal

MAX_HOPS = 500
TEST_MAGIC = b"RTEST001\n"


def _resume_to_verdict(system, per_hop_budget):
    """Run check_all under a tiny budget, resuming until conclusive."""
    checkpoint = None
    for _ in range(MAX_HOPS):
        checker = ConsensusChecker(system, Budget(max_states=per_hop_budget))
        report = checker.check_all(system.model, checkpoint=checkpoint)
        if not report.inconclusive:
            return report
        checkpoint = report.checkpoint
        assert isinstance(checkpoint, CheckAllCheckpoint)
    raise AssertionError(f"no verdict after {MAX_HOPS} resume hops")


def _assert_same_outcome(resumed, baseline):
    assert resumed.verdict is baseline.verdict
    assert resumed.inputs == baseline.inputs
    if baseline.execution is None:
        assert resumed.execution is None
    else:
        assert resumed.execution.actions == baseline.execution.actions
    assert resumed.states_explored == baseline.states_explored


class TestResumeEqualsUninterrupted:
    def test_synchronous_family(self, st_floodset_tight):
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        resumed = _resume_to_verdict(st_floodset_tight, per_hop_budget=5)
        assert baseline.satisfied
        _assert_same_outcome(resumed, baseline)

    def test_synchronous_family_refuted(self, st_floodset_fast):
        baseline = ConsensusChecker(st_floodset_fast).check_all(
            st_floodset_fast.model
        )
        resumed = _resume_to_verdict(st_floodset_fast, per_hop_budget=2)
        assert baseline.refuted
        _assert_same_outcome(resumed, baseline)

    def test_mobile_family(self, mobile_floodset):
        baseline = ConsensusChecker(mobile_floodset).check_all(
            mobile_floodset.model
        )
        resumed = _resume_to_verdict(mobile_floodset, per_hop_budget=25)
        _assert_same_outcome(resumed, baseline)

    def test_shared_memory_family(self, quorum_synchronic_rw):
        baseline = ConsensusChecker(quorum_synchronic_rw).check_all(
            quorum_synchronic_rw.model
        )
        resumed = _resume_to_verdict(quorum_synchronic_rw, per_hop_budget=50)
        _assert_same_outcome(resumed, baseline)


class TestDiskRoundTrip:
    def test_save_load_resume(self, st_floodset_tight, tmp_path):
        report = ConsensusChecker(
            st_floodset_tight, budget=Budget(max_states=5)
        ).check_all(st_floodset_tight.model)
        assert report.inconclusive
        path = tmp_path / "sweep.ckpt"
        journal = CampaignJournal.create(path)
        journal.suspend("unit", report.checkpoint)
        journal.close()
        state, _ = load_journal(path)
        loaded = state.resume_point("unit")
        assert isinstance(loaded, CheckAllCheckpoint)
        assert loaded.assignment_index == report.checkpoint.assignment_index
        resumed = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model, checkpoint=loaded
        )
        baseline = ConsensusChecker(st_floodset_tight).check_all(
            st_floodset_tight.model
        )
        assert resumed.verdict is baseline.verdict
        assert resumed.states_explored == baseline.states_explored

    def test_not_a_checkpoint_file(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        import pickle

        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CheckpointMismatch):
            load_journal(path)


class TestFingerprintGuard:
    def test_wrong_system_rejected(
        self, st_floodset_tight, st_floodset_fast
    ):
        report = ConsensusChecker(
            st_floodset_tight, budget=Budget(max_states=5)
        ).check_all(st_floodset_tight.model)
        assert report.inconclusive
        with pytest.raises(CheckpointMismatch):
            ConsensusChecker(st_floodset_fast).check_all(
                st_floodset_fast.model, checkpoint=report.checkpoint
            )

    def test_fingerprint_mentions_protocol(self, st_floodset_tight):
        fp = system_fingerprint(st_floodset_tight)
        assert "StSynchronousLayering" in fp
        assert "FloodSet" in fp


def _payloads(path):
    payloads, torn, _ = read_frames(path, TEST_MAGIC)
    assert torn == 0
    return payloads


class TestAtomicSave:
    """The one whole-file rewrite behind journal and verdict-store
    compaction (:func:`repro.resilience.frames.rewrite_frames`)."""

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        rewrite_frames(path, TEST_MAGIC, [b"v1"], "test.rewrite")
        rewrite_frames(path, TEST_MAGIC, [b"v2", b"v2b"], "test.rewrite")
        assert _payloads(path) == [b"v2", b"v2b"]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_mid_write_death_preserves_previous(self, tmp_path):
        """SIGKILL while the new contents are being written must leave
        the previous file intact — the write goes to a temp file and
        only an atomic rename publishes it."""
        import multiprocessing
        import os
        import signal

        path = tmp_path / "campaign.ckpt"
        rewrite_frames(path, TEST_MAGIC, [b"v1"], "test.rewrite")
        before = path.read_bytes()

        def die_mid_save() -> None:
            def torn_payloads():
                yield b"v2"
                os.kill(os.getpid(), signal.SIGKILL)
                yield b"never written"

            rewrite_frames(path, TEST_MAGIC, torn_payloads(), "test.rewrite")

        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=die_mid_save)
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == -signal.SIGKILL
        assert path.read_bytes() == before
        assert _payloads(path) == [b"v1"]

    def test_directory_fsynced_after_rename(self, tmp_path, monkeypatch):
        """Durability needs three steps in order: fsync the temp file,
        rename it over the target, fsync the *directory* — without the
        last one a power failure can roll the rename back even though
        os.replace already returned."""
        import os as os_module
        import stat as stat_module

        events = []
        real_fsync = os_module.fsync
        real_replace = os_module.replace

        def spy_fsync(fd):
            mode = os_module.fstat(fd).st_mode
            events.append(
                ("fsync", "dir" if stat_module.S_ISDIR(mode) else "file")
            )
            real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("rename", None))
            real_replace(src, dst)

        monkeypatch.setattr(os_module, "fsync", spy_fsync)
        monkeypatch.setattr(os_module, "replace", spy_replace)
        rewrite_frames(
            tmp_path / "campaign.ckpt", TEST_MAGIC, [b"v1"], "test.rewrite"
        )
        assert events == [
            ("fsync", "file"),
            ("rename", None),
            ("fsync", "dir"),
        ]

    def test_failed_save_cleans_temp_and_keeps_old(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        rewrite_frames(path, TEST_MAGIC, [b"v1"], "test.rewrite")

        def failing_payloads():
            yield b"v2"
            raise RuntimeError("disk full, say")

        with pytest.raises(RuntimeError):
            rewrite_frames(path, TEST_MAGIC, failing_payloads(), "test.rewrite")
        assert list(tmp_path.glob("*.tmp")) == []
        assert _payloads(path) == [b"v1"]


class TestCorruptLoad:
    def test_truncated_file_is_a_clean_diagnostic(self, tmp_path):
        """A cut inside the journal header is corruption.  (A cut after
        the header is a torn tail, which loading heals — see
        ``test_journal.py``.)"""
        path = tmp_path / "campaign.ckpt"
        CampaignJournal.create(path).close()
        path.write_bytes(path.read_bytes()[: len(MAGIC) // 2])
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_journal(path)
        message = str(excinfo.value)
        assert "corrupted checkpoint" in message
        assert str(path) in message

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"this is not a pickle at all \x00\xff")
        with pytest.raises(CheckpointCorrupt):
            load_journal(path)

    def test_corrupt_is_a_mismatch(self):
        """Existing CheckpointMismatch handlers (the CLI exits 2) must
        cover corruption without new plumbing."""
        assert issubclass(CheckpointCorrupt, CheckpointMismatch)

    def test_missing_file_stays_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_journal(tmp_path / "never-written.ckpt")


class TestCampaignCheckpoint:
    def test_record_and_report_for(self):
        campaign = CampaignCheckpoint()
        assert campaign.report_for("unit") is None
        campaign.suspend("unit", inner=None)
        campaign.record("unit", report="done")
        assert campaign.report_for("unit") == "done"
        assert campaign.current is None and campaign.inner is None

    def test_resume_point_is_keyed(self):
        campaign = CampaignCheckpoint()
        campaign.suspend("a", inner="partial-a")
        assert campaign.resume_point("a") == "partial-a"
        assert campaign.resume_point("b") is None
