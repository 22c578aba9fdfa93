"""The checkpoint journal: append, heal, replay, compact.

The core contract under test: *any* byte-level truncation of the tail
(the signature of ``kill -9`` mid-append) must load without error into a
prefix of the committed campaign, and loading must physically heal the
file so subsequent appends produce a well-formed journal again.
"""

import os
import pickle

import pytest

from repro.resilience.chaos import ChaosInjected, active_plan
from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointCorrupt
from repro.resilience.frames import encode_frame
from repro.resilience.journal import (
    MAGIC,
    CampaignJournal,
    _payload,
    is_journal,
    load_journal,
)


def _journal_with_units(path, units, **kwargs):
    journal = CampaignJournal.create(path, **kwargs)
    for key, report in units:
        journal.record(key, report)
    journal.close()
    return journal


class TestRoundTrip:
    def test_records_replay(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        state, info = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}
        assert not info.healed
        assert info.records == 3  # base + 2 units

    def test_suspend_replays(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path)
        journal.record("a", "ra")
        journal.suspend("b", "partial-b")
        journal.close()
        state, _ = load_journal(path)
        assert state.completed == {"a": "ra"}
        assert state.current == "b"
        assert state.resume_point("b") == "partial-b"

    def test_is_journal(self, tmp_path):
        journal_path = tmp_path / "j.ckpt"
        _journal_with_units(journal_path, [])
        pickled_path = tmp_path / "pickled.ckpt"
        pickled_path.write_bytes(pickle.dumps(CampaignCheckpoint()))
        assert is_journal(journal_path)
        assert not is_journal(pickled_path)
        assert not is_journal(tmp_path / "missing.ckpt")

    def test_resume_continues_appending(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra")])
        journal = CampaignJournal.resume(path)
        assert journal.completed == {"a": "ra"}
        journal.record("b", "rb")
        journal.close()
        state, info = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}
        assert not info.healed

    def test_create_from_existing_state(self, tmp_path):
        """``create`` seeds the base snapshot with a campaign state, so
        appends continue from it."""
        seed = CampaignCheckpoint(completed={"a": "ra"}, current="b")
        path = tmp_path / "seeded.journal"
        journal = CampaignJournal.create(path, seed)
        journal.record("b", "rb")
        journal.close()
        assert is_journal(path)
        state, info = load_journal(path)
        assert state.completed == {"a": "ra", "b": "rb"}
        assert info.records == 2  # base + 1 unit
        assert seed.completed == {"a": "ra"}  # the seed is not mutated

    def test_journal_pickles_as_plain_snapshot(self, tmp_path):
        journal = _journal_with_units(
            tmp_path / "campaign.journal", [("a", "ra")]
        )
        clone = pickle.loads(pickle.dumps(journal))
        assert type(clone) is CampaignCheckpoint
        assert clone.completed == {"a": "ra"}

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignJournal(tmp_path / "j", compact_every=1)


class TestTornTailHealing:
    def test_every_truncation_offset_heals(self, tmp_path):
        """Chop the journal at *every* byte offset: each load must
        succeed, yield a prefix of the committed units, and leave the
        file healed (a second load finds nothing to fix)."""
        path = tmp_path / "campaign.journal"
        units = [("a", "ra"), ("b", "rb"), ("c", "rc")]
        _journal_with_units(path, units)
        blob = path.read_bytes()
        prefixes = [{}, {"a": "ra"}, {"a": "ra", "b": "rb"},
                    {"a": "ra", "b": "rb", "c": "rc"}]
        for cut in range(len(MAGIC), len(blob) + 1):
            torn = tmp_path / f"torn-{cut}.journal"
            torn.write_bytes(blob[:cut])
            state, info = load_journal(torn)
            assert state.completed in prefixes, f"cut at {cut}"
            healed_state, healed_info = load_journal(torn)
            assert not healed_info.healed, f"cut at {cut} not healed"
            assert healed_state.completed == state.completed

    def test_healed_journal_accepts_new_records(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])  # tear the final frame
        journal = CampaignJournal.resume(path)
        assert journal.load_info is not None and journal.load_info.healed
        assert journal.completed == {"a": "ra"}
        journal.record("b", "rb-rerun")
        journal.close()
        state, info = load_journal(path)
        assert not info.healed
        assert state.completed == {"a": "ra", "b": "rb-rerun"}

    def test_crc_flip_in_tail_is_healed(self, tmp_path):
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra"), ("b", "rb")])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # corrupt the last frame's payload
        path.write_bytes(bytes(blob))
        state, info = load_journal(path)
        assert info.healed
        assert state.completed == {"a": "ra"}

    def test_magicless_file_is_corrupt_not_healed(self, tmp_path):
        path = tmp_path / "garbage.journal"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(CheckpointCorrupt):
            load_journal(path)

    def test_unknown_record_shape_is_corrupt(self, tmp_path):
        """A CRC-valid interior record with an unrecognized kind is
        campaign corruption, not a torn tail — healing it away would
        silently drop committed work after it."""
        path = tmp_path / "campaign.journal"
        _journal_with_units(path, [("a", "ra")])
        with open(path, "ab") as fh:
            fh.write(encode_frame(_payload("no-such-kind", ("x", "y"))))
            fh.write(encode_frame(_payload("unit", ("b", "rb"))))
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_journal(path)
        assert "delete the file" in str(excinfo.value)

    def test_empty_journal_after_magic_is_valid(self, tmp_path):
        path = tmp_path / "campaign.journal"
        path.write_bytes(MAGIC)
        state, info = load_journal(path)
        assert state.completed == {}
        assert info.records == 0


class TestCompaction:
    def test_compacts_after_threshold(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path, compact_every=3)
        for i in range(3):
            journal.record(f"u{i}", f"r{i}")
        journal.close()
        state, info = load_journal(path)
        assert info.records == 1  # rewritten as a single base snapshot
        assert state.completed == {f"u{i}": f"r{i}" for i in range(3)}

    def test_compaction_bounds_file_size(self, tmp_path):
        growing = tmp_path / "growing.journal"
        journal = CampaignJournal.create(growing, compact_every=4)
        for i in range(64):
            journal.record(f"u{i}", "x" * 32)
        journal.close()
        compact = tmp_path / "compact.journal"
        snapshot = CampaignJournal.create(compact, journal.snapshot())
        snapshot.close()
        # Same state, and the journal never grew past O(state) + a few
        # uncompacted records.
        assert load_journal(growing)[0].completed == journal.completed
        assert growing.stat().st_size < 3 * compact.stat().st_size

    def test_appends_continue_after_compaction(self, tmp_path):
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path, compact_every=2)
        for i in range(5):
            journal.record(f"u{i}", f"r{i}")
        journal.close()
        state, _ = load_journal(path)
        assert state.completed == {f"u{i}": f"r{i}" for i in range(5)}

    def test_crash_before_rename_leaves_the_old_journal(self, tmp_path):
        """A failure inside the compaction seam must leave the previous
        journal bytes untouched and no temporary debris behind, and the
        journal must keep appending to that file."""
        path = tmp_path / "campaign.journal"
        journal = CampaignJournal.create(path)
        journal.record("a", "ra")
        journal.suspend("b", "partial-b")
        before = path.read_bytes()
        with active_plan("journal.compact.rename.pre:1:raise"):
            with pytest.raises(ChaosInjected):
                journal.compact()
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        state, info = load_journal(path)
        assert not info.healed
        assert state.completed == {"a": "ra"}
        assert state.resume_point("b") == "partial-b"
        journal.record("b", "rb")
        journal.record("c", "rc")
        journal.close()
        state, info = load_journal(path)
        assert not info.healed
        assert info.records == 5  # base, unit, suspend, unit, unit
        assert state.completed == {"a": "ra", "b": "rb", "c": "rc"}
        assert state.current is None


class TestDurabilityCadence:
    def test_each_record_fsyncs_once(self, tmp_path, monkeypatch):
        import repro.resilience.journal as journal_module

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        journal = CampaignJournal.create(tmp_path / "j.journal")
        assert len(calls) == 1  # the base snapshot is durable
        for done, key in enumerate("abc", start=1):
            journal.record(key, f"r{key}")
            assert len(calls) == 1 + done  # one fsync per unit record
        journal.close()

    def test_suspend_is_always_durable(self, tmp_path, monkeypatch):
        import repro.resilience.journal as journal_module

        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            journal_module.os, "fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        journal = CampaignJournal.create(tmp_path / "j.journal")
        before = len(calls)
        journal.suspend("a", "partial")
        assert len(calls) == before + 1
        journal.close()


class TestLegacyInterop:
    def test_corrupt_legacy_is_clean_mismatch(self, tmp_path):
        """Acceptance bar: a pre-journal pickle checkpoint (or any other
        non-journal file) must fail with a CheckpointMismatch — never a
        raw pickle traceback."""
        path = tmp_path / "broken.ckpt"
        path.write_bytes(b"\x80\x05 broken pickle bytes")
        with pytest.raises(CheckpointCorrupt) as excinfo:
            load_journal(path)
        assert "corrupted checkpoint" in str(excinfo.value)
