"""The server sweep targets' shared pieces, without a full sweep.

The store/ledger contract check is fed one crafted state directory per
violation class; each must be flagged, and a faithful copy of the
baseline must pass.  The CLI tests boot a real server whose baseline
battery is rejected, and require the sweep to report the server
unreachable (exit 69) instead of crashing.
"""

import json
import pickle

import pytest

from repro.cli import main
from repro.exitcodes import EXIT_SERVER_UNREACHABLE
from repro.resilience.frames import encode_frame
from repro.resilience.journal import KIND_UNIT
from repro.resilience.journal import MAGIC as JOURNAL_MAGIC
from repro.serve import chaos as serve_chaos
from repro.serve.chaos import StoreSnapshot, check_contract, ledger_done_counts
from repro.serve.server import LEDGER_NAME, STORE_NAME
from repro.serve.store import MAGIC as STORE_MAGIC

A, B, C = "a" * 64, "b" * 64, "c" * 64


def _craft(dirpath, stored, done):
    """Write a store holding *stored* ``(fingerprint, verdict)`` frames
    and a ledger holding one ``done:`` record per entry of *done*."""
    dirpath.mkdir(parents=True, exist_ok=True)
    with open(dirpath / STORE_NAME, "wb") as fh:
        fh.write(STORE_MAGIC)
        for fingerprint, verdict in stored:
            payload = json.dumps(
                {"fingerprint": fingerprint, "record": verdict}
            ).encode()
            fh.write(encode_frame(payload))
    with open(dirpath / LEDGER_NAME, "wb") as fh:
        fh.write(JOURNAL_MAGIC)
        for fingerprint in done:
            record = (KIND_UNIT, (f"done:{fingerprint}", {"outcome": "ok"}))
            fh.write(encode_frame(pickle.dumps(record)))
    return StoreSnapshot.read(str(dirpath))


@pytest.fixture
def baseline(tmp_path):
    return _craft(tmp_path / "baseline", [(A, "yes"), (B, "no")], [A, B])


#: violation -> (stored frames, done records, acknowledged, flagged text)
VIOLATIONS = {
    "duplicate frame": (
        [(A, "yes"), (B, "no"), (A, "yes")], [A, B], [], "stored 2x"
    ),
    "lost baseline job": ([(A, "yes")], [A, B], [], f"baseline {B[:12]} lost"),
    "lost ack": (
        [(A, "yes"), (B, "no")], [A, B], [C], f"acknowledged {C[:12]} lost"
    ),
    "diverged bytes": (
        [(A, "yes"), (B, "maybe")], [A, B], [], "bytes diverged"
    ),
    "unexpected record": (
        [(A, "yes"), (B, "no"), (C, "yes")], [A, B, C], [],
        f"unexpected record {C[:12]}",
    ),
    "double done": (
        [(A, "yes"), (B, "no")], [A, B, A], [], "completed 2x in the ledger"
    ),
    "lost completion": (
        [(A, "yes"), (B, "no")], [A], [], f"ledger lost completion {B[:12]}"
    ),
}


class TestContract:
    def test_faithful_copy_holds(self, tmp_path, baseline):
        state = _craft(tmp_path / "copy", [(B, "no"), (A, "yes")], [B, A])
        assert check_contract(state, baseline, [A, B]) == (True, "")

    @pytest.mark.parametrize("violation", sorted(VIOLATIONS))
    def test_every_violation_is_flagged(self, tmp_path, baseline, violation):
        stored, done, acknowledged, flagged = VIOLATIONS[violation]
        state = _craft(tmp_path / "state", stored, done)
        held, detail = check_contract(state, baseline, acknowledged)
        assert not held
        assert flagged in detail

    def test_ledger_done_counts_reads_raw_records(self, tmp_path):
        _craft(tmp_path, [], [A, B, A])
        assert ledger_done_counts(str(tmp_path)) == {A: 2, B: 1}

    def test_missing_files_read_as_empty(self, tmp_path):
        snapshot = StoreSnapshot.read(str(tmp_path))
        assert snapshot.records == {} and snapshot.done == {}


@pytest.mark.slow
class TestBaselineFailure:
    """A server target whose baseline never serves is unreachable, not a
    diverged cycle: exit 69, a one-line diagnosis, no traceback."""

    @pytest.mark.parametrize("flag", ["--serve", "--net"])
    def test_rejected_baseline_exits_unreachable(
        self, monkeypatch, capsys, tmp_path, flag
    ):
        monkeypatch.setattr(
            serve_chaos, "default_battery", lambda jobs: [{"kind": "bogus"}]
        )
        code = main([
            "chaos", flag, "--workdir", str(tmp_path), "--run-timeout", "60",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_SERVER_UNREACHABLE
        assert "baseline failed" in out
