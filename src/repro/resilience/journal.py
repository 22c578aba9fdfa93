"""The campaign checkpoint journal (append-only, CRC-framed).

This is the one on-disk checkpoint format.  A campaign is persisted as
an append-only file of CRC32-framed records:

* a ``base`` snapshot followed by one small ``unit`` record per finished
  verification unit (appended and fsync'd the moment the unit resolves,
  including from the pool's checkpoint-as-workers-finish hook) and
  ``suspend`` records carrying the in-flight unit's partial progress —
  O(1) bytes per completed unit instead of a whole-campaign rewrite;
* **self-healing loads** — a crash (or ``kill -9``) mid-append leaves a
  torn final frame; the loader verifies each frame's length and CRC,
  truncates the torn tail in place, and replays the surviving prefix.
  Determinism of the engines guarantees re-running the lost suffix
  reproduces byte-identical verdicts;
* **periodic compaction** — once enough incremental records accumulate
  the journal is rewritten as a single fresh ``base`` snapshot through
  :func:`~repro.resilience.frames.rewrite_frames` (temp file, fsync,
  atomic rename, directory fsync), so the file stays O(campaign state),
  not O(campaign history).

On-disk format
--------------

::

    magic   b"RJRNL001\\n"                      (9 bytes, file header)
    frame   b"RC" | len:u32be | crc32:u32be | payload[len]   (repeated)

Each payload is a pickled ``(kind, data)`` pair with kinds ``"base"``
(a full :class:`~repro.resilience.checkpoint.CampaignCheckpoint`),
``"unit"`` (``(key, report)``) and ``"suspend"``
(``(key, CheckAllCheckpoint | None)``).  Replay starts from an empty
campaign, substitutes state wholesale at each ``base``, and applies
``unit``/``suspend`` records in order — the recovery state machine is
*load → heal torn tail → replay → (eventually) compact*.  The framing,
tail healing and rewrite live in :mod:`repro.resilience.frames`, shared
with the job server's verdict store.

:class:`CampaignJournal` subclasses ``CampaignCheckpoint`` so the
campaign engines (:func:`repro.core.campaign.run_campaign`, the analysis
drivers, the CLI) need no new call sites: ``record``/``suspend``
transparently append.  Fingerprint validation is unchanged — it lives
in the inner checkpoints, which travel through the journal intact.
"""

from __future__ import annotations

import io
import os
import pickle
from dataclasses import dataclass
from typing import Optional

from repro.resilience.checkpoint import CampaignCheckpoint, CheckpointCorrupt
from repro.resilience.frames import (
    append_frame,
    heal_tail,
    read_frames,
    rewrite_frames,
)

__all__ = [
    "CampaignJournal",
    "JournalInfo",
    "MAGIC",
    "is_journal",
    "load_journal",
]

MAGIC = b"RJRNL001\n"

KIND_BASE = "base"
KIND_UNIT = "unit"
KIND_SUSPEND = "suspend"


@dataclass(frozen=True)
class JournalInfo:
    """What a journal load found (and fixed)."""

    records: int
    healed_bytes: int
    path: str

    @property
    def healed(self) -> bool:
        return self.healed_bytes > 0


def is_journal(path) -> bool:
    """Whether *path* starts with the journal magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _payload(kind: str, data) -> bytes:
    """The frame payload for a ``(kind, data)`` record."""
    return pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)


def _decode(payloads: list[bytes], path: str) -> list:
    """Decode intact frame payloads as pickled ``(kind, data)`` records.

    The byte-level framing (and the torn-tail rule: a bad frame is
    always the tail, because frames are strictly append-only) lives in
    :mod:`repro.resilience.frames`; a payload that passed its CRC but
    does not decode is interior corruption, not a torn tail.
    """
    records = []
    for payload in payloads:
        try:
            record = pickle.loads(payload)
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            MemoryError,
            UnicodeDecodeError,
            ValueError,
        ) as exc:
            # The frame round-tripped its CRC but the payload does not
            # decode (e.g. a class this version no longer defines).
            # That is corruption of the *campaign*, not a torn tail —
            # healing would silently drop committed work.
            raise CheckpointCorrupt(
                f"{path}: journal record {len(records)} is undecodable "
                f"({type(exc).__name__}: {exc}); delete the file and "
                "restart the run from scratch"
            ) from None
        if (
            not isinstance(record, tuple)
            or len(record) != 2
            or record[0] not in (KIND_BASE, KIND_UNIT, KIND_SUSPEND)
        ):
            raise CheckpointCorrupt(
                f"{path}: journal record {len(records)} has unknown "
                f"shape {type(record).__name__}; delete the file and "
                "restart the run from scratch"
            )
        records.append(record)
    return records


def _replay(records) -> CampaignCheckpoint:
    state = CampaignCheckpoint()
    for kind, data in records:
        if kind == KIND_BASE:
            state = CampaignCheckpoint(
                completed=dict(data.completed),
                current=data.current,
                inner=data.inner,
            )
        elif kind == KIND_UNIT:
            key, report = data
            state.record(key, report)
        elif kind == KIND_SUSPEND:
            key, inner = data
            state.suspend(key, inner)
    return state


def load_journal(
    path, heal: bool = True
) -> tuple[CampaignCheckpoint, JournalInfo]:
    """Load a journal: verify frames, heal a torn tail, replay.

    Raises :class:`~repro.resilience.checkpoint.CheckpointCorrupt` when
    the file is not a journal or an *interior* record is undecodable;
    a torn **tail** (the expected signature of dying mid-append) is
    truncated away in place when *heal* is set, and silently skipped
    otherwise.
    """
    path = os.fspath(path)
    try:
        payloads, torn, good_size = read_frames(path, MAGIC)
    except ValueError:
        raise CheckpointCorrupt(
            f"{path}: corrupted checkpoint file (not a checkpoint "
            "journal: bad magic); delete it and restart the run from "
            "scratch"
        ) from None
    records = _decode(payloads, path)
    if torn and heal:
        heal_tail(path, good_size)
    return _replay(records), JournalInfo(
        records=len(records), healed_bytes=torn, path=path
    )


class CampaignJournal(CampaignCheckpoint):
    """A :class:`CampaignCheckpoint` that persists itself incrementally.

    ``record``/``suspend`` append one frame each and fsync it before
    returning, so every finished unit is durable the moment it
    completes.

    Construct with :meth:`create` (fresh file, optionally seeded with
    an existing campaign state) or :meth:`resume` (load + heal +
    continue appending).
    """

    def __init__(self, path, compact_every: int = 64) -> None:
        super().__init__()
        if compact_every < 2:
            raise ValueError("compact_every must be >= 2")
        self.path = os.fspath(path)
        self.compact_every = compact_every
        self.load_info: Optional[JournalInfo] = None
        self._fh: Optional[io.BufferedWriter] = None
        self._records_since_base = 0

    # -- construction --------------------------------------------------------
    @classmethod
    def create(
        cls,
        path,
        state: Optional[CampaignCheckpoint] = None,
        compact_every: int = 64,
    ) -> "CampaignJournal":
        """Start a fresh journal at *path* (truncating any previous one)
        whose base snapshot is *state* (an empty campaign when None)."""
        journal = cls(path, compact_every)
        if state is not None:
            journal.completed = dict(state.completed)
            journal.current = state.current
            journal.inner = state.inner
        journal._fh = open(journal.path, "wb")
        journal._fh.write(MAGIC)
        # Flush before the first append's crashpoints: a kill inside
        # _append must leave a valid (if empty) journal, not the bare
        # zero-byte file open("wb") created.
        journal._fh.flush()
        journal._append(KIND_BASE, journal.snapshot())
        return journal

    @classmethod
    def resume(cls, path, compact_every: int = 64) -> "CampaignJournal":
        """Load (healing a torn tail) and continue appending to *path*."""
        journal = cls(path, compact_every)
        state, info = load_journal(path, heal=True)
        journal.completed = state.completed
        journal.current = state.current
        journal.inner = state.inner
        journal.load_info = info
        journal._records_since_base = max(0, info.records - 1)
        journal._fh = open(journal.path, "ab")
        return journal

    # -- campaign interface (appends transparently) --------------------------
    def record(self, key: str, report) -> None:
        super().record(key, report)
        self._append(KIND_UNIT, (key, report))

    def suspend(self, key: str, inner) -> None:
        super().suspend(key, inner)
        self._append(KIND_SUSPEND, (key, inner))

    # -- persistence ---------------------------------------------------------
    def snapshot(self) -> CampaignCheckpoint:
        """A plain (journal-less) copy of the current campaign state."""
        return CampaignCheckpoint(
            completed=dict(self.completed),
            current=self.current,
            inner=self.inner,
        )

    def _append(self, kind: str, data) -> None:
        fh = self._fh
        if fh is None or fh.closed:
            self._fh = fh = open(self.path, "ab")
        append_frame(
            fh, _payload(kind, data), crash_prefix="journal.append",
            durable=True,
        )
        if kind != KIND_BASE:
            self._records_since_base += 1
            if self._records_since_base >= self.compact_every:
                self.compact()

    def sync(self) -> None:
        """Flush and fsync the file handle."""
        fh = self._fh
        if fh is not None and not fh.closed:
            fh.flush()
            os.fsync(fh.fileno())

    def compact(self) -> None:
        """Rewrite the journal as a single fresh base snapshot.

        Crash-safe through :func:`~repro.resilience.frames.rewrite_frames`
        (the ``journal.compact.*`` crashpoints): interruptible at any
        point without losing the previous journal.
        """
        payload = _payload(KIND_BASE, self.snapshot())
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        try:
            rewrite_frames(self.path, MAGIC, [payload], "journal.compact")
        finally:
            self._fh = open(self.path, "ab")
        self._records_since_base = 0

    def close(self) -> None:
        """Sync and release the file handle (the journal stays loadable)."""
        fh = self._fh
        if fh is not None and not fh.closed:
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()

    # A journal that crosses a process boundary degrades to its plain
    # snapshot: the file handle is process-local, the state is what
    # matters.
    def __reduce__(self):
        snap = self.snapshot()
        return (
            _rebuild_snapshot,
            (snap.completed, snap.current, snap.inner),
        )


def _rebuild_snapshot(completed, current, inner) -> CampaignCheckpoint:
    return CampaignCheckpoint(completed=completed, current=current, inner=inner)
