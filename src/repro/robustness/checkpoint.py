"""Checkpoint/resume: the append-only JSONL campaign journal.

The runner appends one JSON record per *completed* cell — counters plus
per-comparison verdicts, enough to rebuild the aggregate report rows
exactly.  On ``--resume`` the journal is replayed and completed cells
are skipped, so an interrupted campaign (crash, ^C, expired deadline)
picks up where it left off and still produces identical aggregate
counts.

The journal is a :class:`RecordLog` — the one durable-write mechanism,
shared with the persistent result store — and so is safe under
**concurrent writers** (pool workers append directly):

* each record is emitted as one ``os.write`` on an ``O_APPEND``
  descriptor, so lines from different processes never interleave;
* each record carries a CRC-32 of its own payload, verified on load —
  a torn or corrupted line is skipped (not trusted, not fatal) and
  every later well-formed record is still replayed;
* duplicate keys resolve last-wins, so a cell re-run after a partial
  failure supersedes its earlier record;
* a torn tail left by a killed writer is healed on the next append.

Replay health is not silent: :meth:`CampaignJournal.load` counts torn
and foreign lines in :class:`JournalReplay` (surfaced in the campaign
report's resilience section and ``repro cache --journal``), and a
journal whose *writes* keep failing (disk full, I/O errors) disables
itself after :data:`MAX_WRITE_FAILURES` consecutive errors with one
stderr warning — the campaign finishes correctly in-memory, never
worse than running journal-less.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro import perf
from repro.robustness import chaos
from repro.robustness.faults import maybe_inject

#: Bumped when the record shape changes; mismatched journals are ignored
#: rather than mis-replayed.
JOURNAL_VERSION = 2

#: Consecutive write failures after which a sink (journal or result
#: store) disables itself for the rest of the run.  Transient errors
#: below the threshold lose at most their own record; the counter
#: resets on every successful write.
MAX_WRITE_FAILURES = 3


def cell_key(experiment: str, compiler: str, kind: str, instruction: str) -> str:
    """Stable identity of one campaign cell across runs."""
    return f"{experiment}::{compiler}::{kind}::{instruction}"


#: Journal-key namespace for triage cause records.  Triage shares the
#: campaign journal: cause records ride alongside cell records (same
#: versioning, checksumming, last-wins semantics) but live under this
#: prefix so cell replay and triage replay never collide.
TRIAGE_KEY_PREFIX = "triage::"


def triage_key(digest: str) -> str:
    """Stable identity of one triaged cause bucket across runs."""
    return f"{TRIAGE_KEY_PREFIX}{digest}"


def triage_records(completed: dict) -> dict:
    """The triage sub-map of a loaded journal: digest -> record."""
    return {
        key[len(TRIAGE_KEY_PREFIX):]: record
        for key, record in completed.items()
        if key.startswith(TRIAGE_KEY_PREFIX)
    }


#: Every line opens with this header: the CRC-32 of the rest of the
#: line, as eight hex digits in a JSON string, so the line stays one
#: JSON object and the checksum covers the payload bytes exactly as
#: written — verifying it needs no re-encoding.
_CRC_OPEN = b'{"crc": "'
_CRC_CLOSE = b'", '
_HEADER_LEN = len(_CRC_OPEN) + 8 + len(_CRC_CLOSE)


def encode_record(record: dict, version: int = JOURNAL_VERSION) -> bytes:
    """One journal line: versioned, checksummed, newline-terminated.

    ``{"crc": "<crc32 of the payload>", <payload>`` where the payload is
    the record's ``json.dumps(sort_keys=True)`` without its opening
    brace.  The same discipline serves the campaign journal and the
    persistent result store (:mod:`repro.incremental.store`), each
    under its own *version* namespace.
    """
    record = dict(record, version=version)
    record.pop("crc", None)
    payload = json.dumps(record, sort_keys=True)[1:].encode("utf-8")
    crc = b"%08x" % (zlib.crc32(payload) & 0xFFFFFFFF)
    return _CRC_OPEN + crc + _CRC_CLOSE + payload + b"\n"


def _checksum_ok(line: bytes) -> bool:
    """True if the CRC in *line*'s header matches its payload."""
    if line[_HEADER_LEN - len(_CRC_CLOSE):_HEADER_LEN] != _CRC_CLOSE:
        return False
    crc = b"%08x" % (zlib.crc32(line[_HEADER_LEN:]) & 0xFFFFFFFF)
    return line[len(_CRC_OPEN):len(_CRC_OPEN) + 8] == crc


def _decode_line(line, version: int) -> tuple[dict | None, str]:
    """(record, reason) for one journal line (``bytes`` or ``str``,
    without its newline): one ``crc32`` and one ``json.loads``.

    Reasons: ``"ok"`` — replayable; ``"torn"`` — undecodable (a torn
    write or bit rot: unparseable JSON or a checksum mismatch);
    ``"foreign"`` — intact but not ours (another format version).  A
    line without the CRC header (written before the header existed) is
    foreign if it parses and names another version, torn otherwise.
    """
    if isinstance(line, str):
        line = line.encode("utf-8")
    headed = line.startswith(_CRC_OPEN)
    if headed and not _checksum_ok(line):
        return None, "torn"
    try:
        record = json.loads(line)
    except ValueError:  # bad JSON or bad UTF-8
        return None, "torn"
    if not isinstance(record, dict):
        return None, "torn"
    record.pop("crc", None)
    if record.get("version") != version:
        return None, "foreign"
    if not headed:
        return None, "torn"
    return record, "ok"


def decode_record(line: str | bytes,
                  version: int = JOURNAL_VERSION) -> dict | None:
    """Parse and verify one journal line; None if torn/corrupt/foreign."""
    record, _reason = _decode_line(line, version)
    return record


@dataclass
class JournalReplay:
    """Accounting of one journal load — the replay-health report."""

    #: Well-formed records replayed (after last-wins dedup collapses
    #: duplicates, this can exceed the number of distinct keys).
    records: int = 0
    #: Undecodable lines skipped: torn writes, checksum mismatches.
    torn_lines: int = 0
    #: Decodable lines skipped as foreign: version mismatch or no key.
    skipped_lines: int = 0


class RecordLog:
    """An append-only JSONL file of versioned, checksummed records.

    The one durable-write mechanism behind both the campaign journal
    and the persistent result store (:mod:`repro.incremental.store`):

    * each record goes out as a single ``write(2)`` on an ``O_APPEND``
      descriptor, followed by an ``fsync`` — concurrent appenders
      (parallel workers, two campaigns sharing a cache) never tear each
      other's lines;
    * the first append of this instance heals a torn tail (the
      unterminated line a SIGKILL mid-write leaves) by prepending a
      newline, so the new record is never glued onto the fragment;
    * every append passes the fault-injection and chaos hooks of its
      *site* (``journal``, ``triage`` or ``store``) first;
    * write failures degrade instead of crashing the campaign: the
      failed record is lost, the *errors* perf counter is bumped, and
      after :data:`MAX_WRITE_FAILURES` consecutive failures the log
      disables itself with one stderr warning (*warning* is formatted
      with ``path``, ``failures`` and ``error``).  A success resets the
      count.
    """

    def __init__(self, path, version: int, errors: str,
                 warning: str) -> None:
        self.path = Path(path)
        self.version = version
        self.errors = errors
        self._warning_template = warning
        #: The degradation warning once the log has disabled itself
        #: (None while it is still writing).
        self.warning: str | None = None
        self._write_failures = 0
        self._tail_checked = False

    def read(self):
        """``(record, reason)`` for each non-blank line, in file order
        (see :func:`_decode_line`); nothing if the file is absent."""
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield self.decode(line)

    def decode(self, line: bytes) -> tuple[dict | None, str]:
        """``(record, reason)`` for one stripped line of this log."""
        return _decode_line(line, self.version)

    def append(self, record: dict, site: str) -> bool:
        """Durably append one record; True once it is on disk."""
        if self.warning is not None:
            return False
        try:
            maybe_inject(site)
            data = encode_record(record, self.version)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            chaos.write_point(site, self.path, data)
            fd = os.open(
                self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                if not self._tail_checked:
                    self._tail_checked = True
                    if torn_tail(fd):
                        data = b"\n" + data
                os.write(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
        except OSError as error:
            self._write_failures += 1
            perf.incr(self.errors)
            if self._write_failures >= MAX_WRITE_FAILURES:
                perf.incr("io.degraded")
                self.warning = self._warning_template.format(
                    path=self.path, failures=self._write_failures,
                    error=error,
                )
                print(f"warning: {self.warning}", file=sys.stderr)
            return False
        self._write_failures = 0
        return True


def torn_tail(fd: int) -> bool:
    """True if the file ends mid-line (no trailing newline)."""
    size = os.fstat(fd).st_size
    if size == 0:
        return False
    return os.pread(fd, 1, size - 1) != b"\n"


class CampaignJournal:
    """One JSONL file journaling completed campaign cells."""

    def __init__(self, path) -> None:
        self.log = RecordLog(
            path, JOURNAL_VERSION, "journal.write_errors",
            "campaign journal {path} disabled after {failures} "
            "consecutive write failures ({error}); continuing without "
            "checkpointing",
        )
        self.path = self.log.path
        self.replay = JournalReplay()

    def load(self) -> dict:
        """key -> record for every well-formed journaled cell.

        Malformed lines (torn writes, checksum mismatches) are skipped
        individually: with concurrent writers a bad line is not
        necessarily the last one.  Duplicate keys resolve last-wins.
        What was skipped is counted in :attr:`replay` and the
        ``journal.torn_lines`` / ``journal.skipped_lines`` perf
        counters — replay health is reported, not silent.
        """
        self.replay = JournalReplay()
        completed: dict = {}
        for record, reason in self.log.read():
            if reason == "torn":
                self.replay.torn_lines += 1
                perf.incr("journal.torn_lines")
            elif record is None or not record.get("key"):
                self.replay.skipped_lines += 1
                perf.incr("journal.skipped_lines")
            else:
                completed[record["key"]] = record
                self.replay.records += 1
        return completed

    def append(self, record: dict) -> None:
        """Durably append one completed-cell (or triage) record through
        the :class:`RecordLog`; a failed write loses only this record,
        which simply re-runs on resume."""
        key = str(record.get("key", ""))
        site = "triage" if key.startswith(TRIAGE_KEY_PREFIX) else "journal"
        self.log.append(record, site)
