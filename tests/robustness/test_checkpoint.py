"""The JSONL campaign journal: round-trip, torn writes, versioning,
and safety under concurrent writers.

The durability tests that hold for every record log — torn-tail
healing here, write degradation in ``test_io_faults.py`` — run over
both sinks, the journal and the result store, through :data:`SINKS`.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.incremental.store import ResultStore
from repro.robustness.checkpoint import (
    JOURNAL_VERSION,
    CampaignJournal,
    cell_key,
    decode_record,
    encode_record,
)


def record_for(key, **extra):
    base = {
        "key": key,
        "instruction": key.rsplit("::", 1)[-1],
        "kind": "bytecode",
        "compiler": "c",
        "interpreter_paths": 3,
        "curated_paths": 3,
        "differing_paths": 1,
        "test_seconds": 0.01,
        "comparisons": [],
        "quarantined": None,
    }
    base.update(extra)
    return base


class JournalSink:
    """The campaign journal behind the common sink interface."""

    site = "journal"

    def __init__(self, directory) -> None:
        self.journal = CampaignJournal(directory / "journal.jsonl")
        self.path = self.journal.path

    def append(self, key: str) -> None:
        self.journal.append(record_for(key))

    def load(self) -> dict:
        return self.journal.load()

    @property
    def warning(self):
        return self.journal.log.warning


class StoreSink:
    """The result store behind the common sink interface: one
    fingerprint per cell key."""

    site = "store"

    def __init__(self, directory) -> None:
        self.store = ResultStore(str(directory / "cache"))
        self.path = self.store.path

    def append(self, key: str) -> None:
        self.store.put(f"fp-{key}", record_for(key))

    def load(self) -> dict:
        return {cell["key"]: cell for cell in self.store.records().values()}

    @property
    def warning(self):
        return self.store.stats.warning


#: Every durable sink; each instance is one process's view of the file.
SINKS = {"journal": JournalSink, "store": StoreSink}


class TestCellKey:
    def test_is_stable_and_unique_per_cell(self):
        key = cell_key("main", "StackToRegisterCogit", "bytecode", "pushTrue")
        assert key == "main::StackToRegisterCogit::bytecode::pushTrue"
        assert key != cell_key("sequences", "StackToRegisterCogit",
                               "bytecode", "pushTrue")


class TestJournalRoundTrip:
    def test_append_then_load(self, tmp_path):
        journal = CampaignJournal(tmp_path / "campaign.jsonl")
        first = record_for("main::c::bytecode::a")
        second = record_for("main::c::bytecode::b", differing_paths=0)
        journal.append(first)
        journal.append(second)

        loaded = CampaignJournal(journal.path).load()
        assert set(loaded) == {first["key"], second["key"]}
        assert loaded[first["key"]]["differing_paths"] == 1
        assert loaded[second["key"]]["version"] == JOURNAL_VERSION

    def test_missing_file_loads_empty(self, tmp_path):
        assert CampaignJournal(tmp_path / "absent.jsonl").load() == {}

    def test_parent_directories_are_created(self, tmp_path):
        journal = CampaignJournal(tmp_path / "deep" / "nested" / "j.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        assert journal.path.exists()


class TestJournalDurability:
    def test_torn_trailing_line_is_dropped(self, tmp_path):
        """A partial write from a hard kill loses only the in-flight
        cell, never the completed ones before it."""
        journal = CampaignJournal(tmp_path / "torn.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        with journal.path.open("a") as handle:
            handle.write('{"key": "main::c::bytecode::b", "trunc')

        loaded = journal.load()
        assert set(loaded) == {"main::c::bytecode::a"}

    def test_version_mismatch_is_skipped(self, tmp_path):
        journal = CampaignJournal(tmp_path / "versioned.jsonl")
        stale = dict(record_for("main::c::bytecode::old"), version=0)
        with journal.path.open("w") as handle:
            handle.write(json.dumps(stale) + "\n")
        journal.append(record_for("main::c::bytecode::new"))

        assert set(journal.load()) == {"main::c::bytecode::new"}

    def test_blank_lines_are_tolerated(self, tmp_path):
        journal = CampaignJournal(tmp_path / "blanks.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        with journal.path.open("a") as handle:
            handle.write("\n\n")
        journal.append(record_for("main::c::bytecode::b"))

        assert len(journal.load()) == 2

    def test_corrupt_middle_line_loses_only_that_record(self, tmp_path):
        """With concurrent writers a bad line is not necessarily the
        last one: later well-formed records must still replay."""
        journal = CampaignJournal(tmp_path / "middle.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        journal.append(record_for("main::c::bytecode::b"))
        journal.append(record_for("main::c::bytecode::c"))
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # tear record b
        journal.path.write_text("\n".join(lines) + "\n")

        assert set(journal.load()) == {
            "main::c::bytecode::a", "main::c::bytecode::c",
        }

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        journal = CampaignJournal(tmp_path / "flip.jsonl")
        journal.append(record_for("main::c::bytecode::a", differing_paths=1))
        flipped = journal.path.read_text().replace(
            '"differing_paths": 1', '"differing_paths": 7'
        )
        journal.path.write_text(flipped)
        assert journal.load() == {}

    def test_duplicate_keys_resolve_last_wins(self, tmp_path):
        journal = CampaignJournal(tmp_path / "dupes.jsonl")
        journal.append(record_for("main::c::bytecode::a", differing_paths=0))
        journal.append(record_for("main::c::bytecode::a", differing_paths=2))
        loaded = journal.load()
        assert loaded["main::c::bytecode::a"]["differing_paths"] == 2


class TestTornTailHealing:
    @pytest.mark.parametrize("sink", SINKS.values(), ids=SINKS)
    def test_append_after_torn_tail_starts_a_fresh_line(self, tmp_path,
                                                        sink):
        """A SIGKILL mid-write leaves an unterminated tail; the next
        process's first append must not glue its record onto it."""
        writer = sink(tmp_path)
        writer.append("main::c::bytecode::a")
        with writer.path.open("a") as handle:
            handle.write('{"key": "main::c::bytecode::b", "trunc')

        healer = sink(tmp_path)  # a fresh process's view
        healer.append("main::c::bytecode::c")

        loaded = sink(tmp_path).load()
        assert set(loaded) == {
            "main::c::bytecode::a", "main::c::bytecode::c",
        }
        assert loaded["main::c::bytecode::c"]["differing_paths"] == 1

    def test_clean_tail_gets_no_spurious_blank_line(self, tmp_path):
        journal = CampaignJournal(tmp_path / "clean.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        resumed = CampaignJournal(journal.path)
        resumed.append(record_for("main::c::bytecode::b"))
        text = journal.path.read_text()
        assert "\n\n" not in text
        assert len(CampaignJournal(journal.path).load()) == 2


class TestReplayStats:
    def test_clean_journal_counts_only_records(self, tmp_path):
        journal = CampaignJournal(tmp_path / "clean.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        journal.append(record_for("main::c::bytecode::b"))
        journal.load()
        assert journal.replay.records == 2
        assert journal.replay.torn_lines == 0
        assert journal.replay.skipped_lines == 0

    def test_torn_and_foreign_lines_are_counted_apart(self, tmp_path):
        journal = CampaignJournal(tmp_path / "mixed.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        foreign = encode_record(record_for("main::c::bytecode::old"),
                                version=0)
        with journal.path.open("ab") as handle:
            handle.write(foreign)                       # foreign: skipped
            handle.write(b'{"key": "main::c::byteco')   # torn

        journal.load()
        assert journal.replay.records == 1
        assert journal.replay.torn_lines == 1
        assert journal.replay.skipped_lines == 1

    def test_replay_resets_between_loads(self, tmp_path):
        journal = CampaignJournal(tmp_path / "reload.jsonl")
        journal.append(record_for("main::c::bytecode::a"))
        with journal.path.open("a") as handle:
            handle.write("torn")
        journal.load()
        journal.load()
        assert journal.replay.torn_lines == 1


class TestRecordCodec:
    def test_round_trip(self):
        record = record_for("main::c::bytecode::a")
        line = encode_record(record).decode("utf-8").strip()
        decoded = decode_record(line)
        assert decoded["key"] == record["key"]
        assert decoded["version"] == JOURNAL_VERSION

    def test_rejects_uncksummed_legacy_lines(self):
        legacy = dict(record_for("k"), version=JOURNAL_VERSION)
        assert decode_record(json.dumps(legacy)) is None


def _append_batch(path, writer_id, count):
    journal = CampaignJournal(path)
    for index in range(count):
        journal.append(record_for(f"main::w{writer_id}::bytecode::i{index}",
                                  differing_paths=writer_id))


class TestConcurrentWriters:
    def test_parallel_appends_never_tear(self, tmp_path):
        """Four processes hammering one journal: every record must
        arrive intact (single write() per line on O_APPEND)."""
        path = tmp_path / "concurrent.jsonl"
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_append_batch, args=(path, wid, 50))
            for wid in range(4)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join()
            assert process.exitcode == 0

        loaded = CampaignJournal(path).load()
        assert len(loaded) == 200
        for wid in range(4):
            for index in range(50):
                record = loaded[f"main::w{wid}::bytecode::i{index}"]
                assert record["differing_paths"] == wid
