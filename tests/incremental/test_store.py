"""The persistent result store: durability, degradation, GC.

The store inherits the journal's discipline (CRC per line, O_APPEND,
last-wins), so the tests mirror tests/robustness/test_checkpoint.py —
plus the store-specific contracts: version isolation, quarantine of an
unreadable file, stale-entry accounting and the `repro cache` GC.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental import CACHE_VERSION, CacheStats, ResultStore
from repro.incremental import store as store_module
from repro.incremental.store import default_cache_dir


def record(key: str, value: int = 0) -> dict:
    return {"key": key, "value": value}


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "cache"))


class TestRoundTrip:
    def test_put_then_get(self, store):
        store.put("fp1", record("cell-a", 1))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp1") == record("cell-a", 1)
        assert fresh.stats.hits == 1

    def test_get_returns_a_copy(self, store):
        store.put("fp1", record("cell-a"))
        first = store.get("fp1")
        first["value"] = 99
        assert store.get("fp1") == record("cell-a")

    def test_miss_accounting(self, store):
        assert store.get("absent") is None
        assert store.stats.misses == 1
        assert store.stats.stale == 0

    def test_stale_is_a_miss_with_a_known_key(self, store):
        """An invalidation (same cell, new fingerprint) is counted
        apart from a first-ever execution."""
        store.put("fp-old", record("cell-a"))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp-new", key="cell-a") is None
        assert fresh.get("fp-other", key="cell-b") is None
        assert fresh.stats.stale == 1
        assert fresh.stats.misses == 2

    def test_last_wins_on_duplicate_fingerprints(self, store):
        store.put("fp1", record("cell-a", 1))
        store.put("fp1", record("cell-a", 2))
        fresh = ResultStore(store.directory)
        assert fresh.get("fp1")["value"] == 2

    def test_hit_rate(self):
        stats = CacheStats(hits=9, misses=1)
        assert stats.hit_rate == 0.9
        assert CacheStats().hit_rate == 0.0


class TestDegradation:
    def test_torn_line_is_skipped_not_fatal(self, store):
        store.put("fp1", record("cell-a"))
        store.put("fp2", record("cell-b"))
        data = store.path.read_bytes()
        lines = data.splitlines(keepends=True)
        store.path.write_bytes(lines[0] + lines[1][: len(lines[1]) // 2])
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 1
        assert fresh.get("fp1") == record("cell-a")
        assert fresh.get("fp2") is None

    def test_flipped_byte_fails_crc(self, store):
        store.put("fp1", record("cell-a"))
        data = bytearray(store.path.read_bytes())
        index = data.index(b"cell-a")
        data[index] ^= 0x01
        store.path.write_bytes(bytes(data))
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 1
        assert fresh.get("fp1") is None

    def test_version_isolation(self, store, tmp_path):
        """A store written under another CACHE_VERSION is never read —
        the current version simply starts cold."""
        other = tmp_path / "cache" / f"results-v{CACHE_VERSION + 1}.jsonl"
        other.parent.mkdir(parents=True, exist_ok=True)
        donor = ResultStore(str(tmp_path / "donor"))
        donor.put("fp1", record("cell-a"))
        other.write_bytes(donor.path.read_bytes())
        store.load()
        assert store.stats.entries == 0
        assert store.get("fp1") is None

    def test_unreadable_store_quarantined_with_warning(self, store):
        """The "never worse than cold" contract: a store that cannot be
        opened is renamed aside and the campaign proceeds cold."""
        store.put("fp1", record("cell-a"))
        # A directory where the store file should be: open() raises an
        # OSError even for root (chmod 000 would not).
        store.path.unlink()
        store.path.mkdir()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.warning is not None
        assert "cold" in fresh.stats.warning
        assert fresh.get("fp1") is None
        corpses = list(store.path.parent.glob("*.corrupt"))
        assert len(corpses) == 1

    def test_concurrent_appends_do_not_tear(self, store):
        """Many processes appending through O_APPEND produce a fully
        readable file (same guarantee the journal tests assert)."""
        import multiprocessing

        def writer(directory, index):
            child = ResultStore(directory)
            for i in range(20):
                child.put(f"fp-{index}-{i}", record(f"cell-{index}-{i}", i))

        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(target=writer, args=(store.directory, index))
            for index in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.corrupt_lines == 0
        assert fresh.stats.entries == 80


class TestInspectionAndGC:
    def test_files_classification(self, store, tmp_path):
        store.put("fp1", record("cell-a"))
        stale = tmp_path / "cache" / f"results-v{CACHE_VERSION - 1}.jsonl"
        stale.write_text("old\n")
        corpse = tmp_path / "cache" / f"results-v{CACHE_VERSION}.jsonl.corrupt"
        corpse.write_text("bad\n")
        kinds = {path.name: kind for path, kind in store.files()}
        assert kinds == {
            store.path.name: "current",
            stale.name: "stale",
            corpse.name: "corrupt",
        }

    def test_gc_compacts_and_removes(self, store, tmp_path):
        for i in range(10):
            store.put("fp1", record("cell-a", i))  # 9 superseded lines
        stale = tmp_path / "cache" / f"results-v{CACHE_VERSION - 1}.jsonl"
        stale.write_text("old stale payload\n")
        summary = store.gc()
        assert summary["entries"] == 1
        assert summary["removed_files"] == [stale.name]
        assert summary["reclaimed_bytes"] > 0
        assert not stale.exists()
        fresh = ResultStore(store.directory)
        fresh.load()
        assert fresh.stats.entries == 1
        assert fresh.get("fp1")["value"] == 9

    def test_clear_removes_everything(self, store):
        store.put("fp1", record("cell-a"))
        assert store.clear() == 1
        assert not store.path.exists()
        assert store.get("fp1") is None

    def test_gc_on_empty_directory(self, store):
        summary = store.gc()
        assert summary["entries"] == 0
        assert summary["removed_files"] == []


def loaded(directory: str) -> ResultStore:
    store = ResultStore(directory)
    store.load()
    return store


def fresh_decode(directory: str) -> ResultStore:
    """A load that ignores (and leaves alone) the shared index."""
    saved = store_module._INDEXES
    store_module._INDEXES = {}
    try:
        return loaded(directory)
    finally:
        store_module._INDEXES = saved


def view(store: ResultStore) -> tuple:
    return (store._records, store._by_key, store.stats.entries,
            store.stats.corrupt_lines)


class TestSharedIndex:
    """Each store byte is decoded once per process; a load through the
    shared index must always equal a fresh full decode."""

    def test_unchanged_file_is_not_decoded_again(self, store):
        store.put("fp1", record("cell-a"))
        first = loaded(store.directory)
        index = store_module._INDEXES[str(store.path)]
        assert index.offset == store.path.stat().st_size
        second = loaded(store.directory)
        assert store_module._INDEXES[str(store.path)] is index
        assert view(second) == view(first)

    def test_appended_records_are_read_from_the_tail(self, store):
        store.put("fp1", record("cell-a"))
        loaded(store.directory)
        before = store_module._INDEXES[str(store.path)]
        store.put("fp2", record("cell-b"))
        second = loaded(store.directory)
        after = store_module._INDEXES[str(store.path)]
        assert after.offset > before.offset
        assert after.records["fp1"] is before.records["fp1"]
        assert second.get("fp2") == record("cell-b")
        assert "fp2" not in before.records  # published index untouched

    def test_unterminated_tail_is_counted_then_reread(self, store):
        store.put("fp1", record("cell-a"))
        line = store_module.encode_record(
            {"fingerprint": "fp2", "cell": record("cell-b")},
            version=CACHE_VERSION)
        with store.path.open("ab") as handle:
            handle.write(line[:20])
        torn = loaded(store.directory)
        assert torn.stats.corrupt_lines == 1
        assert torn.get("fp2") is None
        with store.path.open("ab") as handle:
            handle.write(line[20:])  # the writer finishes its write
        healed = loaded(store.directory)
        assert healed.stats.corrupt_lines == 0
        assert healed.get("fp2") == record("cell-b")

    def test_put_never_writes_into_the_shared_index(self, store):
        store.put("fp1", record("cell-a"))
        first = loaded(store.directory)
        index = store_module._INDEXES[str(store.path)]
        first.put("fp2", record("cell-a", 2))
        first.clear()
        assert set(index.records) == {"fp1"}
        assert index.by_key == {"cell-a": frozenset({"fp1"})}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 3),
                  st.integers(0, 2)),
        st.tuples(st.just("torn"), st.integers(1, 60)),
        st.tuples(st.just("flip"), st.integers(0, 10**6),
                  st.integers(1, 255)),
        st.tuples(st.just("gc")),
        st.tuples(st.just("clear")),
        st.tuples(st.just("load")),
    ), max_size=25))
    def test_load_equals_a_fresh_full_decode(self, steps):
        """Appends from a second instance, torn tails, same-length
        in-place byte flips inside the consumed prefix, gc() and
        clear(), in any order: every load through the shared index sees
        exactly what a fresh full decode sees."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = str(Path(tmp) / "cache")
            path = ResultStore(directory).path
            for step in steps:
                kind = step[0]
                if kind == "put":
                    _kind, fp, key, value = step
                    ResultStore(directory).put(
                        f"fp{fp}", record(f"cell-{key}", value))
                elif kind == "torn" and path.exists():
                    with path.open("ab") as handle:
                        handle.write(b'{"crc": "0123abcd", "cell": {"k'
                                     [:step[1]])
                elif kind == "flip":
                    index = store_module._INDEXES.get(str(path))
                    if index is not None and index.offset and path.exists():
                        where = step[1] % index.offset
                        with path.open("r+b") as handle:
                            handle.seek(where)
                            byte = handle.read(1)
                            if byte:
                                handle.seek(where)
                                handle.write(bytes([byte[0] ^ step[2]]))
                elif kind == "gc":
                    ResultStore(directory).gc()
                elif kind == "clear":
                    ResultStore(directory).clear()
                assert view(loaded(directory)) == view(
                    fresh_decode(directory))


def test_cached_parallel_sweep_matches_uncached(tmp_path, monkeypatch):
    """A recall sweep at ``-j 2`` from an empty store — each campaign
    loads what the workers of the previous ones appended, through the
    shared index — reports and fingerprints every campaign exactly as
    the sweep without a cache does."""
    import repro.difftest.runner as runner
    from repro.difftest.runner import CampaignConfig
    from repro.mutation import recall

    def recorded(into):
        def wrap(func):
            def run(*args, **kwargs):
                result = func(*args, **kwargs)
                into.append(recall.campaign_fingerprint(result))
                hits.append(result.cache.hits if result.cache else 0)
                return result
            return run
        return wrap

    config = CampaignConfig(only=("primitiveFFIByteSize", "primitiveAdd",
                                  "bytecodePrimAdd", "bytecodePrimLessThan"))
    mutants = ("C1", "I1", "I2", "I3")
    hits: list = []
    outputs = []
    for cache_dir in (None, str(tmp_path / "cache")):
        fingerprints: list = []
        with monkeypatch.context() as patch:
            patch.setattr(recall, "run_campaign",
                          recorded(fingerprints)(recall.run_campaign))
            patch.setattr(runner, "run_stitched_campaign",
                          recorded(fingerprints)(runner.run_stitched_campaign))
            report = recall.run_recall(config, mutants, (4, 8), jobs=2,
                                       convergence=False,
                                       cache_dir=cache_dir)
        outputs.append((recall.format_recall(report), fingerprints))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 10  # (baseline + 4 mutants) x 2 budgets
    assert sum(hits) > 0  # later campaigns were served from the store


class TestDefaultDirectory:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        assert default_cache_dir() == "/somewhere/else"

    def test_xdg_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/xdg/cache")
        assert default_cache_dir() == "/xdg/cache/repro"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().endswith(".cache/repro")
