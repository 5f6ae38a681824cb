"""The persistent cross-run result store (``~/.cache/repro``).

An append-only JSONL file mapping semantic fingerprints to serialized
cell records — the same dicts the campaign journal holds, so a cache
hit is rebuilt by the exact machinery that rebuilds a resumed cell.

The file is a :class:`~repro.robustness.checkpoint.RecordLog`, the
journal's durable-write mechanism: one ``os.write`` on an ``O_APPEND``
descriptor plus ``fsync`` per record, a CRC-32 over the payload,
version field per line, torn-tail healing and three-strikes write
degradation — concurrent writers (parallel campaign workers, or two
campaigns sharing one cache) never tear each other's records, and a
torn line is skipped on load, not trusted and not fatal.

Degradation paths (the "never worse than cold" contract):

* **stale version** — the store file is named after ``CACHE_VERSION``;
  a version bump simply reads/writes a fresh file and old files become
  garbage for ``repro cache --gc``;
* **corrupt lines** — skipped individually (counted in the stats);
* **unreadable store** — quarantined by renaming to ``*.corrupt`` and
  the campaign proceeds cold with a warning, mirroring how a crashing
  cell is quarantined instead of killing a run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import perf
from repro.incremental.fingerprint import FINGERPRINT_VERSION
from repro.robustness.checkpoint import RecordLog, encode_record

#: On-disk format version: bumped when the record shape or the
#: fingerprint recipe changes.  Mismatched stores are never read.
CACHE_VERSION = 100 + FINGERPRINT_VERSION


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` (XDG-aware)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return str(base / "repro")


@dataclass
class CacheStats:
    """Result-cache effectiveness for one campaign run."""

    hits: int = 0
    misses: int = 0
    #: Misses whose cell *key* is present under a different fingerprint
    #: — i.e. genuine invalidations, not first-ever executions.
    stale: int = 0
    stored: int = 0
    corrupt_lines: int = 0
    entries: int = 0
    #: Human-readable degradation warning (quarantined store), or None.
    warning: str | None = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "stored": self.stored,
            "corrupt_lines": self.corrupt_lines,
            "entries": self.entries,
            "hit_rate": self.hit_rate,
            "warning": self.warning,
        }


@dataclass
class ResultStore:
    """Fingerprint-addressed store of serialized cell records."""

    directory: str
    stats: CacheStats = field(default_factory=CacheStats)
    _records: dict = field(default_factory=dict)
    _by_key: dict = field(default_factory=dict)
    _loaded: bool = False
    _log: RecordLog = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._log = RecordLog(
            Path(self.directory) / f"results-v{CACHE_VERSION}.jsonl",
            CACHE_VERSION, "store.write_errors",
            "result store writes disabled after {failures} consecutive "
            "failures ({error}); continuing in-memory",
        )

    @property
    def path(self) -> Path:
        return self._log.path

    # ------------------------------------------------------------------
    # load / lookup

    def load(self) -> None:
        """Replay the store file into memory (idempotent).

        A file that cannot be read at all is quarantined — renamed to
        ``<name>.corrupt`` — and the run degrades to cold with
        ``stats.warning`` set; individual bad lines are just skipped.
        """
        if self._loaded:
            return
        self._loaded = True
        path = self.path
        try:
            for record, _reason in self._log.read():
                if record is None:
                    self.stats.corrupt_lines += 1
                    perf.incr("cache.corrupt_lines")
                    continue
                fingerprint = record.get("fingerprint")
                cell = record.get("cell")
                if not fingerprint or not isinstance(cell, dict):
                    self.stats.corrupt_lines += 1
                    continue
                self._records[fingerprint] = cell
                key = cell.get("key")
                if key:
                    self._by_key.setdefault(key, set()).add(fingerprint)
        except OSError as error:
            quarantined = path.with_suffix(path.suffix + ".corrupt")
            try:
                path.rename(quarantined)
                where = f"quarantined to {quarantined.name}"
            except OSError:
                where = "left in place"
            self._records.clear()
            self._by_key.clear()
            self.stats.warning = (
                f"result cache unreadable ({error}); {where}, "
                "continuing with a cold run"
            )
        self.stats.entries = len(self._records)

    def get(self, fingerprint: str, key: str | None = None) -> dict | None:
        """The serialized cell record for *fingerprint*, or None.

        *key* (the cell's journal identity) only refines the miss
        accounting: a miss whose key is known under another fingerprint
        is an invalidation ("stale"), not a first sighting.
        """
        self.load()
        record = self._records.get(fingerprint)
        if record is not None:
            self.stats.hits += 1
            perf.incr("cache.hits")
            return dict(record)
        self.stats.misses += 1
        perf.incr("cache.misses")
        if key is not None and self._by_key.get(key):
            self.stats.stale += 1
            perf.incr("cache.stale")
        return None

    def records(self) -> dict:
        """fingerprint -> cell record, loading first (read-only view)."""
        self.load()
        return dict(self._records)

    # ------------------------------------------------------------------
    # append

    def put(self, fingerprint: str, record: dict) -> None:
        """Durably append one cell record under *fingerprint*.

        Safe under concurrent writers; duplicate fingerprints resolve
        last-wins on load.  Persistent write failure (disk full, I/O
        errors) disables further writes for this run with one stderr
        warning (see :class:`~repro.robustness.checkpoint.RecordLog`) —
        lookups keep working, the campaign is never worse than cold.
        """
        if not fingerprint:
            return
        if not self._log.append({"fingerprint": fingerprint, "cell": record},
                                "store"):
            if self._log.warning is not None:
                self.stats.warning = self._log.warning
            return
        self.stats.stored += 1
        perf.incr("cache.stored")
        if self._loaded:
            self._records[fingerprint] = dict(record)
            key = record.get("key")
            if key:
                self._by_key.setdefault(key, set()).add(fingerprint)

    # ------------------------------------------------------------------
    # inspection / GC (the `repro cache` subcommand)

    def files(self) -> list:
        """Every store-related file in the cache directory: a list of
        ``(path, kind)`` with kind in {"current", "stale", "corrupt"}."""
        directory = Path(self.directory)
        if not directory.is_dir():
            return []
        found = []
        for path in sorted(directory.glob("results-v*.jsonl")):
            kind = "current" if path == self.path else "stale"
            found.append((path, kind))
        for path in sorted(directory.glob("results-v*.jsonl.corrupt")):
            found.append((path, "corrupt"))
        return found

    def gc(self) -> dict:
        """Compact the current file (last-wins dedup) and delete stale
        versions and quarantined corpses.  Returns a summary dict."""
        self.load()
        reclaimed = 0
        removed = []
        for path, kind in self.files():
            if kind == "current":
                continue
            reclaimed += path.stat().st_size
            path.unlink()
            removed.append(path.name)
        path = self.path
        before = path.stat().st_size if path.exists() else 0
        if self._records:
            compact = b"".join(
                encode_record(
                    {"fingerprint": fingerprint, "cell": cell},
                    version=CACHE_VERSION,
                )
                for fingerprint, cell in sorted(self._records.items())
            )
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(compact)
            tmp.replace(path)
            reclaimed += max(0, before - len(compact))
        elif path.exists():
            path.unlink()
            reclaimed += before
        return {
            "entries": len(self._records),
            "removed_files": removed,
            "reclaimed_bytes": reclaimed,
        }

    def clear(self) -> int:
        """Delete every store file; returns the number removed."""
        count = 0
        for path, _kind in self.files():
            path.unlink()
            count += 1
        self._records.clear()
        self._by_key.clear()
        self.stats = CacheStats()
        self._loaded = True
        return count
