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

Each store byte is decoded once per process: a load keeps the decoded
prefix of the file in a module-level :class:`_Index` and the next load
(the next campaign of a recall sweep) reuses it if the file is the same
inode and its consumed prefix still hashes to the recorded digest, then
decodes only what was appended since.  Anything else — a ``gc``
replace, ``clear``, truncation, an in-place rewrite — is a full read.
"""

from __future__ import annotations

import hashlib
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


#: Bytes per read while a store file is hashed or decoded: the file is
#: streamed, never held whole.
_CHUNK = 1 << 20


@dataclass(frozen=True)
class _Index:
    """The decoded newline-terminated prefix of one store file.

    Shared by every load of that file in this process and never mutated
    once published: a load copies ``records``/``by_key`` into its own
    :class:`ResultStore`, and growing the index builds a new one.
    """

    #: ``(st_dev, st_ino)`` of the file it decodes.
    ident: tuple = (0, 0)
    #: Bytes consumed: everything up to and including the last newline.
    offset: int = 0
    #: sha256 of those bytes.
    digest: bytes = hashlib.sha256().digest()
    #: fingerprint -> cell record, last-wins.
    records: dict = field(default_factory=dict)
    #: cell key -> frozenset of fingerprints.
    by_key: dict = field(default_factory=dict)
    corrupt_lines: int = 0


#: store path -> the :class:`_Index` of its last load in this process.
_INDEXES: dict = {}


def _add(records: dict, by_key: dict, record: dict | None) -> bool:
    """Insert one decoded store line; False if it is corrupt."""
    if record is None:
        return False
    fingerprint = record.get("fingerprint")
    cell = record.get("cell")
    if not fingerprint or not isinstance(cell, dict):
        return False
    records[fingerprint] = cell
    key = cell.get("key")
    if key:
        by_key[key] = by_key.get(key, frozenset()) | {fingerprint}
    return True


def _hash_prefix(handle, length: int):
    """sha256 state over the first *length* bytes of *handle*."""
    hasher = hashlib.sha256()
    handle.seek(0)
    while length > 0:
        chunk = handle.read(min(_CHUNK, length))
        if not chunk:
            break
        hasher.update(chunk)
        length -= len(chunk)
    return hasher


def _extend(handle, index: _Index, hasher, decode) -> tuple:
    """``(index, tail)``: *index* grown by every newline-terminated line
    after its offset (*handle* is positioned there and *hasher* covers
    the bytes before it), and the unterminated tail's ``(record,
    reason)`` — or None — which is decoded but left unconsumed, so a
    line a concurrent writer is still writing is read again next time."""
    records = by_key = None
    corrupt = index.corrupt_lines
    offset = index.offset
    carry = b""
    while True:
        chunk = handle.read(_CHUNK)
        if not chunk:
            break
        data = carry + chunk
        end = data.rfind(b"\n") + 1
        carry = data[end:]
        if not end:
            continue
        if records is None:
            records, by_key = dict(index.records), dict(index.by_key)
        hasher.update(data[:end])
        offset += end
        for line in data[:end].split(b"\n"):
            line = line.strip()
            if line and not _add(records, by_key, decode(line)[0]):
                corrupt += 1
    if records is not None:
        index = _Index(index.ident, offset, hasher.digest(), records,
                       by_key, corrupt)
    carry = carry.strip()
    return index, (decode(carry) if carry else None)


def _scan(path: Path, decode) -> tuple:
    """``(index, tail)`` of the store file at *path* (see
    :func:`_extend`), reusing and publishing the shared index."""
    name = str(path)
    try:
        handle = path.open("rb")
    except FileNotFoundError:
        _INDEXES.pop(name, None)
        return _Index(), None
    with handle:
        stat = os.fstat(handle.fileno())
        ident = (stat.st_dev, stat.st_ino)
        index = _INDEXES.get(name)
        hasher = None
        if index is not None and index.ident == ident \
                and stat.st_size >= index.offset:
            hasher = _hash_prefix(handle, index.offset)
            if hasher.digest() != index.digest:
                hasher = None
        if hasher is None:
            index, hasher = _Index(ident), hashlib.sha256()
            handle.seek(0)
        index, tail = _extend(handle, index, hasher, decode)
    _INDEXES[name] = index
    return index, tail


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
            index, tail = _scan(path, self._log.decode)
        except OSError as error:
            _INDEXES.pop(str(path), None)
            quarantined = path.with_suffix(path.suffix + ".corrupt")
            try:
                path.rename(quarantined)
                where = f"quarantined to {quarantined.name}"
            except OSError:
                where = "left in place"
            self.stats.warning = (
                f"result cache unreadable ({error}); {where}, "
                "continuing with a cold run"
            )
            return
        self._records = dict(index.records)
        self._by_key = dict(index.by_key)
        corrupt = index.corrupt_lines
        if tail is not None and not _add(self._records, self._by_key,
                                         tail[0]):
            corrupt += 1
        if corrupt:
            self.stats.corrupt_lines += corrupt
            perf.incr("cache.corrupt_lines", corrupt)
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
            _add(self._records, self._by_key,
                 {"fingerprint": fingerprint, "cell": dict(record)})

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
