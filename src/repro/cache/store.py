"""The result store: a thread-safe LRU with optional JSON persistence.

:class:`ResultCache` holds arbitrary Python values in memory under
content-addressed keys (see :mod:`repro.cache.keys`).  Namespaces whose
values round-trip through JSON can attach a :class:`Codec`, which
enables :meth:`save_to` / :meth:`load_from` — the on-disk warm-start
path used by the CLI's ``--cache-dir``.  Namespaces without a codec
(the compile cache, whose values carry live AST objects) stay
memory-only.
"""

from __future__ import annotations

import contextlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.metrics import get_metrics

try:  # POSIX advisory locks guard concurrent-process saves
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def _interprocess_lock(lock_path: Path) -> Iterator[None]:
    """Exclusive advisory lock serialising writers across processes.

    Readers never need it: writes land via atomic rename, so a reader
    sees either the old or the new file, never a torn one.  Where
    ``flock`` is unavailable the lock degrades to a no-op and
    merge-on-save plus pid-unique temp files still prevent corruption
    (though a concurrent writer's entries may then be lost to a race).
    """
    if fcntl is None:  # pragma: no cover - non-POSIX fallback
        yield
        return
    with open(lock_path, "a+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


@dataclass(frozen=True)
class Codec:
    """Value (de)serialisation for disk persistence."""

    encode: Callable[[Any], Any]  # value -> JSON-able object
    decode: Callable[[Any], Any]  # JSON-able object -> value


class ResultCache:
    """Bounded LRU mapping content keys to stage results.

    Thread-safe; eviction is least-recently-*used* (a ``get`` refreshes
    recency).  Hit/miss/eviction counters feed the CLI's cache summary.
    """

    def __init__(self, name: str, max_entries: int = 65536, codec: Codec | None = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.name = name
        self.max_entries = max_entries
        self.codec = codec
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                value = self._entries[key]
            else:
                self.misses += 1
                value = None
        get_metrics().counter(
            "cache_lookups_total",
            namespace=self.name,
            result="miss" if value is None else "hit",
        ).inc()
        return value

    def peek(self, key: str) -> Any | None:
        """The value for ``key`` without counting a lookup or refreshing
        recency: for planning work, never in place of :meth:`get`."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss.

        The compute runs outside the lock: concurrent misses may both
        compute (results are deterministic, so last-write-wins is safe).
        """
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    # ------------------------------------------------------------------
    # disk persistence (codec namespaces only)
    # ------------------------------------------------------------------

    @property
    def persistent(self) -> bool:
        return self.codec is not None

    def save_to(self, directory: str | Path) -> Path | None:
        """Write all entries to ``<directory>/<name>.json`` (atomic).

        Safe under concurrent processes: the write happens under an
        exclusive ``<name>.json.lock`` and *merges* with whatever is
        already on disk (keys persisted by sibling shards survive; for
        keys both sides hold, this process's value wins — keys are
        content-addressed, so both sides computed the same value
        anyway).  The merged payload is capped at ``max_entries`` so
        the file honours the same bound as the in-memory LRU.  The
        payload then lands via write-to-temp plus atomic rename, so
        readers never observe a torn file.

        An unwritable destination (e.g. a path naming an existing file)
        loses persistence, never the run: returns None instead of
        raising, mirroring :meth:`load_from`'s corrupt-file tolerance.
        """
        if self.codec is None:
            return None
        directory = Path(directory)
        try:
            with self._lock:
                payload = {
                    key: self.codec.encode(value) for key, value in self._entries.items()
                }
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{self.name}.json"
            with _interprocess_lock(directory / f"{self.name}.json.lock"):
                if path.exists():
                    try:
                        disk = json.loads(path.read_text())
                    except (json.JSONDecodeError, OSError, ValueError):
                        disk = {}
                    # merge up to the LRU bound: this process's entries
                    # always survive; older disk-only entries fill the
                    # remainder, so the file cannot grow without limit
                    for key, raw in disk.items():
                        if len(payload) >= self.max_entries:
                            break
                        payload.setdefault(key, raw)
                # imported here, not at module top: repro.core's package
                # __init__ pulls in the validator stack, which reaches
                # back into this module
                from repro.core.atomicio import atomic_write_text

                atomic_write_text(path, json.dumps(payload), fault_tag="cache")
        except (OSError, TypeError, ValueError):
            return None
        return path

    @staticmethod
    def disk_snapshot(directory: str | Path, name: str) -> dict[str, object] | None:
        """Counters for ``<directory>/<name>.json`` without loading values.

        Returns ``None`` when the namespace has no persisted file;
        otherwise entry count, payload size and a corruption flag (a
        corrupt file reads as zero entries, mirroring
        :meth:`load_from`'s cold-cache tolerance).
        """
        path = Path(directory) / f"{name}.json"
        try:
            size = path.stat().st_size
        except OSError:
            # absent — or unlinked by a concurrent purge/save between
            # calls; either way the namespace has no persisted file
            return None
        snapshot: dict[str, object] = {"bytes": size}
        try:
            payload = json.loads(path.read_text())
            snapshot["entries"] = len(payload) if isinstance(payload, dict) else 0
            snapshot["corrupt"] = not isinstance(payload, dict)
        except (json.JSONDecodeError, OSError, ValueError):
            snapshot["entries"] = 0
            snapshot["corrupt"] = True
        return snapshot

    @staticmethod
    def purge_namespace(directory: str | Path, name: str) -> bool:
        """Delete one namespace's persisted file (and stray temp files).

        Runs under the same ``<name>.json.lock`` writers take, so a
        purge cannot race a concurrent :meth:`save_to` into resurrecting
        half a file.  Returns True when a persisted file was removed.
        """
        directory = Path(directory)
        path = directory / f"{name}.json"
        removed = False
        if not directory.is_dir():
            return False
        with _interprocess_lock(directory / f"{name}.json.lock"):
            if path.exists():
                path.unlink()
                removed = True
            for stray in directory.glob(f"{name}.json.*.tmp"):
                with contextlib.suppress(OSError):
                    stray.unlink()
        return removed

    def load_from(self, directory: str | Path) -> int:
        """Merge entries from ``<directory>/<name>.json``; returns count.

        Corrupt or unreadable files are treated as a cold cache, never
        an error — a cache must not be able to break a run.
        """
        if self.codec is None:
            return 0
        path = Path(directory) / f"{self.name}.json"
        if not path.exists():
            return 0
        try:
            payload = json.loads(path.read_text())
            decoded = {key: self.codec.decode(raw) for key, raw in payload.items()}
        except (json.JSONDecodeError, OSError, KeyError, TypeError, ValueError):
            return 0
        for key, value in decoded.items():
            self.put(key, value)
        return len(decoded)
