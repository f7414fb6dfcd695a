"""The pipeline-wide cache bundle.

:class:`PipelineCache` groups one :class:`ResultCache` per cacheable
stage kind:

* ``compile`` — memory-only (values carry live AST objects);
* ``execute`` — persistent (plain :class:`ExecutionResult` data);
* ``judge``  — persistent (:class:`JudgeResult` round-trips via JSON);
* ``fuzz``   — persistent (differential walk+closure outcomes, stored
  as plain JSON dicts by the fuzzing campaign engine).

One bundle is shared by every consumer of a run — corpus generation,
the validation pipeline's stages, the experiment runner's retroactive
judge pass — so repeated work de-duplicates across all of them, and
across :class:`Experiments` instances when callers share the bundle.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

from repro.cache.store import Codec, ResultCache
from repro.judge.llmj import JudgeResult
from repro.obs.metrics import series
from repro.runtime.executor import ExecutionResult

_EXECUTION_CODEC = Codec(
    encode=lambda result: asdict(result),
    decode=lambda data: ExecutionResult(**data),
)

_JUDGE_CODEC = Codec(
    encode=lambda result: result.to_json(),
    decode=JudgeResult.from_json,
)

# fuzz values are stored pre-encoded (DifferentialOutcome.to_json dicts)
# so the bundle needs no import from repro.fuzz (which imports us)
_FUZZ_CODEC = Codec(encode=lambda value: value, decode=lambda value: value)


class PipelineCache:
    """Shared content-addressed caches for compile/execute/judge work."""

    def __init__(self, max_entries: int = 65536, cache_dir: str | Path | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.compile = ResultCache("compile", max_entries)
        self.execute = ResultCache("execute", max_entries, codec=_EXECUTION_CODEC)
        self.judge = ResultCache("judge", max_entries, codec=_JUDGE_CODEC)
        self.fuzz = ResultCache("fuzz", max_entries, codec=_FUZZ_CODEC)

    @property
    def namespaces(self) -> list[ResultCache]:
        return [self.compile, self.execute, self.judge, self.fuzz]

    # ------------------------------------------------------------------

    def load(self) -> int:
        """Warm persistent namespaces from ``cache_dir``; returns count."""
        if self.cache_dir is None:
            return 0
        return sum(ns.load_from(self.cache_dir) for ns in self.namespaces)

    def save(self) -> list[Path]:
        """Persist codec-backed namespaces to ``cache_dir``."""
        if self.cache_dir is None:
            return []
        paths = [ns.save_to(self.cache_dir) for ns in self.namespaces]
        return [path for path in paths if path is not None]

    def clear(self) -> None:
        for ns in self.namespaces:
            ns.clear()

    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return sum(ns.hits for ns in self.namespaces)

    @property
    def misses(self) -> int:
        return sum(ns.misses for ns in self.namespaces)


#: Every namespace a :class:`PipelineCache` persists or holds in memory.
NAMESPACE_NAMES = ("compile", "execute", "judge", "fuzz")


def lookup_counts(delta: dict) -> dict[str, dict[str, int]]:
    """Per-namespace hits and misses in a metrics state or delta, read
    from ``cache_lookups_total`` (where every lookup is counted once)."""
    counts = {name: {"hits": 0, "misses": 0} for name in NAMESPACE_NAMES}
    for labels, value in series(delta, "cache_lookups_total"):
        ns = counts.setdefault(labels["namespace"], {"hits": 0, "misses": 0})
        ns["hits" if labels["result"] == "hit" else "misses"] += int(value)
    return counts


def disk_summary(directory: str | Path) -> dict[str, dict[str, object] | None]:
    """Per-namespace on-disk counters for a ``--cache-dir`` directory.

    Entries/bytes/corruption per namespace *without* decoding values
    into memory (``None`` marks a namespace with no persisted file —
    the memory-only compile cache always reads as ``None``).
    """
    return {
        name: ResultCache.disk_snapshot(directory, name)
        for name in NAMESPACE_NAMES
    }


def purge_dir(directory: str | Path, namespace: str | None = None) -> list[str]:
    """Remove persisted cache files; returns the namespaces purged.

    ``namespace=None`` purges every namespace.  Deletions take each
    namespace's writer lock (the flock protocol shards use), so a purge
    concurrent with a saving shard removes either the old file or the
    new one — never leaves a torn mix.
    """
    if namespace is not None and namespace not in NAMESPACE_NAMES:
        raise ValueError(
            f"unknown namespace {namespace!r} (have {list(NAMESPACE_NAMES)})"
        )
    names = NAMESPACE_NAMES if namespace is None else (namespace,)
    return [
        name for name in names if ResultCache.purge_namespace(directory, name)
    ]
