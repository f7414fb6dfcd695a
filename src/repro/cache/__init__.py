"""Content-addressed result caching for the validation pipeline.

Layering (see ``ARCHITECTURE.md``):

* :mod:`repro.cache.keys` — SHA-256 content keys over source + stage
  configuration fingerprints;
* :mod:`repro.cache.store` — thread-safe LRU :class:`ResultCache` with
  optional JSON disk persistence per namespace;
* :mod:`repro.cache.wrappers` — drop-in caching fronts for the LLM
  judges (the pipeline's chain does its own compile and execute
  lookups);
* :mod:`repro.cache.bundle` — :class:`PipelineCache`, the per-run
  bundle shared by generation, pipeline stages and experiments.

Only ``keys`` and ``store`` are imported eagerly: the compiler driver
imports ``repro.cache.keys`` at module load, so this package root must
not (transitively) import the driver back.
"""

from __future__ import annotations

from repro.cache.keys import compile_key, content_key, execute_key, judge_key
from repro.cache.store import Codec, ResultCache

_LAZY = {
    "PipelineCache": ("repro.cache.bundle", "PipelineCache"),
    "CachingAgentJudge": ("repro.cache.wrappers", "CachingAgentJudge"),
    "CachingDirectJudge": ("repro.cache.wrappers", "CachingDirectJudge"),
}

__all__ = [
    "Codec",
    "ResultCache",
    "content_key",
    "compile_key",
    "execute_key",
    "judge_key",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attr = _LAZY[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
