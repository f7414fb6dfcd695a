"""Content-addressed cache keys.

Every cache entry is addressed by the SHA-256 of *what produced it*:
the stage's configuration fingerprint plus the full input content
(source text, tool observables).  Two runs that would compute the same
artifact therefore hash to the same key, regardless of process, thread,
or :class:`Experiments` instance — the property the warm-run benchmarks
rely on.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

_SEPARATOR = b"\x1f"  # unit separator: cannot appear in JSON text

# one canonical encoder for every part: json.dumps with non-default
# arguments would build a new JSONEncoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of an ordered tuple of key parts.

    Parts are canonicalised through JSON (sorted keys, no whitespace)
    so dicts, tuples/lists, numbers and strings all hash stably across
    processes — unlike :func:`hash`, which is salted per interpreter.
    Unsupported part types raise ``TypeError``: a silent fallback (e.g.
    ``default=str`` rendering ``object at 0x...``) would make keys
    per-process, which shows up only as a mysteriously cold cache.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(_ENCODER.encode(part).encode("utf-8"))
        hasher.update(_SEPARATOR)
    return hasher.hexdigest()


def compile_key(fingerprint: str, filename: str, source: str) -> str:
    """Key for one compiler invocation."""
    return content_key("compile", fingerprint, filename, source)


def execute_key(compile_content_key: str, step_limit: int) -> str:
    """Key for one execution of a successfully compiled unit.

    The compiled AST is fully determined by the compile inputs, so the
    compile content key plus the executor's step limit addresses the
    run outcome.
    """
    return content_key("execute", compile_content_key, step_limit)


def judge_key(fingerprint: str, test_name: str, source: str, report_parts: Any) -> str:
    """Key for one judge verdict (direct or agent-based)."""
    return content_key("judge", fingerprint, test_name, source, report_parts)
