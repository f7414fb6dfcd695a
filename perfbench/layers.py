"""Per-layer timing measured from outside the program.

:func:`instrument` wraps the public entry point of each layer in a span
on the ambient :mod:`repro.obs.trace` tracer.  Nothing in ``src/`` is
changed: the wrappers replace class or module attributes for as long as
the context is open.  With no tracer installed a wrapper costs one
no-op span.

:func:`layer_metrics` folds a span list (live records or the dicts a
``serve --trace-log`` file holds) into the per-layer metrics, each
normalised per measured operation (a corpus pass, a request, a fuzz
campaign).
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict

from repro.obs import trace

BACKENDS = ("walk", "closure", "codegen")
CACHE_NAMESPACES = ("compile", "execute", "judge", "fuzz")
STAGES = ("compile", "execute", "judge")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def _after_compile(attrs, args, result):
    attrs["ok"] = bool(result.ok)


def _after_execute(attrs, args, result):
    attrs["backend"] = args[0].backend
    attrs["steps"] = int(result.steps)


def _after_cache_get(attrs, args, result):
    attrs["ns"] = args[0].name
    attrs["hit"] = result is not None


def _after_cache_put(attrs, args, result):
    attrs["ns"] = args[0].name


def _wrap(original, name, after=None, before=None):
    def wrapper(*args, **kwargs):
        with trace.span(name) as span:
            mark = before(args, kwargs) if before is not None else None
            try:
                result = original(*args, **kwargs)
            except Exception:
                span.attrs["raised"] = True
                raise
            if after is not None:
                after(span.attrs, args, result)
            if mark is not None:
                span.attrs.update(mark())
            return result

    wrapper.__wrapped__ = original
    return wrapper


def _llm_before(args, kwargs):
    model = args[0]
    tokens = model.stats.prompt_tokens
    attempt = kwargs.get("attempt", args[2] if len(args) > 2 else 0)

    def mark():
        return {"prompt_tokens": model.stats.prompt_tokens - tokens, "attempt": attempt}

    return mark


def _targets():
    """(owner, attribute, span name, after, before) for every wrapped call."""
    from repro.cache.store import ResultCache
    from repro.compiler.driver import Compiler
    from repro.fuzz.differential import DifferentialRunner
    from repro.fuzz.operators import FuzzOperator
    from repro.judge.llmj import AgentLLMJ
    from repro.llm.model import DeepSeekCoderSim
    from repro.pipeline.engine import ValidationPipeline
    from repro.runtime import codegen, compilebody
    from repro.runtime.executor import Executor

    targets = [
        (Compiler, "compile", "compiler.compile", _after_compile, None),
        (compilebody, "lower_unit", "runtime.lower", None, None),
        (codegen, "compile_unit", "runtime.codegen_compile", None, None),
        (Executor, "run", "runtime.execute", _after_execute, None),
        (AgentLLMJ, "judge", "judge.judge", None, None),
        (DeepSeekCoderSim, "generate", "llm.generate", None, _llm_before),
        (ResultCache, "get", "cache.get", _after_cache_get, None),
        (ResultCache, "put", "cache.put", _after_cache_put, None),
        (ValidationPipeline, "run", "pipeline.run", None, None),
        (DifferentialRunner, "run", "fuzz.differential", None, None),
    ]
    # operators override apply(); wrap every class that defines it
    pending = [FuzzOperator]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply" in cls.__dict__:
            targets.append((cls, "apply", "fuzz.mutate", None, None))
    return targets


def install() -> list:
    """Wrap every layer entry point; returns what :func:`uninstall` needs."""
    saved = []
    for owner, attr, name, after, before in _targets():
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, name, after, before))
    return saved


def uninstall(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


@contextlib.contextmanager
def instrument(tracer: trace.Tracer):
    """Wrap the layers and install ``tracer`` for the block."""
    saved = install()
    try:
        with trace.installed(tracer):
            yield tracer
    finally:
        uninstall(saved)


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------


def _as_dicts(spans) -> list[dict]:
    return [s if isinstance(s, dict) else s.to_json() for s in spans]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"]:
            child_time[span["parent_id"]] += span["end"] - span["start"]
    return {
        span["span_id"]: max(0.0, span["end"] - span["start"] - child_time[span["span_id"]])
        for span in spans
    }


def layer_metrics(spans, units: int) -> dict[str, float]:
    """Per-layer sums and ratios from ``spans``, per measured operation."""
    spans = _as_dicts(spans)
    own = self_times(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    flagged = defaultdict(int)
    steps = 0
    tokens = 0
    retries = 0
    execute_self = defaultdict(float)
    stage_self = defaultdict(float)
    lookups = defaultdict(lambda: [0, 0])
    for span in spans:
        name, attrs = span["name"], span.get("attrs") or {}
        total[name] += span["end"] - span["start"]
        calls[name] += 1
        if attrs.get("raised") or attrs.get("ok") is False:
            flagged[name] += 1
        if name == "runtime.execute":
            execute_self[attrs.get("backend", "closure")] += own[span["span_id"]]
            steps += attrs.get("steps", 0)
        elif name == "llm.generate":
            tokens += attrs.get("prompt_tokens", 0)
            retries += 1 if attrs.get("attempt", 0) else 0
        elif name == "cache.get":
            lookups[attrs.get("ns")][0 if attrs.get("hit") else 1] += 1
        elif name.startswith("stage."):
            stage_self[name[len("stage."):]] += own[span["span_id"]]

    per = 1.0 / max(1, units)
    out = {
        "compiler.compile_s": total["compiler.compile"] * per,
        "compiler.calls": calls["compiler.compile"] * per,
        "compiler.fail_ratio": ratio(flagged["compiler.compile"], calls["compiler.compile"]),
        "runtime.lower_s": total["runtime.lower"] * per,
        "runtime.codegen_compile_s": total["runtime.codegen_compile"] * per,
        "runtime.execute_calls": calls["runtime.execute"] * per,
        "runtime.steps": steps * per,
        "judge.judge_s": total["judge.judge"] * per,
        "judge.calls": calls["judge.judge"] * per,
        "llm.generate_s": total["llm.generate"] * per,
        "llm.retries": retries * per,
        "llm.prompt_tokens": tokens * per,
        "cache.get_s": total["cache.get"] * per,
        "cache.put_s": total["cache.put"] * per,
        "pipeline.run_s": total["pipeline.run"] * per,
        "fuzz.mutate_s": total["fuzz.mutate"] * per,
        "fuzz.apply_ratio": ratio(
            calls["fuzz.mutate"] - flagged["fuzz.mutate"], calls["fuzz.mutate"]
        ),
        "fuzz.differential_s": total["fuzz.differential"] * per,
    }
    for backend in BACKENDS:
        out[f"runtime.execute_s.{backend}"] = execute_self[backend] * per
    for ns in CACHE_NAMESPACES:
        hits, misses = lookups[ns]
        out[f"cache.hit_ratio.{ns}"] = ratio(hits, hits + misses)
    for stage in STAGES:
        out[f"pipeline.stage_self_s.{stage}"] = stage_self[stage] * per
    return out


def share_table(spans, units: int, unit_seconds: float) -> list[str]:
    """Human lines: every span name's summed time, calls and share of one operation."""
    spans = _as_dicts(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        total[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
    per = 1.0 / max(1, units)
    lines = [f"  {'span (inclusive)':28s} {'s/op':>10s} {'calls/op':>9s} {'share':>7s}"]
    for name in sorted(total, key=total.get, reverse=True):
        seconds = total[name] * per
        lines.append(
            f"  {name:28s} {seconds:10.5f} {calls[name] * per:9.2f} {seconds / unit_seconds:7.1%}"
        )
    lines.append(
        "  (summed over threads: with 2 compile/execute threads a layer's"
        " sum includes GIL waits and can exceed the operation's wall time)"
    )
    return lines


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def overhead(traced: list[float], untraced: list[float]) -> tuple[float, float]:
    """Median of paired traced/untraced ratios and their IQR over the median."""
    ratios = [t / u for t, u in zip(traced, untraced)]
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return median, (q3 - q1) / median
