"""The differential oracle: one candidate, every registered backend.

PR 2 proved the ``walk`` and ``closure`` backends observationally
identical at test time; the campaign turns that one-shot guarantee into
a *continuously* checked invariant, and PR 6 widened the oracle from a
fixed pair to an **N-arm** comparison over
:data:`repro.runtime.interpreter.EXECUTION_BACKENDS` — new backends
(``codegen``) are hammered on machine-grown programs the moment they
register.  Every candidate that compiles runs under every arm, and any
pairwise divergence in the observable tuple (returncode, stdout,
stderr, fault, timed_out, steps) is a first-class :class:`Discrepancy`
finding carrying everything needed to replay it.

Results are content-addressed in the ``fuzz`` cache namespace (the
PR 1/PR 3 store with its flock persistence protocol), keyed on the
toolchain fingerprint, step limit, **arm set** and source text — the
execution backends are *the thing under test* here, so unlike the
pipeline's execute namespace, one fuzz entry stores every arm's result,
and changing the arm set changes the key (a two-arm verdict must never
satisfy a three-arm campaign).

The oracle is pure CPU work under the GIL, so a campaign with two or
more workers runs it in the :class:`~repro.pipeline.pool.ComputePool`
of processes the validation pipeline also uses.  The cache lookup and
store stay in the campaign's process; only the compile and the arms'
runs cross the boundary (:func:`~repro.pipeline.pool.compile_and_run`
under every arm).  The in-process path (one worker) is the executable
spec the pooled digest must match byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.cache.keys import content_key
from repro.cache.store import ResultCache
from repro.compiler.driver import Compiler, CompileResult
from repro.pipeline.pool import ComputePool, ComputeSpec, compile_and_run
from repro.runtime.executor import ExecutionResult, Executor
from repro.runtime.interpreter import EXECUTION_BACKENDS

#: fields of :class:`ExecutionResult` the oracle compares (all of them)
OBSERVABLES = ("returncode", "stdout", "stderr", "fault", "timed_out", "steps")


def _primary_of(results):
    """The arm whose result represents the candidate's behaviour.

    ``closure`` when present (keeps campaign digests and behaviour
    signatures stable across the two-arm → N-arm widening), else the
    first arm that actually ran.
    """
    run = results.get("closure")
    if run is not None:
        return run
    for result in results.values():
        if result is not None:
            return result
    return None


@dataclass(frozen=True)
class Discrepancy:
    """One observable cross-backend divergence — a replayable finding."""

    name: str
    operator: str
    source: str
    fields: tuple[str, ...]
    results: dict  # arm name -> observable dict

    @property
    def walk(self) -> dict:
        return self.results.get("walk", {})

    @property
    def closure(self) -> dict:
        return self.results.get("closure", {})

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "operator": self.operator,
            "source": self.source,
            "fields": list(self.fields),
            "results": {arm: dict(res) for arm, res in self.results.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Discrepancy":
        if "results" in data:
            results = {arm: dict(res) for arm, res in data["results"].items()}
        else:  # pre-N-arm manifests carried exactly two fixed arms
            results = {"walk": dict(data["walk"]), "closure": dict(data["closure"])}
        return cls(
            name=data["name"],
            operator=data["operator"],
            source=data["source"],
            fields=tuple(data["fields"]),
            results=results,
        )

    def render(self) -> str:
        lines = [f"DISCREPANCY {self.name} (operator {self.operator})"]
        for fld in self.fields:
            per_arm = " ".join(
                f"{arm}={res.get(fld)!r}" for arm, res in self.results.items()
            )
            lines.append(f"  {fld}: {per_arm}")
        return "\n".join(lines)


@dataclass
class DifferentialOutcome:
    """What every arm observed for one candidate."""

    compile_rc: int
    diagnostic_codes: tuple[str, ...] = ()
    compile_stderr: str = ""
    results: dict = field(default_factory=dict)  # arm -> ExecutionResult | None
    divergent_fields: tuple[str, ...] = field(default=())

    @property
    def compiled(self) -> bool:
        return self.compile_rc == 0

    @property
    def divergent(self) -> bool:
        return bool(self.divergent_fields)

    @property
    def walk(self) -> ExecutionResult | None:
        return self.results.get("walk")

    @property
    def closure(self) -> ExecutionResult | None:
        return self.results.get("closure")

    @property
    def primary(self) -> ExecutionResult | None:
        """The representative run for signatures, triage and judging."""
        return _primary_of(self.results)

    @property
    def executions(self) -> int:
        """Backend runs this outcome represents (0 on compile failure)."""
        return sum(1 for result in self.results.values() if result is not None)

    def to_json(self) -> dict:
        return {
            "compile_rc": self.compile_rc,
            "diagnostic_codes": list(self.diagnostic_codes),
            "compile_stderr": self.compile_stderr,
            "results": {
                arm: asdict(result) if result else None
                for arm, result in self.results.items()
            },
            "divergent_fields": list(self.divergent_fields),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DifferentialOutcome":
        if "results" in data:
            results = {
                arm: ExecutionResult(**raw) if raw else None
                for arm, raw in data["results"].items()
            }
        else:  # pre-N-arm cache entries carried exactly two fixed arms
            results = {
                "walk": ExecutionResult(**data["walk"]) if data.get("walk") else None,
                "closure": (
                    ExecutionResult(**data["closure"]) if data.get("closure") else None
                ),
            }
        return cls(
            compile_rc=data["compile_rc"],
            diagnostic_codes=tuple(data["diagnostic_codes"]),
            compile_stderr=data.get("compile_stderr", ""),
            results=results,
            divergent_fields=tuple(data.get("divergent_fields", ())),
        )


def divergence(results: dict) -> tuple[str, ...]:
    """Observable fields on which any two arms disagree."""
    runs = [result for result in results.values() if result is not None]
    if len(runs) < 2:
        return ()
    return tuple(
        fld
        for fld in OBSERVABLES
        if len({getattr(run, fld) for run in runs}) > 1
    )


def divergent_fields(walk: ExecutionResult, closure: ExecutionResult) -> tuple[str, ...]:
    """Binary form of :func:`divergence` (kept for the two-arm callers)."""
    return divergence({"walk": walk, "closure": closure})


class DifferentialRunner:
    """Compile once, run under every arm, compare observables pairwise.

    ``arms`` defaults to every backend in
    :data:`~repro.runtime.interpreter.EXECUTION_BACKENDS` — registering
    a backend automatically puts it under differential test.  Not
    thread-safe by contract (each scheduler worker builds its own); the
    cache it fronts *is* thread-safe, so workers share one.  With a
    ``pool`` the compile-and-run half happens in a pool worker.
    """

    def __init__(
        self,
        model: str = "acc",
        step_limit: int = 300_000,
        openmp_max_version: float = 4.5,
        cache: ResultCache | None = None,
        arms: tuple[str, ...] | None = None,
        pool: ComputePool | None = None,
    ):
        self.compiler = Compiler(model=model, openmp_max_version=openmp_max_version)
        self.step_limit = step_limit
        self.cache = cache
        self.pool = pool
        self.arms = tuple(arms) if arms is not None else EXECUTION_BACKENDS
        self.spec = ComputeSpec("differential", "candidate", "fuzz:worker-compute")
        self.toolchain = (model, openmp_max_version, step_limit)
        unknown = [arm for arm in self.arms if arm not in EXECUTION_BACKENDS]
        if unknown:
            raise ValueError(
                f"unknown arms {unknown}; registered backends: {EXECUTION_BACKENDS}"
            )
        if len(self.arms) < 2:
            raise ValueError("a differential oracle needs at least two arms")
        self.executors = {
            arm: Executor(step_limit=step_limit, backend=arm) for arm in self.arms
        }
        # named aliases: tests and tools reach a specific arm's executor
        # (e.g. to monkeypatch one backend into lying)
        self.walk = self.executors.get("walk")
        self.closure = self.executors.get("closure")

    def fingerprint(self) -> str:
        return (
            f"fuzz-diff:{self.compiler.fingerprint()}:{self.step_limit}"
            f":{'+'.join(self.arms)}"
        )

    def key_for(self, name: str, source: str) -> str:
        return content_key("fuzz-differential", self.fingerprint(), name, source)

    def run(self, test) -> DifferentialOutcome:
        """The differential outcome for one candidate (cached by content).

        The candidate *name* is part of the key: compile stderr embeds
        the filename, and the triage judge's prompt (hence the campaign
        digest) reads it — serving one candidate's stderr to a renamed
        twin would make the digest depend on cache warmth.  Campaign
        candidate names are deterministic, so replays and warm reruns
        still hit.
        """
        if self.cache is not None:
            key = self.key_for(test.name, test.source)
            cached = self.cache.get(key)
            if cached is not None:
                return DifferentialOutcome.from_json(cached)
        if self.pool is None:
            outcome = self._compute(test)
        else:
            outcome = _outcome(
                *self.pool.compute(
                    self.spec, self.toolchain, test.name, test.source, self.arms
                )
            )
        if self.cache is not None:
            self.cache.put(key, outcome.to_json())
        return outcome

    def _compute(self, test) -> DifferentialOutcome:
        return _outcome(
            *compile_and_run(self.compiler, self.executors, test.source, test.name)
        )


def _outcome(compiled: CompileResult, results: dict) -> DifferentialOutcome:
    return DifferentialOutcome(
        compile_rc=compiled.returncode,
        diagnostic_codes=tuple(compiled.diagnostic_codes),
        compile_stderr=compiled.stderr,
        results=results,
        divergent_fields=divergence(results),
    )


def discrepancy_from(test, operator: str, outcome: DifferentialOutcome) -> Discrepancy:
    """Package a divergent outcome as a finding."""
    return Discrepancy(
        name=test.name,
        operator=operator,
        source=test.source,
        fields=outcome.divergent_fields,
        results={
            arm: asdict(result) if result else {}
            for arm, result in outcome.results.items()
        },
    )
