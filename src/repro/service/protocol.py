"""The service wire contract.

Every request body the daemon accepts and every response it emits is
plain JSON; this module owns the (de)serialisation and validation so
the server, the client and the tests all speak from one definition.
Parsing failures raise :class:`ProtocolError`, which the server maps
to HTTP 400 — malformed input must never take the daemon down.

Verdict payloads are encoded from (and decode back to) the validator's
:class:`~repro.core.validator.JudgedFile`, so a service round-trip is
byte-comparable with a direct :class:`TestsuiteValidator` call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.validator import JudgedFile
from repro.runtime.interpreter import EXECUTION_BACKENDS

FLAVORS = ("acc", "omp")
JUDGE_KINDS = ("direct", "indirect")
#: derived from the runtime registry: a newly registered backend is
#: immediately requestable over the wire
BACKENDS = EXECUTION_BACKENDS

#: Per-request file cap: one request is one admission-queue slot, so a
#: giant request would hold up every batch queued behind it.
MAX_FILES_PER_REQUEST = 16


class ProtocolError(ValueError):
    """Client-side contract violation (server answers HTTP ``status``)."""

    status = 400


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _choice(data: dict, field: str, choices: tuple[str, ...], default: str) -> str:
    value = data.get(field, default)
    _require(
        isinstance(value, str) and value in choices,
        f"{field!r} must be one of {list(choices)}, got {value!r}",
    )
    return value


@dataclass(frozen=True)
class ValidateOptions:
    """Pipeline knobs a request may set; everything else is server-side.

    Frozen and hashable on purpose: the options object itself is the
    batch-compatibility key — requests with equal options may share a
    pipeline run.
    """

    flavor: str = "acc"
    judge: str = "direct"
    early_exit: bool = True
    backend: str = "closure"

    def to_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "judge": self.judge,
            "early_exit": self.early_exit,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: object) -> "ValidateOptions":
        _require(isinstance(data, dict), f"'options' must be an object, got {type(data).__name__}")
        early_exit = data.get("early_exit", True)
        _require(isinstance(early_exit, bool), f"'early_exit' must be a boolean, got {early_exit!r}")
        return cls(
            flavor=_choice(data, "flavor", FLAVORS, "acc"),
            judge=_choice(data, "judge", JUDGE_KINDS, "direct"),
            early_exit=early_exit,
            backend=_choice(data, "backend", BACKENDS, "closure"),
        )


def _parse_files(data: dict) -> tuple[tuple[str, str], ...]:
    if "files" in data:
        raw = data["files"]
        if isinstance(raw, dict):
            pairs = list(raw.items())
        elif isinstance(raw, list):
            pairs = []
            for entry in raw:
                _require(
                    isinstance(entry, dict) and "name" in entry and "source" in entry,
                    "each 'files' entry must be an object with 'name' and 'source'",
                )
                pairs.append((entry["name"], entry["source"]))
        else:
            raise ProtocolError("'files' must be an object or a list")
    elif "name" in data or "source" in data:  # single-file shorthand
        _require(
            "name" in data and "source" in data,
            "single-file requests need both 'name' and 'source'",
        )
        pairs = [(data["name"], data["source"])]
    else:
        raise ProtocolError("request needs 'files' (or 'name' + 'source')")

    _require(len(pairs) > 0, "'files' must not be empty")
    _require(
        len(pairs) <= MAX_FILES_PER_REQUEST,
        f"at most {MAX_FILES_PER_REQUEST} files per request, got {len(pairs)}",
    )
    seen = set()
    for name, source in pairs:
        _require(isinstance(name, str) and name.strip(), f"file name must be a non-empty string, got {name!r}")
        _require(isinstance(source, str), f"source for {name!r} must be a string")
        _require(name not in seen, f"duplicate file name {name!r} in one request")
        seen.add(name)
    return tuple(pairs)


@dataclass(frozen=True)
class ValidateRequest:
    """``POST /v1/validate``: named sources plus pipeline options."""

    files: tuple[tuple[str, str], ...]
    options: ValidateOptions = ValidateOptions()

    def to_dict(self) -> dict:
        return {"files": dict(self.files), "options": self.options.to_dict()}

    @classmethod
    def from_dict(cls, data: object) -> "ValidateRequest":
        _require(isinstance(data, dict), f"request body must be a JSON object, got {type(data).__name__}")
        return cls(
            files=_parse_files(data),
            options=ValidateOptions.from_dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class JudgeRequest:
    """``POST /v1/judge``: judge one file, optionally with a tool report.

    Without ``report`` the judge runs its own tools (compile + execute)
    before prompting, exactly like the agent pipeline's LLMJ stage.
    """

    name: str
    source: str
    flavor: str = "acc"
    judge: str = "direct"
    backend: str = "closure"
    report: dict | None = None

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "source": self.source,
            "flavor": self.flavor,
            "judge": self.judge,
            "backend": self.backend,
        }
        if self.report is not None:
            payload["report"] = dict(self.report)
        return payload

    @classmethod
    def from_dict(cls, data: object) -> "JudgeRequest":
        _require(isinstance(data, dict), f"request body must be a JSON object, got {type(data).__name__}")
        _require(
            isinstance(data.get("name"), str) and data["name"].strip(),
            "'name' must be a non-empty string",
        )
        _require(isinstance(data.get("source"), str), "'source' must be a string")
        report = data.get("report")
        if report is not None:
            _require(isinstance(report, dict), "'report' must be an object")
            _require(
                isinstance(report.get("compile_rc"), int),
                "report.compile_rc must be an integer",
            )
            run_rc = report.get("run_rc")
            _require(
                run_rc is None or isinstance(run_rc, int),
                f"report.run_rc must be an integer or null, got {run_rc!r}",
            )
            for text_field in (
                "compile_stderr", "compile_stdout",
                "run_stderr", "run_stdout",
            ):
                value = report.get(text_field)
                _require(
                    value is None or isinstance(value, str),
                    f"report.{text_field} must be a string or null",
                )
            codes = report.get("diagnostic_codes", [])
            _require(
                isinstance(codes, (list, tuple))
                and all(isinstance(code, str) for code in codes),
                "report.diagnostic_codes must be a list of strings",
            )
        return cls(
            name=data["name"],
            source=data["source"],
            flavor=_choice(data, "flavor", FLAVORS, "acc"),
            judge=_choice(data, "judge", JUDGE_KINDS, "direct"),
            backend=_choice(data, "backend", BACKENDS, "closure"),
            report=report,
        )


# ----------------------------------------------------------------------
# durable jobs (POST /v1/jobs)
# ----------------------------------------------------------------------

JOB_KINDS = ("campaign", "experiment")
JOB_STATES = ("queued", "running", "checkpointed", "done", "failed")

#: states a job never leaves
TERMINAL_JOB_STATES = ("done", "failed")


@dataclass(frozen=True)
class JobSpec:
    """``POST /v1/jobs``: a campaign or experiment to run durably.

    The wire shape is ``{"kind": "campaign"|"experiment", "spec":
    {...}}`` where ``spec`` is, respectively, a
    :class:`~repro.fuzz.campaign.CampaignConfig` JSON or a
    :class:`~repro.experiments.rundir.ExperimentRunSpec` JSON.  Both
    are validated *at submission*, so a bad spec is an HTTP 400 at
    POST time — never a job that sits queued and then fails.
    """

    kind: str
    spec: tuple  # canonicalised (key, value) pairs; dict via spec_dict()

    def spec_dict(self) -> dict:
        return dict(self.spec)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "spec": self.spec_dict()}

    @classmethod
    def from_dict(cls, data: object) -> "JobSpec":
        _require(isinstance(data, dict), f"request body must be a JSON object, got {type(data).__name__}")
        kind = data.get("kind")
        _require(
            isinstance(kind, str) and kind in JOB_KINDS,
            f"'kind' must be one of {list(JOB_KINDS)}, got {kind!r}",
        )
        spec = data.get("spec", {})
        _require(isinstance(spec, dict), f"'spec' must be an object, got {type(spec).__name__}")
        # deep-validate by constructing the real config objects (lazy
        # imports: the protocol module must stay importable without the
        # fuzz/experiment stacks)
        if kind == "campaign":
            from repro.fuzz.campaign import CampaignConfig

            try:
                config = CampaignConfig.from_json(spec)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid campaign spec: {exc}") from exc
            # each worker is a process the daemon forks for the job
            cores = os.cpu_count() or 1
            _require(
                config.workers <= cores,
                f"invalid campaign spec: workers must be <= {cores} (this host's"
                f" cores), got {config.workers}",
            )
        else:
            from repro.experiments.rundir import ExperimentRunSpec

            try:
                parsed = ExperimentRunSpec.from_json(spec)
                from repro.experiments.config import ExperimentConfig

                ExperimentConfig(
                    scale=parsed.scale,
                    seed=parsed.seed,
                    execution_backend=parsed.backend,
                    jobs=parsed.jobs,
                )
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"invalid experiment spec: {exc}") from exc
            from repro.experiments.sharding import ARTIFACT_CELLS

            for name in parsed.artifacts:
                _require(
                    name in ARTIFACT_CELLS,
                    f"unknown artifact {name!r} (choose from {sorted(ARTIFACT_CELLS)})",
                )
        return cls(kind=kind, spec=tuple(sorted(spec.items(), key=lambda kv: kv[0])))


# ----------------------------------------------------------------------
# verdict encoding (JudgedFile <-> JSON)
# ----------------------------------------------------------------------


def encode_verdict(judged: JudgedFile) -> dict:
    return {
        "name": judged.name,
        "verdict": judged.verdict,
        "stage": judged.stage,
        "reason": judged.reason,
        "compile_rc": judged.compile_rc,
        "run_rc": judged.run_rc,
        "judge_response": judged.judge_response,
    }


def decode_verdict(data: dict) -> JudgedFile:
    try:
        return JudgedFile(
            name=data["name"],
            verdict=data["verdict"],
            stage=data["stage"],
            reason=data["reason"],
            compile_rc=data["compile_rc"],
            run_rc=data["run_rc"],
            judge_response=data.get("judge_response"),
        )
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed verdict payload: {exc}") from exc


def error_body(message: str, **extra: object) -> dict:
    return {"error": message, **extra}
