"""``DeepSeekCoderSim`` — the simulated deepseek-coder-33B-instruct.

The public surface mimics an instruction-tuned chat model: you hand it
a prompt string, it returns a completion string.  Internally it

1. parses the prompt's structure (task framing, embedded code, optional
   tool-output sections, required judgment vocabulary);
2. reads the code with the shallow analyzer;
3. samples a verdict from the capability profile (seeded per prompt, so
   identical prompts yield identical completions — greedy-decoding
   semantics);
4. renders a step-by-step rationale ending in the required
   ``FINAL JUDGEMENT:`` phrase, with a small malformed-response rate.

Generation statistics (token counts, simulated wall time at a
33B-on-A100 service rate) are accumulated on the instance for the
pipeline's cost model.
"""

from __future__ import annotations

import hashlib
import random
import re
import threading
from dataclasses import dataclass, field, fields

from repro.llm.analysis import CodeSignals, ShallowAnalyzer
from repro.llm.profiles import (
    AGENT_DIRECT,
    AGENT_INDIRECT,
    DIRECT,
    CapabilityProfile,
    profile_for,
    trust_for_codes,
)
from repro.llm.tokenizer import SimTokenizer

#: Service-rate model: prompt ingestion and token generation speeds of a
#: 33B model on one A100 (order-of-magnitude figures; only relative cost
#: matters to the pipeline benches).
PROMPT_TOKENS_PER_SECOND = 2400.0
COMPLETION_TOKENS_PER_SECOND = 34.0


def simulated_call_seconds(prompt_tokens: int, completion_tokens: int) -> float:
    """Service time of one call under the 33B-on-A100 rate model."""
    return (
        prompt_tokens / PROMPT_TOKENS_PER_SECOND
        + completion_tokens / COMPLETION_TOKENS_PER_SECOND
    )


@dataclass
class GenerationStats:
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    simulated_seconds: float = 0.0
    malformed_responses: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record(self, prompt_tokens: int, completion_tokens: int, malformed: bool) -> None:
        with self._lock:
            self.calls += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens
            self.simulated_seconds += simulated_call_seconds(prompt_tokens, completion_tokens)
            if malformed:
                self.malformed_responses += 1

    def totals(self) -> tuple:
        """The counts, in field order: plain data, to carry across
        processes."""
        with self._lock:
            return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def add(self, totals: tuple) -> None:
        """Count another model's :meth:`totals` into these."""
        with self._lock:
            for f, value in zip([f for f in fields(self) if f.compare], totals):
                setattr(self, f.name, getattr(self, f.name) + value)


@dataclass
class _ParsedPrompt:
    code: str
    flavor: str | None  # 'acc' | 'omp' | None
    vocabulary: tuple[str, str]  # (positive, negative)
    mode: str
    compile_rc: int | None = None
    compile_stderr: str = ""
    run_rc: int | None = None
    run_stderr: str = ""
    run_stdout: str = ""


@dataclass
class _Decision:
    verdict: str  # 'valid' | 'invalid'
    reason: str
    evidence: str


class DeepSeekCoderSim:
    """Deterministic-seeded stand-in for deepseek-coder-33B-instruct.

    Parameters
    ----------
    seed:
        Global seed; completions are a pure function of (seed, prompt).
    max_context_tokens:
        Prompts longer than this are truncated head-first, like a real
        serving stack.
    """

    name = "deepseek-coder-33b-instruct (simulated)"

    def __init__(self, seed: int = 20240822, max_context_tokens: int = 16384):
        self.seed = seed
        self.max_context_tokens = max_context_tokens
        self.tokenizer = SimTokenizer()
        self.analyzer = ShallowAnalyzer()
        self.stats = GenerationStats()

    # ------------------------------------------------------------------

    def generate(self, prompt: str, attempt: int = 0) -> str:
        """One chat completion for ``prompt``."""
        prompt = self.tokenizer.truncate(prompt, self.max_context_tokens)
        rng = self._rng_for(prompt, attempt)
        parsed = self._parse_prompt(prompt)
        profile = profile_for(parsed.flavor or "acc", parsed.mode)
        signals = self.analyzer.analyze(parsed.code)
        decision = self._decide(parsed, signals, profile, rng)
        malformed = attempt == 0 and rng.random() < profile.malformed_response_rate
        response = self._render(parsed, signals, decision, rng, malformed)
        self.stats.record(
            self.tokenizer.count(prompt), self.tokenizer.count(response), malformed
        )
        return response

    # ------------------------------------------------------------------

    def _rng_for(self, prompt: str, attempt: int) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}:{attempt}:{prompt}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------------
    # prompt understanding
    # ------------------------------------------------------------------

    _CODE_MARKERS = (
        "Here is the code for you to analyze:",
        "Here is the code:",
        "Here is the code.",
    )

    def _parse_prompt(self, prompt: str) -> _ParsedPrompt:
        code = ""
        for marker in self._CODE_MARKERS:
            idx = prompt.rfind(marker)
            if idx >= 0:
                code = prompt[idx + len(marker):].strip()
                break
        else:
            # fall back: assume the largest brace-bearing tail is code
            idx = prompt.find("#include")
            if idx < 0:
                idx = max(prompt.find("#pragma"), 0)
            code = prompt[idx:].strip()

        if "FINAL JUDGEMENT: correct" in prompt:
            vocabulary = ("correct", "incorrect")
        else:
            vocabulary = ("valid", "invalid")

        flavor = None
        if re.search(r"\bOpenACC\b", prompt):
            flavor = "acc"
        if re.search(r"\bOpenMP\b", prompt):
            flavor = "omp" if flavor is None else flavor
        head = prompt[: len(prompt) - len(code)] if code else prompt
        if flavor is None:
            flavor = "acc" if "acc" in head else ("omp" if "omp" in head else None)

        has_tool_info = "Compiler return code:" in prompt
        if not has_tool_info:
            mode = DIRECT
        elif prompt.lstrip().lower().startswith("describe"):
            mode = AGENT_INDIRECT
        else:
            mode = AGENT_DIRECT

        parsed = _ParsedPrompt(code=code, flavor=flavor, vocabulary=vocabulary, mode=mode)
        if has_tool_info:
            parsed.compile_rc = _find_int(prompt, r"Compiler return code:\s*(-?\d+)")
            parsed.compile_stderr = _find_section(prompt, "Compiler STDERR:", ("Compiler STDOUT:",))
            parsed.run_rc = _find_int(prompt, r"(?<!Compiler )Return code:\s*(-?\d+)")
            parsed.run_stderr = _find_section(prompt, "STDERR:", ("STDOUT:", "Using this information",))
            parsed.run_stdout = _find_section(prompt, "STDOUT:", ("Using this information", "Here is the code"))
        return parsed

    # ------------------------------------------------------------------
    # judgment
    # ------------------------------------------------------------------

    def _decide(
        self,
        parsed: _ParsedPrompt,
        signals: CodeSignals,
        profile: CapabilityProfile,
        rng: random.Random,
    ) -> _Decision:
        flavor = parsed.flavor

        # 1. is this even a directive test for the requested model?
        flavor_present = (
            flavor in signals.directive_flavors if flavor else signals.has_directives
        )
        if not flavor_present:
            if rng.random() < profile.detect_no_directives:
                model_name = {"acc": "OpenACC", "omp": "OpenMP"}.get(flavor or "", "directive")
                return _Decision(
                    "invalid",
                    f"the code contains no {model_name} directives at all",
                    "no-directives",
                )

        # 2. tool evidence (agent modes)
        if profile.uses_tools:
            if parsed.compile_rc not in (None, 0):
                codes = _diag_codes(parsed.compile_stderr)
                if rng.random() < trust_for_codes(profile, codes):
                    return _Decision(
                        "invalid",
                        "the compiler rejected the code "
                        f"(return code {parsed.compile_rc})",
                        "compile-error",
                    )
            elif parsed.run_rc not in (None, 0):
                fault = parsed.run_rc in (124, 134, 136, 139)
                trust = profile.trust_runtime_fault if fault else profile.trust_nonzero_exit
                if rng.random() < trust:
                    return _Decision(
                        "invalid",
                        f"the program failed at run time (return code {parsed.run_rc})",
                        "runtime-error",
                    )

        # 3. code-level signals
        if signals.suspicious_directive_words and rng.random() < profile.detect_misspelled_directive:
            word = signals.suspicious_directive_words[0]
            return _Decision(
                "invalid", f"the directive word '{word}' is not a valid directive or clause",
                "misspelled-directive",
            )
        if signals.looks_unbalanced and rng.random() < profile.detect_unbalanced_brackets:
            return _Decision(
                "invalid", "the brackets in this file do not balance", "unbalanced",
            )
        if signals.undeclared_candidates and rng.random() < profile.detect_undeclared_variable:
            name = signals.undeclared_candidates[0]
            return _Decision(
                "invalid", f"the variable '{name}' is used but never declared", "undeclared",
            )
        if signals.unallocated_pointers and rng.random() < profile.detect_missing_allocation:
            name = signals.unallocated_pointers[0]
            return _Decision(
                "invalid", f"the pointer '{name}' is used without any allocation", "no-alloc",
            )
        if (
            signals.has_directives
            and not signals.has_check_logic
            and rng.random() < profile.detect_missing_check_logic
        ):
            return _Decision(
                "invalid",
                "the test performs a computation but never verifies its result",
                "missing-logic",
            )

        # 4. hallucination on directive-bearing code
        if signals.has_directives:
            rate = profile.false_alarm
            if signals.is_simple:
                rate *= profile.false_alarm_simple_factor
            if rng.random() < rate:
                return _Decision("invalid", self._hallucinate(signals, rng), "hallucination")

        return _Decision("valid", "the code satisfies all of the evaluation criteria", "clean")

    def _hallucinate(self, signals: CodeSignals, rng: random.Random) -> str:
        claims = [
            "the data clauses do not cover every array used inside the region",
            "the reduction is applied to a variable that is also written directly",
            "the loop iterations carry a dependence that the directive ignores",
            "the data movement between host and device is incomplete",
            "the directive is missing a required clause for this computation",
            "the comparison tolerance is not appropriate for this datatype",
        ]
        if signals.directive_lines:
            line = signals.directive_lines[0].strip()
            claims.append(f"the directive '{line[:60]}' is not appropriate for this computation")
        return rng.choice(claims)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    _CRITERIA_COMMENTS = {
        "acc": [
            ("Syntax", "the OpenACC directives and pragmas appear syntactically well-formed"),
            ("Directive Appropriateness", "the directives chosen match the parallel computation"),
            ("Clause Correctness", "the clauses follow the OpenACC specification"),
            ("Memory Management", "data movement between CPU and GPU is handled by the data clauses"),
            ("Compliance", "the code follows current OpenACC practice"),
            ("Logic", "the test compares a serial reference against the parallel result"),
        ],
        "omp": [
            ("Syntax", "the OpenMP directives and pragmas appear syntactically well-formed"),
            ("Directive Appropriateness", "the directives chosen match the parallel computation"),
            ("Clause Correctness", "the clauses follow the OpenMP specification"),
            ("Memory Management", "the map clauses describe the data movement"),
            ("Compliance", "the code follows current OpenMP practice"),
            ("Logic", "the test compares a serial reference against the parallel result"),
        ],
    }

    def _render(
        self,
        parsed: _ParsedPrompt,
        signals: CodeSignals,
        decision: _Decision,
        rng: random.Random,
        malformed: bool,
    ) -> str:
        positive, negative = parsed.vocabulary
        verdict_word = positive if decision.verdict == "valid" else negative
        lines: list[str] = []

        if parsed.mode == AGENT_INDIRECT:
            lines.append(self._describe_code(parsed, signals))
            lines.append("")

        flavor = parsed.flavor or ("omp" if "omp" in signals.directive_flavors else "acc")
        comments = self._CRITERIA_COMMENTS[flavor if flavor in ("acc", "omp") else "acc"]
        if parsed.mode != AGENT_INDIRECT:
            lines.append("Let me evaluate the code against each criterion step by step.")
            for title, ok_text in comments[: rng.randint(4, 6)]:
                if decision.verdict == "invalid" and title == "Syntax" and decision.evidence in (
                    "misspelled-directive", "unbalanced", "compile-error",
                ):
                    lines.append(f"{title}: there is a problem here — {decision.reason}.")
                else:
                    lines.append(f"{title}: {ok_text}.")
            lines.append("")

        if decision.verdict == "invalid":
            lines.append(
                f"Overall, I believe this is an {negative} test because {decision.reason}."
            )
        else:
            lines.append(
                f"Overall, the program initializes its data, performs the computation, "
                f"and verifies the result, so I believe this is a {positive} test."
            )

        phrase = f"FINAL JUDGEMENT: {verdict_word}"
        if malformed:
            # realistic failure modes: wrong casing, reworded phrase
            phrase = rng.choice(
                [
                    f"Final judgement: {verdict_word}",
                    f"FINAL JUDGMENT: {verdict_word}",
                    f"My final verdict is that the test is {verdict_word}.",
                ]
            )
        lines.append(phrase)
        return "\n".join(lines)

    def _describe_code(self, parsed: _ParsedPrompt, signals: CodeSignals) -> str:
        parts: list[str] = []
        model_name = {"acc": "OpenACC", "omp": "OpenMP"}.get(parsed.flavor or "", "directive-based")
        if signals.directive_lines:
            parts.append(
                f"This program is a {model_name} test containing "
                f"{len(signals.directive_lines)} directive(s)."
            )
            parts.append(
                "It initializes its input arrays, offloads a computation via "
                f"'{signals.directive_lines[0][:70]}', and then inspects the results."
            )
        elif signals.has_directives:
            parts.append(
                f"This program exercises the {model_name} runtime API rather "
                f"than directives."
            )
        else:
            parts.append(
                f"This program contains no {model_name} directives; it is plain serial code."
            )
        if parsed.compile_rc is not None:
            if parsed.compile_rc == 0:
                parts.append("The compiler accepted the code without errors.")
            else:
                first = parsed.compile_stderr.strip().splitlines()
                detail = first[0] if first else "an error"
                parts.append(f"The compiler rejected the code: {detail}")
        if parsed.run_rc is not None and parsed.compile_rc == 0:
            if parsed.run_rc == 0:
                parts.append("When run, the program exits successfully with return code 0.")
            else:
                parts.append(f"When run, the program fails with return code {parsed.run_rc}.")
        if signals.has_check_logic:
            parts.append(
                "The program computes a serial reference and compares it against the "
                "offloaded result, returning a nonzero code when they disagree."
            )
        else:
            parts.append("The program does not appear to verify its own results.")
        return " ".join(parts)


def _find_int(text: str, pattern: str) -> int | None:
    match = re.search(pattern, text)
    return int(match.group(1)) if match else None


def _find_section(text: str, start_marker: str, end_markers: tuple[str, ...]) -> str:
    idx = text.find(start_marker)
    if idx < 0:
        return ""
    start = idx + len(start_marker)
    end = len(text)
    for marker in end_markers:
        pos = text.find(marker, start)
        if 0 <= pos < end:
            end = pos
    return text[start:end].strip()


def _diag_codes(stderr: str) -> list[str]:
    """Diagnostic categories as a reader would extract them.

    Prefers the ``[-Wcode]`` tags our driver renders; falls back to
    message-text pattern matching for foreign stderr.
    """
    codes = re.findall(r"\[-W([\w-]+)\]", stderr)
    if codes:
        return codes
    out: list[str] = []
    if re.search(r"undeclared|undefined", stderr, re.IGNORECASE):
        out.append("undeclared")
    if re.search(r"expected|unterminated|stray", stderr, re.IGNORECASE):
        out.append("syntax")
    if re.search(r"directive|clause|pragma", stderr, re.IGNORECASE):
        out.append("bad-directive")
    return out
