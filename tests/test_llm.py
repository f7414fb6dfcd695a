"""Unit tests for the simulated LLM: tokenizer, knowledge, analysis, model."""

import pytest

from repro.core.validator import TestsuiteValidator
from repro.judge.prompts import agent_direct_prompt, agent_indirect_prompt, direct_prompt
from repro.llm.analysis import ShallowAnalyzer
from repro.llm.knowledge import DirectiveKnowledge, edit_distance
from repro.llm.model import DeepSeekCoderSim
from repro.llm.profiles import (
    AGENT_DIRECT,
    AGENT_INDIRECT,
    DIRECT,
    MODES,
    profile_for,
    trust_for_codes,
)
from repro.llm.tokenizer import SimTokenizer


class TestTokenizer:
    def test_count_positive(self):
        assert SimTokenizer().count("int main() { return 0; }") > 5

    def test_deterministic(self):
        tok = SimTokenizer()
        text = "some code text with identifiers_and_numbers 12345"
        assert tok.tokenize(text) == tok.tokenize(text)

    def test_long_words_split(self):
        pieces = SimTokenizer(max_piece=4).tokenize("abcdefgh")
        assert pieces == ["abcd", "efgh"]

    def test_whitespace_folds(self):
        assert SimTokenizer().tokenize("a    b") == ["a", " ", "b"]

    def test_truncate_bounds_tokens(self):
        tok = SimTokenizer()
        text = "word " * 1000
        truncated = tok.truncate(text, 50)
        assert tok.count(truncated) <= 50

    def test_truncate_noop_for_short_text(self):
        tok = SimTokenizer()
        assert tok.truncate("short", 100) == "short"

    def test_count_is_the_length_of_tokenize_for_every_judge_exchange(
        self, acc_probed, omp_probed, monkeypatch
    ):
        """``count`` skips building the pieces; it must still count them
        all, over every prompt (whole and as the model truncates it) and
        response the judge exchanges on the probed corpus."""
        texts = []
        generate = DeepSeekCoderSim.generate

        def recorded(model, prompt, attempt=0):
            response = generate(model, prompt, attempt)
            texts.extend(
                (prompt, model.tokenizer.truncate(prompt, model.max_context_tokens), response)
            )
            return response

        monkeypatch.setattr(DeepSeekCoderSim, "generate", recorded)
        for flavor, probed in (("acc", acc_probed), ("omp", omp_probed)):
            for judge_kind in ("direct", "indirect"):
                TestsuiteValidator(
                    flavor=flavor, judge_kind=judge_kind, early_exit=False, workers=1
                ).validate(list(probed))
        assert len(texts) >= 3 * 4 * len(acc_probed)
        tok = SimTokenizer()
        assert [tok.count(text) for text in texts] == [
            len(tok.tokenize(text)) for text in texts
        ]

    def test_truncate_keeps_a_fitting_ascii_text_and_cuts_the_rest(self):
        tok = SimTokenizer()
        text = "int main() {\n    return 0;\n}\n"
        assert tok.truncate(text, len(text)) == text
        assert tok.truncate(text, tok.count(text)) == text
        assert tok.truncate(text, 4) == "int main("
        # outside ASCII the text is the tokens' text, not the input's
        text = "café au lait"
        assert tok.truncate(text, 100) == "".join(tok.tokenize(text))


class TestKnowledge:
    def test_edit_distance_basics(self):
        assert edit_distance("parallel", "parallel") == 0
        assert edit_distance("paralel", "parallel") == 1
        assert edit_distance("lopo", "loop") == 2

    def test_edit_distance_cap(self):
        assert edit_distance("abcdefgh", "zyxwvuts", cap=2) == 3

    def test_known_word(self):
        knowledge = DirectiveKnowledge()
        assert knowledge.classify_word("parallel") == "known"
        assert knowledge.classify_word("copyin") == "known"

    def test_shaky_word(self):
        assert DirectiveKnowledge().classify_word("deviceptr") == "shaky"

    def test_typo_detected(self):
        knowledge = DirectiveKnowledge()
        assert knowledge.classify_word("paralel") == "typo-of-known"
        assert knowledge.classify_word("kernles") == "typo-of-known"

    def test_suspicious_words_filters_known(self):
        knowledge = DirectiveKnowledge()
        words = ["parallel", "loop", "paralel", "copyin"]
        assert knowledge.suspicious_words(words) == ["paralel"]


class TestShallowAnalyzer:
    def test_valid_acc_signals(self, valid_acc_source):
        signals = ShallowAnalyzer().analyze(valid_acc_source, "c")
        assert signals.has_directives
        assert "acc" in signals.directive_flavors
        assert signals.brace_imbalance == 0
        assert not signals.undeclared_candidates
        assert not signals.suspicious_directive_words
        assert signals.has_check_logic
        assert signals.has_failure_path

    def test_no_directives_detected(self):
        signals = ShallowAnalyzer().analyze("int main() { return 0; }", "c")
        assert not signals.has_directives

    def test_api_calls_count_as_model_usage(self):
        source = "#include <openacc.h>\nint main() { acc_init(0); return 0; }"
        signals = ShallowAnalyzer().analyze(source, "c")
        assert signals.has_directives
        assert "acc" in signals.directive_flavors

    def test_brace_imbalance_detected(self, valid_acc_source):
        broken = valid_acc_source.replace("{", "", 1)
        signals = ShallowAnalyzer().analyze(broken, "c")
        assert signals.looks_unbalanced

    def test_braces_in_strings_ignored(self):
        source = 'int main() { printf("{{{"); return 0; }'
        signals = ShallowAnalyzer().analyze(source, "c")
        assert signals.brace_imbalance == 0

    def test_suspicious_directive_word(self, valid_acc_source):
        broken = valid_acc_source.replace("parallel loop", "paralel loop")
        signals = ShallowAnalyzer().analyze(broken, "c")
        assert "paralel" in signals.suspicious_directive_words

    def test_clause_arguments_not_suspicious(self):
        source = (
            "#include <openacc.h>\nint main() { double zzqy[4];\n"
            "#pragma acc parallel loop copy(zzqy[0:4])\n"
            "for (int i = 0; i < 4; i++) { zzqy[i] = i; }\nreturn 0; }"
        )
        signals = ShallowAnalyzer().analyze(source, "c")
        assert not signals.suspicious_directive_words

    def test_undeclared_candidate_found(self, valid_acc_source):
        broken = valid_acc_source.replace(
            "err = err + 1;", "err = err + 1;\nchk_total = chk_total + 1;"
        )
        signals = ShallowAnalyzer().analyze(broken, "c")
        assert "chk_total" in signals.undeclared_candidates

    def test_unallocated_pointer_found(self):
        source = "int main() { double *buf;\nreturn 0; }"
        signals = ShallowAnalyzer().analyze(source, "c")
        assert "buf" in signals.unallocated_pointers

    def test_missing_check_logic(self, valid_acc_source):
        broken = valid_acc_source.replace(
            """    if (err != 0) {
        printf("FAILED with %d errors\\n", err);
        return 1;
    }
""",
            "",
        )
        signals = ShallowAnalyzer().analyze(broken, "c")
        assert not signals.has_failure_path
        assert not signals.has_check_logic

    def test_fortran_language_autodetect(self, valid_f90_source):
        signals = ShallowAnalyzer().analyze(valid_f90_source)
        assert signals.language == "f90"
        assert signals.has_directives

    def test_fortran_balance(self, valid_f90_source):
        signals = ShallowAnalyzer().analyze(valid_f90_source, "f90")
        assert signals.brace_imbalance == 0
        broken = valid_f90_source.replace("end do\n  do i = 1, n\n    if", "do i = 1, n\n    if", 1)
        assert ShallowAnalyzer().analyze(broken, "f90").brace_imbalance != 0


class TestProfiles:
    def test_profile_exists_for_every_mode_and_flavor(self):
        for flavor in ("acc", "omp"):
            for mode in MODES:
                profile = profile_for(flavor, mode)
                assert profile.flavor == flavor
                assert profile.mode == mode

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError):
            profile_for("acc", "zero-shot")

    def test_direct_profiles_have_no_tools(self):
        assert not profile_for("acc", DIRECT).uses_tools
        assert profile_for("acc", AGENT_DIRECT).uses_tools
        assert profile_for("omp", AGENT_INDIRECT).uses_tools

    def test_agent_trusts_calibrated_ordering(self):
        """Agent prompts raise detection: calibration sanity."""
        direct = profile_for("acc", DIRECT)
        agent = profile_for("acc", AGENT_DIRECT)
        assert agent.detect_no_directives > direct.detect_no_directives
        assert agent.false_alarm < direct.false_alarm

    def test_trust_for_codes_picks_max_category(self):
        profile = profile_for("acc", AGENT_DIRECT)
        trust = trust_for_codes(profile, ["unbalanced-brace", "undeclared"])
        assert trust == profile.trust_semantic_error

    def test_trust_environment_low(self):
        profile = profile_for("acc", AGENT_DIRECT)
        assert trust_for_codes(profile, ["toolchain-limitation"]) == profile.trust_environment_error
        assert profile.trust_environment_error < 0.2


class TestModel:
    def test_deterministic_generation(self, valid_acc_source):
        model_a = DeepSeekCoderSim(seed=1)
        model_b = DeepSeekCoderSim(seed=1)
        prompt = direct_prompt(valid_acc_source, "acc")
        assert model_a.generate(prompt) == model_b.generate(prompt)

    def test_seed_changes_output_distribution(self, valid_acc_source):
        prompt = direct_prompt(valid_acc_source, "acc")
        outputs = {DeepSeekCoderSim(seed=s).generate(prompt) for s in range(8)}
        assert len(outputs) > 1

    def test_direct_prompt_uses_correct_vocabulary(self, valid_acc_source):
        model = DeepSeekCoderSim(seed=2)
        response = model.generate(direct_prompt(valid_acc_source, "acc"), attempt=1)
        assert "FINAL JUDGEMENT:" in response
        assert ("correct" in response) or ("incorrect" in response)

    def test_agent_prompt_uses_valid_vocabulary(self, valid_acc_source):
        model = DeepSeekCoderSim(seed=2)
        prompt = agent_direct_prompt(
            valid_acc_source, "acc", 0, "", "", 0, "", "PASSED\n"
        )
        response = model.generate(prompt, attempt=1)
        assert "FINAL JUDGEMENT: valid" in response or "FINAL JUDGEMENT: invalid" in response

    def test_indirect_prompt_describes_first(self, valid_acc_source):
        model = DeepSeekCoderSim(seed=2)
        prompt = agent_indirect_prompt(
            valid_acc_source, "acc", 0, "", "", 0, "", "PASSED\n"
        )
        response = model.generate(prompt, attempt=1)
        assert "This program" in response

    def test_compile_failure_usually_flagged(self, valid_acc_source):
        invalid = 0
        for seed in range(30):
            model = DeepSeekCoderSim(seed=seed)
            prompt = agent_direct_prompt(
                valid_acc_source, "acc", 1,
                "t.c:3:1: error: use of undeclared identifier 'x' [-Wundeclared]",
                "", None, None, None,
            )
            if "FINAL JUDGEMENT: invalid" in model.generate(prompt, attempt=1):
                invalid += 1
        assert invalid >= 20  # trust_semantic_error is 0.85

    def test_stats_accumulate(self, valid_acc_source):
        model = DeepSeekCoderSim(seed=3)
        model.generate(direct_prompt(valid_acc_source, "acc"))
        model.generate(direct_prompt(valid_acc_source, "acc"))
        assert model.stats.calls == 2
        assert model.stats.prompt_tokens > 0
        assert model.stats.simulated_seconds > 0

    def test_context_truncation(self):
        model = DeepSeekCoderSim(seed=4, max_context_tokens=200)
        long_prompt = direct_prompt("int x;\n" * 4000, "acc")
        response = model.generate(long_prompt)
        assert isinstance(response, str)

    def test_malformed_rate_nonzero_over_many_prompts(self):
        model = DeepSeekCoderSim(seed=6)
        malformed = 0
        for i in range(150):
            prompt = direct_prompt(f"int main() {{ return {i}; }}", "acc")
            response = model.generate(prompt, attempt=0)
            if "FINAL JUDGEMENT:" not in response:
                malformed += 1
        assert 0 < malformed < 30
