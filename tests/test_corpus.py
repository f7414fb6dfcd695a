"""Unit tests for corpus generation, templates, features, suites."""

import random

import pytest

from repro.compiler.driver import Compiler, CompileResult
from repro.corpus.features import OPENACC_FEATURES, OPENMP_FEATURES, catalog, features_at_or_below
from repro.corpus.generator import (
    CorpusGenerator, CorpusValidationError, TestFile, _issue_name,
)
from repro.corpus.suite import TestSuite
from repro.corpus.templates import TEMPLATES, TemplateContext, templates_for
from repro.runtime.executor import Executor


class TestFeatures:
    def test_catalogs_nonempty(self):
        assert len(OPENACC_FEATURES) >= 20
        assert len(OPENMP_FEATURES) >= 25

    def test_catalog_lookup(self):
        assert catalog("acc") is OPENACC_FEATURES
        assert catalog("omp") is OPENMP_FEATURES
        with pytest.raises(ValueError):
            catalog("cuda")

    def test_version_filter(self):
        old = features_at_or_below("omp", 3.0)
        assert all(f.since <= 3.0 for f in old)
        assert len(old) < len(OPENMP_FEATURES)

    def test_feature_idents_match_model(self):
        for ident, feature in OPENACC_FEATURES.items():
            assert ident.startswith("acc.")
            assert feature.model == "acc"


class TestTemplates:
    def test_registry_covers_both_models(self):
        assert templates_for("acc", "c")
        assert templates_for("omp", "c")
        assert templates_for("acc", "f90")

    def test_every_template_declares_features(self):
        for spec in TEMPLATES:
            assert spec.features, spec.name

    @pytest.mark.parametrize("spec", TEMPLATES, ids=lambda s: s.name)
    def test_every_template_renders_compiles_and_passes(self, spec):
        """Each template must produce a valid, self-checking test."""
        rng = random.Random(5)
        model = spec.models[0]
        language = spec.languages[0]
        ctx = TemplateContext(rng=rng, model=model, language=language)
        source = spec.render(ctx)
        ext = {"c": ".c", "cpp": ".cpp", "f90": ".f90"}[language]
        compiler = Compiler(model=model)
        compiled = compiler.compile(source, f"t{ext}")
        assert compiled.ok, f"{spec.name}: {compiled.stderr}"
        result = Executor().run(compiled)
        assert result.returncode == 0, f"{spec.name}: rc={result.returncode} {result.stderr}"

    def test_template_context_randomizes(self):
        rng = random.Random(1)
        sizes = {TemplateContext(rng=rng, model="acc", language="c").size for _ in range(20)}
        assert len(sizes) > 1


class TestGenerator:
    def test_generates_requested_count(self, acc_corpus):
        assert len(acc_corpus) == 36

    def test_deterministic_with_seed(self):
        a = CorpusGenerator(seed=3).generate("omp", 6)
        b = CorpusGenerator(seed=3).generate("omp", 6)
        assert [t.source for t in a] == [t.source for t in b]

    def test_different_seeds_differ(self):
        a = CorpusGenerator(seed=3).generate("omp", 6)
        b = CorpusGenerator(seed=4).generate("omp", 6)
        assert [t.source for t in a] != [t.source for t in b]

    def test_unknown_language_raises(self):
        with pytest.raises(ValueError):
            CorpusGenerator(seed=1).generate("acc", 3, languages=("rust",))

    def test_names_unique(self, acc_corpus):
        names = [t.name for t in acc_corpus]
        assert len(names) == len(set(names))

    def test_a_compile_failure_without_stderr_names_the_file(self, monkeypatch):
        """Pooled or not, the recorded failure keeps the file's name and
        rc when the compiler prints nothing."""
        from repro.pipeline import pool as compute
        from repro.pipeline.engine import MIN_POOLED_FILES

        def silent_failure(self, source, filename="<input>"):
            return CompileResult(
                returncode=2, stdout="", stderr="", filename=filename, language="c"
            )

        monkeypatch.setattr(Compiler, "compile", silent_failure)
        # fork: the pool's workers inherit the failing compiler
        monkeypatch.setattr(compute, "default_start_method", lambda: "fork")
        failures = []
        for workers in (1, 2):
            generator = CorpusGenerator(seed=3, workers=workers)
            with pytest.raises(CorpusValidationError):
                generator.generate("acc", MIN_POOLED_FILES)
            failures.append(generator.validation_failures)
        assert failures[0] == failures[1]
        first = failures[0][0]
        assert first.startswith("acc_") and first.endswith("_0000.c: compile rc=2: ")
        assert all(": compile rc=2: " in failure for failure in failures[0])

    def test_all_validated_files_run_clean(self, omp_corpus):
        compiler = Compiler(model="omp")
        executor = Executor()
        for test in omp_corpus[:8]:
            compiled = compiler.compile(test.source, test.name)
            assert compiled.ok
            assert executor.run(compiled).returncode == 0


class TestTestFile:
    def test_valid_by_default(self):
        test = TestFile("a.c", "c", "acc", "int main(){return 0;}", "t")
        assert test.is_valid
        assert test.issue is None

    def test_with_issue_marks_invalid(self):
        test = TestFile("a.c", "c", "acc", "src", "t").with_issue(2, "mutated")
        assert not test.is_valid
        assert test.issue == 2
        assert test.source == "mutated"
        assert "__issue2" in test.name

    def test_issue5_stays_valid(self):
        test = TestFile("a.c", "c", "acc", "src", "t").with_issue(5)
        assert test.is_valid

    def test_issue_name_without_extension(self):
        assert _issue_name("plain", 3) == "plain__issue3"


class TestSuiteContainer:
    def test_split_half_partitions(self, acc_corpus):
        suite = TestSuite("s", "acc", list(acc_corpus))
        first, second = suite.split_half(seed=1)
        assert len(first) + len(second) == len(suite)
        names = {t.name for t in first} | {t.name for t in second}
        assert len(names) == len(suite)

    def test_split_half_seeded(self, acc_corpus):
        suite = TestSuite("s", "acc", list(acc_corpus))
        a1, _ = suite.split_half(seed=9)
        a2, _ = suite.split_half(seed=9)
        assert [t.name for t in a1] == [t.name for t in a2]

    def test_by_language(self, acc_corpus):
        suite = TestSuite("s", "acc", list(acc_corpus))
        for lang in suite.languages():
            assert all(t.language == lang for t in suite.by_language(lang))

    def test_save_and_load_roundtrip(self, acc_corpus, tmp_path):
        suite = TestSuite("roundtrip", "acc", list(acc_corpus)[:5])
        suite.save(tmp_path / "out")
        loaded = TestSuite.load(tmp_path / "out")
        assert loaded.name == "roundtrip"
        assert [t.name for t in loaded] == [t.name for t in suite]
        assert [t.source for t in loaded] == [t.source for t in suite]
