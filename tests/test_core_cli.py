"""Tests for the public validator API and the CLI."""

from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core import TestsuiteValidator


class TestValidatorAPI:
    def test_validate_sources_good_and_bad(self, valid_acc_source):
        validator = TestsuiteValidator(flavor="acc")
        broken = valid_acc_source.replace("{", "", 1)
        report = validator.validate_sources(
            {"good.c": valid_acc_source, "bad.c": broken}
        )
        assert report.verdict_for("good.c").is_valid
        bad = report.verdict_for("bad.c")
        assert not bad.is_valid
        assert bad.stage == "compile"

    def test_runtime_failure_reported_at_execute_stage(self):
        source = (
            "#include <stdio.h>\n#include <stdlib.h>\n#include <openacc.h>\n"
            "int main() { double *p; p[0] = 1.0; return 0; }"
        )
        report = TestsuiteValidator(flavor="acc").validate_sources({"segv.c": source})
        judged = report.files[0]
        assert judged.stage == "execute"
        assert not judged.is_valid

    def test_summary_counts(self, valid_acc_source):
        validator = TestsuiteValidator(flavor="acc")
        report = validator.validate_sources({"a.c": valid_acc_source})
        summary = report.summary()
        assert summary["total"] == 1
        assert summary["valid"] == 1

    def test_judge_response_attached(self, valid_acc_source):
        report = TestsuiteValidator(flavor="acc").validate_sources(
            {"a.c": valid_acc_source}
        )
        judged = report.files[0]
        assert judged.stage == "judge"
        assert judged.judge_response

    def test_language_detected_from_extension(self, valid_f90_source):
        report = TestsuiteValidator(flavor="acc").validate_sources(
            {"vec.f90": valid_f90_source}
        )
        assert report.files[0].is_valid

    def test_omp_flavor(self, valid_omp_source):
        report = TestsuiteValidator(flavor="omp").validate_sources(
            {"t.c": valid_omp_source}
        )
        assert report.files[0].is_valid


class TestCLI:
    def test_validate_command(self, tmp_path, valid_acc_source, capsys):
        path = tmp_path / "good.c"
        path.write_text(valid_acc_source)
        rc = cli_main(["validate", str(path), "--flavor", "acc"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_validate_detects_invalid(self, tmp_path, valid_acc_source, capsys):
        path = tmp_path / "bad.c"
        path.write_text(valid_acc_source.replace("{", "", 1))
        rc = cli_main(["validate", str(path)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_generate_and_probe_roundtrip(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        rc = cli_main(
            ["generate", "--flavor", "omp", "--count", "6", "--out", str(corpus_dir)]
        )
        assert rc == 0
        assert (corpus_dir / "manifest.json").exists()
        probed_dir = tmp_path / "probed"
        rc = cli_main(["probe", str(corpus_dir), "--out", str(probed_dir)])
        assert rc == 0
        assert (probed_dir / "manifest.json").exists()

    def test_experiment_unknown_artifact(self, capsys):
        rc = cli_main(["experiment", "table42", "--scale", "tiny"])
        assert rc == 2

    def test_jobs_must_be_positive(self, capsys):
        """--jobs 0 is an argparse error (exit 2), not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["experiment", "table1", "--scale", "tiny", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli_main([])


class TestCacheCLI:
    def _warm(self, tmp_path, valid_acc_source) -> str:
        cache_dir = tmp_path / "cache"
        source = tmp_path / "good.c"
        source.write_text(valid_acc_source)
        assert cli_main(["validate", str(source), "--cache-dir", str(cache_dir)]) == 0
        return str(cache_dir)

    def test_stats_reports_persisted_namespaces(self, tmp_path, valid_acc_source, capsys):
        cache_dir = self._warm(tmp_path, valid_acc_source)
        capsys.readouterr()
        rc = cli_main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "compile: 1 entries" in out
        assert "execute: 1 entries" in out
        assert "judge: 1 entries" in out
        assert "fuzz: 0 entries" in out
        assert "no persisted file" not in out
        assert "total: 3 persisted entries" in out

    def test_a_repeated_validate_computes_nothing(self, tmp_path, valid_acc_source, capsys):
        good, bad = tmp_path / "good.c", tmp_path / "bad.c"
        good.write_text(valid_acc_source)
        bad.write_text(valid_acc_source.replace("{", "{ int x = ;", 1))
        args = ["validate", str(good), str(bad), "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args) == 1
        cold = capsys.readouterr().out
        assert cli_main(args) == 1
        warm = capsys.readouterr().out
        assert "cache: warm-started 4 entries" in warm
        assert "cache: 4 hits, 0 misses (compile 2/2, execute 1/1, judge 1/1," in warm

        def verdicts(out: str) -> list[str]:
            return [line for line in out.splitlines() if line.startswith("[")]

        assert verdicts(warm) == verdicts(cold) and len(verdicts(cold)) == 2

    def test_stats_flags_corruption(self, tmp_path, valid_acc_source, capsys):
        cache_dir = self._warm(tmp_path, valid_acc_source)
        (Path(cache_dir) / "judge.json").write_text("{not json")
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "judge: 0 entries" in out
        assert "(corrupt)" in out

    def test_stats_missing_dir_is_an_error(self, tmp_path, capsys):
        rc = cli_main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")])
        assert rc == 2

    def test_purge_one_namespace(self, tmp_path, valid_acc_source, capsys):
        cache_dir = self._warm(tmp_path, valid_acc_source)
        rc = cli_main(["cache", "purge", "--cache-dir", cache_dir, "--namespace", "judge"])
        assert rc == 0
        assert not (Path(cache_dir) / "judge.json").exists()
        assert (Path(cache_dir) / "execute.json").exists()

    def test_purge_everything(self, tmp_path, valid_acc_source, capsys):
        cache_dir = self._warm(tmp_path, valid_acc_source)
        assert cli_main(["cache", "purge", "--cache-dir", cache_dir]) == 0
        assert not (Path(cache_dir) / "judge.json").exists()
        assert not (Path(cache_dir) / "execute.json").exists()
        capsys.readouterr()
        assert cli_main(["cache", "purge", "--cache-dir", cache_dir]) == 0
        assert "nothing to purge" in capsys.readouterr().out


class TestClientCLI:
    def test_client_needs_files_or_stats(self, capsys):
        assert cli_main(["client"]) == 2
        assert "need source files" in capsys.readouterr().err

    def test_client_unreachable_daemon(self, tmp_path, valid_acc_source, capsys):
        source = tmp_path / "good.c"
        source.write_text(valid_acc_source)
        rc = cli_main(["client", str(source), "--port", "1"])
        assert rc == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_client_missing_source_file_is_a_usage_error(self, tmp_path, capsys):
        """A local file typo must not masquerade as a connectivity failure."""
        rc = cli_main(["client", str(tmp_path / "typo.c"), "--port", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot read source file" in err
        assert "cannot reach" not in err

    def test_cache_purge_unknown_namespace_is_a_usage_error(self, tmp_path, capsys):
        rc = cli_main(["cache", "purge", "--cache-dir", str(tmp_path), "--namespace", "nope"])
        assert rc == 2
        assert "unknown namespace" in capsys.readouterr().err
