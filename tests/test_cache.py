"""Unit tests for the content-addressed result cache layer."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache.bundle import NAMESPACE_NAMES, PipelineCache, lookup_counts
from repro.cache.keys import compile_key, content_key, execute_key, judge_key
from repro.cache.store import Codec, ResultCache
from repro.cache.wrappers import CachingAgentJudge, CachingDirectJudge
from repro.compiler.driver import Compiler
from repro.corpus.generator import TestFile
from repro.judge.llmj import AgentLLMJ, DirectLLMJ, JudgeResult
from repro.llm.model import DeepSeekCoderSim
from repro.obs.metrics import get_metrics
from repro.pipeline.engine import (
    PipelineConfig, ValidationPipeline, cached, compile_file, execute_file,
)
from repro.runtime.executor import Executor


class TestKeys:
    def test_key_is_stable_across_calls(self):
        assert content_key("a", 1, {"x": [1, 2]}) == content_key("a", 1, {"x": [1, 2]})

    def test_key_depends_on_every_part(self):
        base = compile_key("compiler:acc:4.5", "t.c", "int main(){}")
        assert base != compile_key("compiler:omp:4.5", "t.c", "int main(){}")
        assert base != compile_key("compiler:acc:4.5", "u.c", "int main(){}")
        assert base != compile_key("compiler:acc:4.5", "t.c", "int main(){return 1;}")

    def test_part_boundaries_matter(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_key_stability_across_processes(self):
        """Pinned digest: a changed key function silently invalidates
        every persisted cache, so changes must be deliberate."""
        assert content_key("probe") == (
            "f8e0e5e2245d89d2f43dae922948ee25696b4f000edb168cf3eea4bd11d6f782"
        )

    def test_stage_keys_are_pinned(self):
        """Pinned digests of every stage key: a cache dir saved before a
        change to the key functions must still hit after it."""
        source = "#include <openacc.h>\nint main() { /* caf\u00e9 */ return 0; }\n"
        compiled = compile_key("compiler:acc:4.5", "test_a.c", source)
        report = [0, "", "", 0, "", "PASSED\n", ["W001", "W002"]]
        assert compiled == (
            "c44be886d281abed542b1635f20c9581b681be5a5613464c535f9f569f2b0241"
        )
        assert execute_key(compiled, 3_000_000) == (
            "5f4c147419fd08d43f0cd24e7b77cf05fcc46e7f6976a9bc681ea50821d8438a"
        )
        assert judge_key("agent:indirect:20240822", "test_a.c", source, report) == (
            "fa6bdb0de9e688217e7a16eb683cf0838da9b36b3fa1cf0211a5dc5c8d64b5d8"
        )
        assert judge_key("direct:acc:20240822", "test_a.c", source, None) == (
            "1f3095ec895dd3076fc2ed7586c4c3bc569c1ca8c3a4764c38b8090c9ae39184"
        )

    def test_unsupported_part_types_raise(self):
        with pytest.raises(TypeError):
            content_key(object())

    def test_execute_and_judge_keys_namespaced(self):
        assert execute_key("deadbeef", 100) != content_key("deadbeef", 100)
        assert judge_key("f", "t.c", "src", None) != content_key("f", "t.c", "src", None)


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache("t")
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.snapshot() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_lru_eviction_order(self):
        cache = ResultCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a'; 'b' becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_get_or_compute(self):
        cache = ResultCache("t")
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1

    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            ResultCache("t", max_entries=0)

    def test_lookup_counts_read_every_lookup_from_the_registry(self):
        baseline = get_metrics().export_state()
        cache = ResultCache("judge")
        cache.get("k")
        cache.put("k", 1)
        cache.get("k")
        cache.get("k")
        counts = lookup_counts(get_metrics().diff(baseline)[0])
        assert set(counts) == set(NAMESPACE_NAMES)
        assert counts["judge"] == {"hits": 2, "misses": 1}
        assert counts["compile"] == {"hits": 0, "misses": 0}

    def test_corrupt_disk_file_is_cold_start(self, tmp_path):
        cache = PipelineCache(cache_dir=tmp_path)
        (tmp_path / "judge.json").write_text("{not json")
        assert cache.load() == 0


class TestCompileCache:
    def test_hit_returns_the_stored_entry_without_its_unit(self, valid_acc_source):
        cache = PipelineCache()
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        first = compile_file(Compiler("acc"), test, cached(cache))
        second = compile_file(Compiler("acc"), test, cached(cache))
        assert first.unit is not None and second.unit is None
        assert second == replace(first, unit=None, info=None)
        assert cache.compile.hits == 1 and cache.compile.misses == 1

    def test_different_filename_misses(self, valid_acc_source):
        cache = PipelineCache()
        for name in ("t.c", "u.c"):
            test = TestFile(name, "c", "acc", valid_acc_source, "x")
            compile_file(Compiler("acc"), test, cached(cache))
        assert cache.compile.misses == 2


class TestExecuteCache:
    def test_hit_skips_reinterpretation(self, valid_acc_source):
        cache = PipelineCache()
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        compiler, executor = Compiler("acc"), Executor(step_limit=2_000_000)
        compiled = compile_file(compiler, test, cached(cache))
        first = execute_file(compiler, executor, test, compiled, cached(cache))
        second = execute_file(compiler, executor, test, compiled, cached(cache))
        assert first.returncode == 0
        assert first is second
        assert cache.execute.hits == 1

    def test_uncachable_result_executes_without_store(self, valid_acc_source):
        cache = PipelineCache()
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        compiled = Compiler("acc").compile(valid_acc_source, "t.c")
        compiled.content_key = ""  # e.g. hand-built results in tests
        executor = Executor(step_limit=2_000_000)
        executed = execute_file(Compiler("acc"), executor, test, compiled, cached(cache))
        assert executed.returncode == 0
        assert len(cache.execute) == 0
        assert cache.execute.hits == cache.execute.misses == 0

    def test_a_cached_compile_is_compiled_from_source_before_it_runs(
        self, valid_acc_source
    ):
        """The rule: on an execute-cache miss, a compile the cache served
        (without its unit) is compiled again from source."""
        cache = PipelineCache()
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        compiler = Compiler("acc")
        compile_file(compiler, test, cached(cache))
        served = compile_file(compiler, test, cached(cache))
        assert served.unit is None
        executed = execute_file(
            compiler, Executor(step_limit=2_000_000), test, served, cached(cache)
        )
        assert executed == Executor(step_limit=2_000_000).run(
            compiler.compile(valid_acc_source, "t.c")
        )
        assert cache.execute.misses == 1


class TestCachingJudges:
    def test_direct_judge_hits_for_same_test(self, valid_acc_source, model):
        store = ResultCache("judge")
        judge = CachingDirectJudge(DirectLLMJ(model, "acc"), store)
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        first = judge.judge(test)
        second = judge.judge(test)
        assert first is second
        assert first.says_valid == second.says_valid
        assert store.hits == 1

    def test_agent_judge_key_covers_tool_report(self, valid_acc_source, model):
        from repro.judge.agent import ToolReport

        store = ResultCache("judge")
        judge = CachingAgentJudge(AgentLLMJ(model, "acc", kind="indirect"), store)
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        clean = ToolReport(0, "", "", 0, "", "PASSED", ())
        failed = ToolReport(1, "error: nope", "", None, None, None, ("syntax",))
        judge.judge(test, clean)
        judge.judge(test, failed)
        assert store.misses == 2  # different evidence, different key
        judge.judge(test, clean)
        assert store.hits == 1


class TestPersistence:
    def test_judge_result_json_roundtrip(self, valid_acc_source, model):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        result = DirectLLMJ(model, "acc").judge(test)
        restored = JudgeResult.from_json(json.loads(json.dumps(result.to_json())))
        assert restored == result

    def test_warm_start_from_disk(self, tmp_path, valid_acc_source, model):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")

        first = PipelineCache(cache_dir=tmp_path)
        judge = CachingDirectJudge(DirectLLMJ(model, "acc"), first.judge)
        verdict = judge.judge(test)
        compiled = Compiler("acc").compile(valid_acc_source, "t.c")
        execute_file(Compiler("acc"), Executor(), test, compiled, cached(first))
        first.save()
        assert (tmp_path / "judge.json").exists()
        assert (tmp_path / "execute.json").exists()

        second = PipelineCache(cache_dir=tmp_path)
        assert second.load() == 2
        rejudge = CachingDirectJudge(DirectLLMJ(model, "acc"), second.judge)
        assert rejudge.judge(test) == verdict
        assert second.judge.hits == 1

    def test_compile_namespace_round_trips_without_units(
        self, tmp_path, valid_acc_source
    ):
        cache = PipelineCache(cache_dir=tmp_path)
        sources = {
            "good.c": valid_acc_source,
            "bad.c": valid_acc_source.replace("{", "{ int x = ;", 1),
        }
        for name, source in sources.items():
            compile_file(Compiler("acc"), TestFile(name, "c", "acc", source, "x"),
                         cached(cache))
        cache.save()
        assert len(json.loads((tmp_path / "compile.json").read_text())) == 2

        warm = PipelineCache(cache_dir=tmp_path)
        assert warm.load() == 2
        fingerprint = Compiler("acc").fingerprint()
        keys = [compile_key(fingerprint, name, source) for name, source in sources.items()]
        held = [warm.compile.peek(key) for key in keys]
        assert held == [cache.compile.peek(key) for key in keys]
        assert all(c.unit is None and c.info is None for c in held)
        good, bad = held
        assert good.ok and not bad.ok and bad.diagnostic_codes and bad.stderr

        # a hit from the loaded cache is the unit-less result a fresh
        # compile stores
        for name, source in sources.items():
            test = TestFile(name, "c", "acc", source, "x")
            fresh = Compiler("acc").compile(source, name)
            assert compile_file(Compiler("acc"), test, cached(warm)) == replace(
                fresh, unit=None, info=None
            )
        assert warm.compile.hits == 2 and warm.compile.misses == 0


_PLAIN_CODEC = Codec(encode=lambda value: value, decode=lambda value: value)

# Worker for the concurrent-save test: fill a namespace with tagged
# entries, then hammer save_to() so two processes' merge windows
# interleave.  Run as `python -c SCRIPT tag dir rounds`.
_WRITER_SCRIPT = """
import sys
from repro.cache.store import Codec, ResultCache

tag, directory, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache("judge", codec=Codec(lambda v: v, lambda v: v))
for i in range(50):
    cache.put(f"{tag}:{i}", {"tag": tag, "i": i})
for _ in range(rounds):
    assert cache.save_to(directory) is not None
"""


class TestConcurrentProcesses:
    """Shard-safety of the on-disk namespaces (the PR-3 sharding layer
    has worker processes saving to one shared cache directory)."""

    def _writer_env(self):
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sequential_saves_merge_instead_of_clobbering(self, tmp_path):
        first = ResultCache("judge", codec=_PLAIN_CODEC)
        first.put("a", 1)
        first.save_to(tmp_path)
        second = ResultCache("judge", codec=_PLAIN_CODEC)
        second.put("b", 2)
        second.save_to(tmp_path)

        merged = ResultCache("judge", codec=_PLAIN_CODEC)
        assert merged.load_from(tmp_path) == 2
        assert merged.get("a") == 1 and merged.get("b") == 2

    def test_in_memory_value_wins_on_key_overlap(self, tmp_path):
        stale = ResultCache("judge", codec=_PLAIN_CODEC)
        stale.put("k", "old")
        stale.save_to(tmp_path)
        fresh = ResultCache("judge", codec=_PLAIN_CODEC)
        fresh.put("k", "new")
        fresh.save_to(tmp_path)
        reread = ResultCache("judge", codec=_PLAIN_CODEC)
        reread.load_from(tmp_path)
        assert reread.get("k") == "new"

    def test_merged_file_honours_max_entries(self, tmp_path):
        big = ResultCache("judge", codec=_PLAIN_CODEC)
        for i in range(5):
            big.put(f"old:{i}", i)
        big.save_to(tmp_path)

        bounded = ResultCache("judge", max_entries=3, codec=_PLAIN_CODEC)
        bounded.put("new", 99)
        bounded.save_to(tmp_path)

        payload = json.loads((tmp_path / "judge.json").read_text())
        assert len(payload) == 3  # capped, not 6
        assert payload["new"] == 99  # this process's entries survive

    def test_merge_survives_corrupt_disk_payload(self, tmp_path):
        (tmp_path / "judge.json").write_text("{definitely not json")
        cache = ResultCache("judge", codec=_PLAIN_CODEC)
        cache.put("a", 1)
        assert cache.save_to(tmp_path) is not None
        reread = ResultCache("judge", codec=_PLAIN_CODEC)
        assert reread.load_from(tmp_path) == 1

    def test_two_processes_write_same_namespace_losslessly(self, tmp_path):
        """Two live processes repeatedly saving the same namespace must
        not lose or corrupt entries (flock + merge-on-save + atomic
        rename)."""
        env = self._writer_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, tag, str(tmp_path), "25"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for tag in ("left", "right")
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()

        merged = ResultCache("judge", codec=_PLAIN_CODEC)
        assert merged.load_from(tmp_path) == 100
        for tag in ("left", "right"):
            for i in range(50):
                assert merged.get(f"{tag}:{i}") == {"tag": tag, "i": i}


class TestPipelineEquivalence:
    def _run(self, files, cache):
        pipeline = ValidationPipeline(
            PipelineConfig(flavor="acc", early_exit=False),
            model=DeepSeekCoderSim(seed=4242),
            cache=cache,
        )
        return pipeline.run(files)

    def test_records_identical_with_and_without_cache(self, acc_probed):
        files = list(acc_probed)[:12]
        uncached = self._run(files, cache=None)
        cache = PipelineCache()
        cold = self._run(files, cache=cache)
        warm = self._run(files, cache=cache)
        assert cache.hits > 0
        for a, b, c in zip(uncached.records, cold.records, warm.records):
            for name, other in (("cold", b), ("warm", c)):
                assert a.test.name == other.test.name, name
                assert a.compile_rc == other.compile_rc, name
                assert a.compile_stderr == other.compile_stderr, name
                assert a.run_rc == other.run_rc, name
                assert a.run_stdout == other.run_stdout, name
                assert a.judge_result == other.judge_result, name
                assert a.pipeline_says_valid == other.pipeline_says_valid, name

    def test_warm_pipeline_skips_judge_generation(self, acc_probed):
        files = list(acc_probed)[:8]
        cache = PipelineCache()
        self._run(files, cache)
        before = cache.judge.hits
        self._run(files, cache)
        assert cache.judge.hits >= before + len(files)
