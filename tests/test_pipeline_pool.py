"""A pooled validation run against its in-process spec.

``TestsuiteValidator(workers=N >= 2)`` runs each file's compile →
execute → judge chain as one task in a run-scoped
:class:`~repro.pipeline.pool.ComputePool`; ``workers=1`` calls the
chain in a loop, the in-process spec.  These tests hold the pooled run
to that spec on the 72-file probed corpus: verdict bytes, stage and
cache counts (fork and spawn, early-exit and record-all), what it
leaves in a shared cache, where its spans hang, and what a dead worker
does.  The daemon must never open the pool: it already parallelises
across processes.  ``CorpusGenerator(workers=2)`` checks its rendered
files in the same pool, and ``workers=1`` is its spec.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache.bundle import PipelineCache, purge_dir
from repro.cache.keys import compile_key
from repro.compiler.driver import Compiler
from repro.core.validator import TestsuiteValidator
from repro.corpus.generator import CorpusGenerator, CorpusValidationError
from repro.corpus.suite import TestSuite
from repro.llm.model import DeepSeekCoderSim
from repro.obs.metrics import get_metrics
from repro.obs.trace import Tracer, installed
from repro.pipeline import engine, pool
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.pipeline.pool import ComputeWorkerCrash
from repro.probing.prober import NegativeProber
from repro.service.protocol import ValidateOptions, ValidateRequest, encode_verdict
from repro.service.server import MAX_BODY_BYTES, ValidationService
from repro.testing import faultinject

FLAVORS = ("acc", "omp")
REPO_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def _disarm_faults(monkeypatch):
    monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture(scope="module")
def corpus() -> dict[str, list]:
    """The 72-file probed corpus: 36 files per flavour, a third of
    them broken at compile by the prober."""
    out = {}
    for flavor in FLAVORS:
        files = CorpusGenerator(seed=11).generate(flavor, 36)
        out[flavor] = list(
            NegativeProber(seed=12).probe(TestSuite(f"{flavor}-pool", flavor, files))
        )
    return out


def _verdicts(corpus, **validator_args) -> dict[str, str]:
    verdicts = {}
    for flavor, files in corpus.items():
        report = TestsuiteValidator(flavor=flavor, **validator_args).validate(files)
        verdicts.update(
            {j.name: json.dumps(encode_verdict(j), sort_keys=True) for j in report.files}
        )
    return verdicts


@pytest.fixture(scope="module")
def reference(corpus) -> dict[str, str]:
    return _verdicts(corpus, workers=1, judge_workers=1)


def _counts(delta: dict) -> dict:
    """Stage, file and cache-lookup counts from a registry diff; the
    time-valued series (busy and simulated seconds, wall) are left out."""
    counts = {}
    for (kind, name, labels), value in delta.items():
        if kind == "histogram" and name == "pipeline_stage_seconds":
            counts[(name, labels)] = value["count"]
        elif kind == "counter" and (
            name in ("pipeline_stage_items_total", "pipeline_stage_errors_total",
                     "pipeline_stage_outcomes_total", "pipeline_files_total",
                     "cache_lookups_total")
        ):
            counts[(name, labels)] = value
    return counts


def _run(corpus, **validator_args) -> tuple[dict, dict]:
    """The verdict bytes and the stage, file and cache-lookup counts of
    one validation of ``corpus``."""
    baseline = get_metrics().export_state()
    verdicts = _verdicts(corpus, **validator_args)
    return verdicts, _counts(get_metrics().diff(baseline)[0])


class TestPooledIdentity:
    @pytest.mark.parametrize("early_exit", [True, False], ids=["early-exit", "record-all"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_verdict_bytes_and_counts_equal_the_in_process_run(
        self, corpus, reference, start_method, early_exit, monkeypatch
    ):
        expected = _run(corpus, workers=1, early_exit=early_exit, cache=PipelineCache())
        if early_exit:
            assert expected[0] == reference
        monkeypatch.setattr(pool, "default_start_method", lambda: start_method)
        pooled = _run(corpus, workers=2, early_exit=early_exit, cache=PipelineCache())
        assert pooled[0] == expected[0]
        assert pooled[1] == expected[1]
        counts = expected[1]
        assert counts[("pipeline_files_total", ())] == 72
        judged = counts[("pipeline_stage_items_total", (("stage", "judge"),))]
        assert 0 < judged < 72 if early_exit else judged == 72
        assert any(key[0] == "cache_lookups_total" for key in counts)
        assert multiprocessing.active_children() == []

    def test_uncached_pooled_run_matches_too(self, corpus, reference):
        assert _verdicts(corpus, workers=2) == reference

    def test_a_model_the_workers_cannot_rebuild_keeps_the_run_in_process(
        self, corpus, monkeypatch
    ):
        """Workers rebuild a plain simulator from its seed; any other
        model judges in this process."""

        class Contrarian(DeepSeekCoderSim):
            def generate(self, prompt: str, attempt: int = 0) -> str:
                return super().generate(prompt + " ", attempt)

        files = corpus["acc"]
        expected = _verdicts({"acc": files}, workers=1, model=Contrarian(seed=3))
        opened = refuse_pools(monkeypatch)
        assert _verdicts({"acc": files}, workers=2, model=Contrarian(seed=3)) == expected
        assert opened == []

    def test_a_pooled_run_counts_its_judgments_into_the_model(self, corpus):
        """The workers judge with rebuilt models; their calls count into
        the model the caller passed, as an in-process run's do."""
        totals = []
        for workers in (1, 2):
            model = DeepSeekCoderSim(seed=3)
            TestsuiteValidator(
                flavor="acc", workers=workers, model=model, cache=PipelineCache()
            ).validate(corpus["acc"])
            totals.append(model.stats.totals())
        calls, prompt_tokens, completion_tokens, simulated, malformed = totals[1]
        assert (calls, prompt_tokens, completion_tokens, malformed) == (
            totals[0][:3] + totals[0][4:]
        )
        assert simulated == pytest.approx(totals[0][3])
        assert calls > 0

    def test_an_in_process_run_starts_no_thread(self, corpus, reference, monkeypatch):
        def refuse(self):
            raise AssertionError(f"thread {self.name!r} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        files = corpus["acc"]
        for _ in range(2):  # cold, then warm
            verdicts = _verdicts({"acc": files}, workers=1, cache=PipelineCache())
        assert verdicts == {t.name: reference[t.name] for t in files}


class TestPooledCache:
    def test_a_pooled_fill_serves_a_later_in_process_run(self, corpus, reference):
        caches = {flavor: PipelineCache() for flavor in FLAVORS}
        for flavor, files in corpus.items():
            TestsuiteValidator(flavor=flavor, cache=caches[flavor]).validate(files)

        baseline = get_metrics().export_state()
        served = {}
        for flavor, files in corpus.items():
            report = TestsuiteValidator(
                flavor=flavor, workers=1, cache=caches[flavor]
            ).validate(files)
            served.update(
                {j.name: json.dumps(encode_verdict(j), sort_keys=True) for j in report.files}
            )
        delta = get_metrics().diff(baseline)[0]
        assert served == reference
        lookups = _lookups(delta)
        # the pooled run stored every execution and verdict it computed
        assert ("execute", "miss") not in lookups and ("judge", "miss") not in lookups
        judged = sum(1 for v in reference.values() if json.loads(v)["stage"] == "judge")
        assert lookups[("execute", "hit")] >= judged > 0
        assert lookups[("judge", "hit")] == judged

    def test_a_repeated_pooled_run_is_served_from_the_cache(
        self, corpus, reference, monkeypatch
    ):
        cache = PipelineCache()
        files = corpus["acc"]
        TestsuiteValidator(flavor="acc", cache=cache).validate(files)

        refuse_pools(monkeypatch)
        baseline = get_metrics().export_state()
        report = TestsuiteValidator(flavor="acc", cache=cache).validate(files)
        lookups = _lookups(get_metrics().diff(baseline)[0])
        assert {j.name: json.dumps(encode_verdict(j), sort_keys=True)
                for j in report.files} == {t.name: reference[t.name] for t in files}
        assert lookups[("compile", "hit")] == len(files)
        assert not any(result == "miss" for _, result in lookups)

    def test_a_cache_loaded_from_disk_computes_no_judgment(
        self, corpus, tmp_path, monkeypatch
    ):
        """A cache dir written before the compile namespace persisted
        (or whose ``compile.json`` was purged) holds execute and judge
        entries without the compiles they came from.  A pooled run over
        it judges nothing again: the cached judgments are served here,
        not recomputed in a worker."""
        from repro.judge.llmj import AgentLLMJ

        files = corpus["acc"]
        assert len(files) >= engine.MIN_POOLED_FILES
        config = PipelineConfig(flavor="acc")
        first = PipelineCache(cache_dir=tmp_path)
        expected = ValidationPipeline(config, cache=first).run(files)
        first.save()
        assert purge_dir(tmp_path, "compile") == ["compile"]
        warm = PipelineCache(cache_dir=tmp_path)
        assert warm.load() > 0 and len(warm.compile) == 0

        def refuse(self, test, report=None):
            raise AssertionError(f"{test.name} was judged again")

        # forked workers inherit the patch
        monkeypatch.setattr(pool, "default_start_method", lambda: "fork")
        monkeypatch.setattr(AgentLLMJ, "judge", refuse)
        model = DeepSeekCoderSim()
        baseline = get_metrics().export_state()
        served = ValidationPipeline(config, model=model, cache=warm).run(files, processes=2)
        lookups = _lookups(get_metrics().diff(baseline)[0])
        assert [_record_facts(r) for r in served.records] == [
            _record_facts(r) for r in expected.records
        ]
        judged = sum(1 for r in expected.records if r.judge_result is not None)
        assert lookups[("judge", "hit")] == judged > 0
        assert ("judge", "miss") not in lookups
        assert model.stats.calls == 0

    def test_a_record_all_run_over_a_disk_cache_judges_no_failed_compile_again(
        self, corpus, tmp_path, monkeypatch
    ):
        """Record-all judges every file, compile failures too.  Over a
        cache loaded from disk, a pooled run serves each judgment it
        holds here, compile failures included; only files the cache
        has never seen go to the workers."""
        from repro.judge.llmj import AgentLLMJ

        files = corpus["acc"]
        config = PipelineConfig(flavor="acc", early_exit=False)
        first = PipelineCache(cache_dir=tmp_path)
        expected = ValidationPipeline(config, cache=first).run(files)
        first.save()
        failed = {r.test.name for r in expected.records if not r.compiled}
        assert failed and all(
            r.judge_result is not None for r in expected.records
        )
        # renamed twins are new to the cache, so the run pools
        unseen = [replace(t, name=f"unseen_{t.name}") for t in files]
        assert len(failed) + len(unseen) >= engine.MIN_POOLED_FILES
        warm = PipelineCache(cache_dir=tmp_path)
        assert warm.load() > 0

        judge = AgentLLMJ.judge

        def judge_unseen_only(self, test, report=None):
            assert test.name not in failed, f"{test.name} was judged again"
            return judge(self, test, report)

        # forked workers inherit the patch
        monkeypatch.setattr(pool, "default_start_method", lambda: "fork")
        monkeypatch.setattr(AgentLLMJ, "judge", judge_unseen_only)
        baseline = get_metrics().export_state()
        served = ValidationPipeline(config, cache=warm).run(files + unseen, processes=2)
        lookups = _lookups(get_metrics().diff(baseline)[0])
        assert [_record_facts(r) for r in served.records[: len(files)]] == [
            _record_facts(r) for r in expected.records
        ]
        for namespace in ("compile", "judge"):
            assert lookups[(namespace, "hit")] == len(files)
            assert lookups[(namespace, "miss")] == len(unseen)

    def test_a_unitless_compile_entry_is_compiled_again_before_it_runs(self, corpus):
        """Compile-cache entries carry no unit.  A run under another step
        limit hits the compile cache and misses the execute cache, so it
        must compile from source and run the real program."""
        files = corpus["acc"]
        cache = PipelineCache()
        ValidationPipeline(PipelineConfig(flavor="acc"), cache=cache).run(
            files, processes=2
        )
        fingerprint = Compiler(model="acc").fingerprint()
        keys = [compile_key(fingerprint, t.name, t.source) for t in files]
        compiled = [cache.compile.peek(k) for k in keys]
        assert all(c.unit is None for c in compiled)
        assert any(c.ok for c in compiled), "the pooled fill compiled nothing"

        config = PipelineConfig(flavor="acc", step_limit=2_999_999)
        expected = ValidationPipeline(config).run(files)
        served = ValidationPipeline(config, cache=cache).run(files)
        assert [_record_facts(r) for r in served.records] == [
            _record_facts(r) for r in expected.records
        ]
        assert all(cache.compile.peek(k).unit is None for k in keys)


def _record_facts(record) -> tuple:
    return (
        record.test.name, record.compile_rc, record.run_rc, record.run_stdout,
        record.run_stderr, record.judge_says_valid,
    )


def _lookups(delta: dict) -> dict:
    return {
        (dict(labels)["namespace"], dict(labels)["result"]): value
        for (kind, name, labels), value in delta.items()
        if name == "cache_lookups_total"
    }


def refuse_pools(monkeypatch, where=engine) -> list:
    """Make opening a compute pool (as ``where`` names it) fail the
    test; returns the attempts."""
    opened = []

    class Refused:
        def __init__(self, workers, **kwargs):
            opened.append(workers)
            raise AssertionError("a compute pool was opened")

    monkeypatch.setattr(where, "ComputePool", Refused)
    return opened


class TestSmallRuns:
    def test_a_run_below_the_cutoff_stays_in_process(
        self, corpus, reference, monkeypatch
    ):
        files = corpus["acc"][: engine.MIN_POOLED_FILES - 1]
        refuse_pools(monkeypatch)
        report = TestsuiteValidator(flavor="acc").validate(files)
        assert [json.dumps(encode_verdict(j), sort_keys=True) for j in report.files] == [
            reference[t.name] for t in files
        ]

    def test_a_run_at_the_cutoff_opens_the_pool(self, corpus, monkeypatch):
        files = corpus["acc"][: engine.MIN_POOLED_FILES]
        opened = refuse_pools(monkeypatch)
        with pytest.raises(AssertionError, match="compute pool was opened"):
            TestsuiteValidator(flavor="acc", workers=4).validate(files)
        assert opened == [4]


class TestPooledTracing:
    def test_worker_spans_hang_under_the_run_span(self, corpus):
        tracer = Tracer()
        files = corpus["acc"]
        with installed(tracer):
            TestsuiteValidator(flavor="acc", cache=PipelineCache()).validate(files)
        spans = tracer.spans
        by_id = {s.span_id: s for s in spans}
        remote = [s for s in spans if s.name == "worker.pipeline"]
        assert len(remote) == len(files)
        for span in remote:
            run = by_id[span.parent_id]
            assert run.name == "scheduler.run" and run.pid == os.getpid()
            assert span.pid != os.getpid()
            assert span.trace_id == run.trace_id
            assert run.start <= span.start <= span.end <= run.end
        # each file's stage spans hang under its worker's span
        stages = [s for s in spans if s.name.startswith("stage.")]
        assert {s.name for s in stages} == {"stage.compile", "stage.execute", "stage.judge"}
        for span in stages:
            worker = by_id[span.parent_id]
            assert worker.name == "worker.pipeline"
            assert worker.attrs["file"] == span.attrs["file"]


class TestPooledSharedOutcomes:
    def test_twin_files_under_contention_absorb_each_outcome_once(self, corpus):
        """A run where every file appears twice: the pool computes each
        outcome once, its telemetry is absorbed once, and each twin's
        chain runs here after it."""
        files = corpus["acc"][: engine.MIN_POOLED_FILES] * 2
        expected = TestsuiteValidator(flavor="acc", workers=1).validate(files)
        tracer = Tracer()
        with installed(tracer):
            pooled = TestsuiteValidator(flavor="acc", workers=4).validate(files)
        assert [encode_verdict(j) for j in pooled.files] == [
            encode_verdict(j) for j in expected.files
        ]
        remote = [s for s in tracer.spans if s.name == "worker.pipeline"]
        assert len(remote) == engine.MIN_POOLED_FILES
        assert multiprocessing.active_children() == []


class TestPooledCrash:
    def test_killed_worker_raises_a_typed_error_naming_the_file(
        self, corpus, monkeypatch
    ):
        monkeypatch.setenv(faultinject.ENV_VAR, "pipeline:worker-compute@2=kill")
        files = corpus["acc"]
        raised = []

        def crashing_run() -> None:
            try:
                TestsuiteValidator(flavor="acc").validate(files)
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        runner = threading.Thread(target=crashing_run, daemon=True)
        started = time.monotonic()
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the run hung on a dead worker"
        assert time.monotonic() - started < 30
        assert len(raised) == 1 and isinstance(raised[0], ComputeWorkerCrash), raised
        message = str(raised[0])
        assert "pipeline worker process died while computing file '" in message
        assert any(f"'{test.name}'" in message for test in files)
        assert multiprocessing.active_children() == []


def _live_processes_mentioning(needle: str) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle.encode() in cmdline and state != "Z":
            pids.append(int(entry.name))
    return pids


def _write_sources(corpus, directory: Path) -> list[str]:
    directory.mkdir()
    paths = []
    for test in corpus["acc"][: engine.MIN_POOLED_FILES]:
        path = directory / test.name
        path.write_text(test.source)
        paths.append(str(path))
    return paths


def _cli(*args, fault=None):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    env.pop(faultinject.ENV_VAR, None)
    if fault is not None:
        env[faultinject.ENV_VAR] = fault
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _validate_cli(paths, *extra, fault=None):
    return _cli("validate", *paths, *extra, fault=fault)


def _assert_sigkill_leaves_no_worker(proc, needle: str) -> None:
    """SIGKILL ``proc`` once its pool's two workers run (their command
    lines mention ``needle``), then wait for every one of them to go."""
    try:
        deadline = time.monotonic() + 30
        while len(_live_processes_mentioning(needle)) < 3:
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.1)
        proc.send_signal(signal.SIGKILL)
        proc.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while _live_processes_mentioning(needle):
            assert time.monotonic() < deadline, "a pool worker outlived its parent"
            time.sleep(0.2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


class TestValidateCLIPool:
    def test_pooled_output_equals_in_process_output(self, corpus, tmp_path):
        paths = _write_sources(corpus, tmp_path / "src")
        outputs = []
        for workers in ("1", "2"):
            proc = _validate_cli(paths, "--workers", workers)
            out, err = proc.communicate(timeout=120)
            assert proc.returncode in (0, 1), err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_killed_worker_exits_nonzero_with_the_message(self, corpus, tmp_path):
        paths = _write_sources(corpus, tmp_path / "src")
        proc = _validate_cli(
            paths, "--workers", "2", fault="pipeline:worker-compute@2=kill"
        )
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3, err
        assert "validate: a pipeline worker process died while computing file '" in err
        time.sleep(1.0)
        assert not _live_processes_mentioning(str(tmp_path))

    def test_sigkilled_pooled_validate_leaves_no_worker(self, corpus, tmp_path):
        paths = _write_sources(corpus, tmp_path / "src")
        # workers stall at their first file, so the run is provably
        # mid-pool when the parent dies
        proc = _validate_cli(
            paths, "--workers", "2", fault="pipeline:worker-compute=sleep:60"
        )
        _assert_sigkill_leaves_no_worker(proc, str(tmp_path))


def _generate(workers: int, model: str, count: int, **generator_args) -> tuple:
    """One generation's files by name and source (or the error it
    raised), its recorded failures, and the registry's growth."""
    generator = CorpusGenerator(seed=11, workers=workers, **generator_args)
    baseline = get_metrics().export_state()
    try:
        files = [(t.name, t.source) for t in generator.generate(model, count)]
    except CorpusValidationError as exc:
        files = str(exc)
    return files, generator.validation_failures, get_metrics().diff(baseline)[0]


def count_pools(monkeypatch) -> list:
    """Record the size of every compute pool the generator opens."""
    opened = []

    class Counted(pool.ComputePool):
        def __init__(self, workers, **kwargs):
            opened.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(pool, "ComputePool", Counted)
    return opened


class TestPooledGeneration:
    """``CorpusGenerator(workers=2)`` renders every file first, checks
    them in a compute pool and keeps them up to the first failure; the
    rest run in-process.  The corpus, the failures and the counts equal
    ``workers=1``'s."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "model, count, step_limit",
        [("acc", 36, None), ("omp", 36, None), ("acc", 36, 20_000), ("acc", 30, 10)],
        ids=["acc", "omp", "acc-failing-checks", "acc-every-check-failing"],
    )
    def test_pooled_corpus_equals_the_in_process_corpus(
        self, model, count, step_limit, start_method, monkeypatch
    ):
        limit = {} if step_limit is None else {"step_limit": step_limit}
        expected = _generate(1, model, count, **limit)
        monkeypatch.setattr(pool, "default_start_method", lambda: start_method)
        opened = count_pools(monkeypatch)
        assert _generate(2, model, count, **limit) == expected
        assert opened == [2]
        assert multiprocessing.active_children() == []
        files, failures, _ = expected
        if step_limit == 20_000:
            # the very first file fails: the whole corpus runs in-process
            assert len(failures) == 5
            assert failures[0].startswith(f"{model}_") and "_0000." in failures[0]
        elif step_limit == 10:
            assert files.startswith(f"too many validation failures generating {model}")
        else:
            assert len(files) == count and failures == []

    def test_a_small_or_cached_generation_starts_no_child(self, monkeypatch):
        small = engine.MIN_POOLED_FILES - 1
        expected = [
            CorpusGenerator(seed=11, workers=1).generate("acc", count)
            for count in (small, 36)
        ]
        refuse_pools(monkeypatch, where=pool)
        assert CorpusGenerator(seed=11).generate("acc", small) == expected[0]
        cached = CorpusGenerator(seed=11, cache=PipelineCache())
        assert cached.generate("acc", 36) == expected[1]
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises_a_typed_error_naming_the_file(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "corpus:worker-compute@2=kill")
        names = [t.name for t in CorpusGenerator(seed=11, workers=1).generate("acc", 36)]
        with pytest.raises(ComputeWorkerCrash) as raised:
            CorpusGenerator(seed=11).generate("acc", 36)
        message = str(raised.value)
        assert "corpus worker process died while computing file '" in message
        assert any(f"'{name}'" in message for name in names)
        assert multiprocessing.active_children() == []


class TestGenerateCLIPool:
    def test_pooled_generate_writes_the_in_process_corpus(self, tmp_path):
        proc = _cli("generate", "--flavor", "omp", "--count", "30", "--out", str(tmp_path))
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        expected = CorpusGenerator(seed=1234, workers=1).generate("omp", 30)
        written = {p.name: p.read_text() for p in tmp_path.iterdir()}
        written.pop("manifest.json")
        assert written == {t.name: t.source for t in expected}

    def test_killed_worker_exits_3_with_the_message(self, tmp_path):
        proc = _cli(
            "generate", "--count", "30", "--out", str(tmp_path / "gen"),
            fault="corpus:worker-compute@2=kill",
        )
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3, err
        assert "generate: a corpus worker process died while computing file '" in err
        time.sleep(1.0)
        assert not _live_processes_mentioning(str(tmp_path))

    def test_sigkilled_pooled_generate_leaves_no_worker(self, tmp_path):
        proc = _cli(
            "generate", "--count", "30", "--out", str(tmp_path / "gen"),
            fault="corpus:worker-compute=sleep:60",
        )
        _assert_sigkill_leaves_no_worker(proc, str(tmp_path))


class TestExperimentCLIPool:
    def test_killed_shard_exits_3_with_the_message(self, tmp_path):
        proc = _cli(
            "experiment", "table3", "--scale", "tiny", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            fault="experiment:worker-compute@1=kill",
        )
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 3, err
        assert "experiment: a shard worker process died while computing cell '" in err
        time.sleep(1.0)
        assert not _live_processes_mentioning(str(tmp_path))

    def test_sigkilled_sharded_experiment_leaves_no_worker(self, tmp_path):
        proc = _cli(
            "experiment", "table3", "--scale", "tiny", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            fault="experiment:worker-compute=sleep:60",
        )
        _assert_sigkill_leaves_no_worker(proc, str(tmp_path))


class TestDaemonPool:
    """The daemon opens one compute pool at start (``workers >= 1``)
    and none per batch: neither its in-process path nor its pool
    workers open one."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_served_cold_batch_opens_no_pool(self, corpus, reference, monkeypatch, workers):
        files = corpus["acc"][: engine.MIN_POOLED_FILES]
        options = ValidateOptions(
            flavor="acc", judge="direct", early_exit=True, backend="closure"
        )
        # fork: the daemon's pool workers inherit the refusing engine pool
        monkeypatch.setattr(pool, "default_start_method", lambda: "fork")
        refused = refuse_pools(monkeypatch)
        opened = count_pools(monkeypatch)
        service = ValidationService(workers=workers, max_latency=0.005)
        try:
            assert opened == ([workers] if workers else [])
            request = ValidateRequest(
                files=tuple((t.name, t.source) for t in files), options=options
            )
            response = service.submit(request).result(timeout=120)
            children = multiprocessing.active_children()
        finally:
            service.drain(timeout=60.0)
        assert refused == []
        assert opened == ([workers] if workers else [])
        assert len(children) == workers
        served = {
            v["name"]: json.dumps(v, sort_keys=True) for v in response["verdicts"]
        }
        assert served == {t.name: reference[t.name] for t in files}

    def test_sigkilled_pooled_daemon_leaves_no_worker(self, tmp_path):
        proc = _cli(
            "serve", "--port", "0", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
        )
        _assert_sigkill_leaves_no_worker(proc, str(tmp_path))


def _raw_exchange(port: int, data: bytes, close_write: bool = False) -> tuple[int, dict]:
    """Send ``data`` as is; the response's status and JSON body."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        conn.sendall(data)
        if close_write:
            conn.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := conn.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post(path: str, body: bytes, length: int | None = None, method: str = "POST") -> bytes:
    length = len(body) if length is None else length
    return (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


class TestDaemonProtocolFuzz:
    """Malformed traffic against a ``serve --workers 2`` daemon: each
    case gets a typed 4xx (a JSON error body), never a 500; the SIGTERM
    drain still ends within its bound, and no pool worker outlives the
    daemon."""

    CASES = {
        "malformed JSON": (_post("/v1/validate", b'{"files": {"a.c": '), 400),
        "invalid UTF-8": (_post("/v1/validate", b'{"files": "\xff\xfe"}'), 400),
        "a list body": (_post("/v1/validate", b"[1, 2]"), 400),
        "wrong field types": (_post("/v1/validate", b'{"files": 5}'), 400),
        "bad options": (
            _post("/v1/validate", b'{"files": {"a.c": "x"}, "options": {"flavor": 3}}'),
            400,
        ),
        "a judge body without a name": (_post("/v1/judge", b'{"source": "x"}'), 400),
        "a non-integer Content-Length": (
            b"POST /v1/validate HTTP/1.1\r\nHost: x\r\nContent-Length: ten\r\n\r\n", 400,
        ),
        "a negative Content-Length": (_post("/v1/validate", b"", length=-5), 400),
        "an oversized Content-Length": (
            _post("/v1/validate", b"{}", length=MAX_BODY_BYTES + 1), 413,
        ),
        "a bad method": (_post("/v1/validate", b"{}", method="PUT"), 405),
        "another bad method": (_post("/v1/stats", b"", method="DELETE"), 405),
        "a bad path": (_post("/v1/nope", b"{}"), 404),
        "a bad GET path": (b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", 404),
        "a garbage request line": (b"GET /a b HTTP/1.1\r\nHost: x\r\n\r\n", 400),
    }

    def test_malformed_requests_get_typed_4xx_and_the_drain_ends(self, tmp_path):
        proc = _cli(
            "serve", "--port", "0", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
        )
        try:
            line = proc.stdout.readline()
            port = int(line.split("http://", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
            answers = {
                case: _raw_exchange(port, data)
                for case, (data, _) in self.CASES.items()
            }
            # a truncated body: the client closes its half mid-body
            answers["a truncated body"] = _raw_exchange(
                port, _post("/v1/validate", b'{"files": {', length=100),
                close_write=True,
            )
            # a stalled body: the client goes silent mid-body
            answers["a stalled body"] = _raw_exchange(
                port, _post("/v1/validate", b'{"files": {', length=100)
            )
            expected = {case: status for case, (_, status) in self.CASES.items()}
            expected["a truncated body"] = 400
            expected["a stalled body"] = 408
            assert {case: status for case, (status, _) in answers.items()} == expected
            assert all(isinstance(body.get("error"), str) for _, body in answers.values())
            # the daemon still serves
            status, body = _raw_exchange(
                port, b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            assert status == 200 and body["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
            assert proc.returncode == 0
            deadline = time.monotonic() + 10
            while _live_processes_mentioning(str(tmp_path)):
                assert time.monotonic() < deadline, "a pool worker outlived the daemon"
                time.sleep(0.2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
