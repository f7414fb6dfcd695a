"""A pooled validation run against its in-process spec.

``TestsuiteValidator(workers=N >= 2)`` runs each file's compile →
execute → judge chain as one task in a run-scoped
:class:`~repro.pipeline.pool.ComputePool`; ``workers=1`` calls the
chain in a loop, the in-process spec.  These tests hold the pooled run
to that spec on the 72-file probed corpus: verdict bytes, stage and
cache counts (fork and spawn, early-exit and record-all), what it
leaves in a shared cache, where its spans hang, and what a dead worker
does.  The daemon must never open the pool: it already parallelises
across processes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cache.bundle import PipelineCache
from repro.cache.keys import compile_key
from repro.compiler.driver import Compiler
from repro.core.validator import TestsuiteValidator
from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.llm.model import DeepSeekCoderSim
from repro.obs.metrics import get_metrics
from repro.obs.trace import Tracer, installed
from repro.pipeline import engine
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.pipeline.pool import ComputeWorkerCrash
from repro.probing.prober import NegativeProber
from repro.service.protocol import ValidateOptions, ValidateRequest, encode_verdict
from repro.service.server import ValidationService
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
        from repro.experiments import sharding

        expected = _run(corpus, workers=1, early_exit=early_exit, cache=PipelineCache())
        if early_exit:
            assert expected[0] == reference
        monkeypatch.setattr(sharding, "default_start_method", lambda: start_method)
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
        """The compile cache is memory-only, so a cache loaded from disk
        holds execute and judge entries without the compiles they came
        from.  A pooled run over it judges nothing again: the cached
        judgments are served here, not recomputed in a worker."""
        from repro.experiments import sharding
        from repro.judge.llmj import AgentLLMJ

        files = corpus["acc"]
        assert len(files) >= engine.MIN_POOLED_FILES
        config = PipelineConfig(flavor="acc")
        first = PipelineCache(cache_dir=tmp_path)
        expected = ValidationPipeline(config, cache=first).run(files)
        first.save()
        warm = PipelineCache(cache_dir=tmp_path)
        assert warm.load() > 0 and len(warm.compile) == 0

        def refuse(self, test, report=None):
            raise AssertionError(f"{test.name} was judged again")

        # forked workers inherit the patch
        monkeypatch.setattr(sharding, "default_start_method", lambda: "fork")
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


def refuse_pools(monkeypatch) -> list:
    """Make opening a compute pool fail the test; returns the attempts."""
    opened = []

    class Refused:
        def __init__(self, workers):
            opened.append(workers)
            raise AssertionError("a compute pool was opened")

    monkeypatch.setattr(engine, "ComputePool", Refused)
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


def _validate_cli(paths, *extra, fault=None):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    env.pop(faultinject.ENV_VAR, None)
    if fault is not None:
        env[faultinject.ENV_VAR] = fault
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "validate", *paths, *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


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
        try:
            deadline = time.monotonic() + 30
            while len(_live_processes_mentioning(str(tmp_path))) < 3:
                assert time.monotonic() < deadline, "the pool never started"
                time.sleep(0.1)
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=30)
            deadline = time.monotonic() + 10
            while _live_processes_mentioning(str(tmp_path)):
                assert time.monotonic() < deadline, "a pool worker outlived validate"
                time.sleep(0.2)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestDaemonStaysInProcess:
    """The daemon's in-process service and its pool workers never open
    a compute pool per batch."""

    @pytest.fixture()
    def no_pool(self, monkeypatch):
        return refuse_pools(monkeypatch)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_served_cold_batch_opens_no_pool(self, corpus, reference, no_pool, workers):
        files = corpus["acc"][: engine.MIN_POOLED_FILES]
        options = ValidateOptions(
            flavor="acc", judge="direct", early_exit=True, backend="closure"
        )
        # fork: the daemon's pool workers inherit the refusing ComputePool
        service = ValidationService(
            workers=workers, max_latency=0.005, worker_start_method="fork"
        )
        try:
            request = ValidateRequest(
                files=tuple((t.name, t.source) for t in files), options=options
            )
            response = service.submit(request).result(timeout=120)
            children = multiprocessing.active_children()
        finally:
            service.drain(timeout=60.0)
        assert no_pool == []
        assert len(children) == workers
        served = {
            v["name"]: json.dumps(v, sort_keys=True) for v in response["verdicts"]
        }
        assert served == {t.name: reference[t.name] for t in files}
