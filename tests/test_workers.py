"""The daemon's validation workers: a compute pool behind the service.

Everything here drives :class:`~repro.service.server.ValidationService`
with ``workers=N`` — one :class:`~repro.pipeline.pool.ComputePool`, one
:func:`~repro.service.workers.batch_task` per micro-batch — with *real*
worker processes, fork and spawn both, because the failure modes under
test (a SIGKILLed worker mid-batch or idle, a wedged worker at drain,
inherited fault-injection state) only exist across a process boundary.
Worker-side faults are armed through ``REPRO_FAULT_POINTS`` in the
environment: the parent's programmatic ``install()`` state never
reaches a worker, which re-reads the environment when it starts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import TestsuiteValidator
from repro.pipeline import pool
from repro.pipeline.pool import ComputeWorkerCrash
from repro.service.batching import BatcherClosed
from repro.service.protocol import ValidateOptions, ValidateRequest
from repro.service.server import ValidationService
from repro.service.workers import execute_batch
from repro.testing import faultinject

OPTIONS = ValidateOptions(flavor="acc", judge="direct", early_exit=True, backend="closure")


@pytest.fixture(autouse=True)
def _disarm_faults(monkeypatch):
    """Parent-side fault state must never leak between tests — and the
    env var must start absent so only tests that set it arm workers."""
    monkeypatch.delenv(faultinject.ENV_VAR, raising=False)
    faultinject.clear()
    yield
    faultinject.clear()


def _request(name: str, source: str) -> tuple[tuple[str, str], ...]:
    return ((name, source),)


def _validator_factory():
    validators = {}

    def validator_for(options):
        if options not in validators:
            validators[options] = TestsuiteValidator(
                flavor=options.flavor,
                judge_kind=options.judge,
                early_exit=options.early_exit,
                execution_backend=options.backend,
            )
        return validators[options]

    return validator_for


def _verdicts(responses) -> list[list[str]]:
    return [[v["verdict"] for v in r["verdicts"]] for r in responses]


def _service_validate(service: ValidationService, sources: dict[str, str]) -> dict:
    request = ValidateRequest(files=tuple(sources.items()), options=OPTIONS)
    return service.submit(request).result(timeout=120)


def _workers(service: ValidationService) -> dict:
    return service.stats_snapshot()["service"]["workers"]


def _counts(snap: dict) -> tuple[dict, dict]:
    """A ``/v1/stats`` snapshot's pipeline counts, and its cache hits,
    misses and entries by namespace."""
    pipeline = {
        name: {k: stage[k] for k in ("processed", "passed", "failed", "skipped")}
        for name, stage in snap["pipeline"]["stages"].items()
    }
    pipeline["files_total"] = snap["pipeline"]["files_total"]
    cache = {
        name: (ns["hits"], ns["misses"], ns["entries"])
        for name, ns in snap["cache"]["namespaces"].items()
    }
    cache["total"] = (snap["cache"]["hits"], snap["cache"]["misses"])
    return pipeline, cache


# ----------------------------------------------------------------------
# the batch task and its in-process spec
# ----------------------------------------------------------------------


class TestBatchExecution:
    def test_name_collisions_split_into_chunks(self, valid_acc_source):
        """Two requests reusing a file name cannot share a pipeline run;
        the batch splits and each request still gets its own verdict."""
        requests = [
            _request("same.c", valid_acc_source),
            _request("same.c", valid_acc_source + "\nint broken( {\n"),
        ]
        responses = execute_batch(_validator_factory(), OPTIONS, requests)
        assert _verdicts(responses) == [["valid"], ["invalid"]]
        assert [r["batch"]["chunk"] for r in responses] == [1, 1]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_served_verdicts_equal_in_process_execution(
        self, start_method, valid_acc_source, monkeypatch
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        monkeypatch.setattr(pool, "default_start_method", lambda: start_method)
        sources = {
            "good.c": valid_acc_source,
            "bad.c": valid_acc_source + "\nint broken( {\n",
        }
        control = execute_batch(
            _validator_factory(), OPTIONS, [tuple(sources.items())]
        )
        service = ValidationService(workers=1, max_latency=0.005)
        try:
            pooled = _service_validate(service, sources)
        finally:
            service.drain(timeout=30.0)
        assert json.dumps(pooled["verdicts"], sort_keys=True) == json.dumps(
            control[0]["verdicts"], sort_keys=True
        )
        assert pooled["summary"] == control[0]["summary"]


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class TestPoolLifecycle:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_open_serve_drain(self, start_method, valid_acc_source, monkeypatch):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        monkeypatch.setattr(pool, "default_start_method", lambda: start_method)
        service = ValidationService(workers=2, max_latency=0.005)
        try:
            assert _workers(service)["configured"] == 2
            assert _workers(service)["alive"] == 2
            response = _service_validate(service, {"good.c": valid_acc_source})
            assert _verdicts([response]) == [["valid"]]
            assert _workers(service)["batches_dispatched"] == 1
            backends = service.stats_snapshot()["service"]["backends"]
            assert backends["active"] == ["closure"]
        finally:
            assert service.drain(timeout=30.0)
        assert _workers(service)["alive"] == 0
        assert multiprocessing.active_children() == []
        with pytest.raises(BatcherClosed):
            service.submit(ValidateRequest(files=_request("late.c", valid_acc_source)))

    def test_drain_terminates_a_wedged_worker(self, monkeypatch, valid_acc_source):
        """A worker stuck in a batch cannot finish it; a bounded drain
        must terminate it instead of waiting out the stall, and the
        wedged request fails with the typed crash instead of hanging —
        also under the CLI's SIGTERM handler, which a forked worker
        would otherwise inherit."""
        from repro.cli import _graceful_sigterm

        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=sleep:30")
        with _graceful_sigterm():
            service = ValidationService(workers=1, max_latency=0.005)
            future = service.submit(
                ValidateRequest(files=_request("a.c", valid_acc_source), options=OPTIONS)
            )
            time.sleep(0.5)  # the batch is in the worker, stalled
            t0 = time.monotonic()
            assert not service.drain(timeout=0.5)  # the batch never finished
            assert time.monotonic() - t0 < 10.0
            with pytest.raises(ComputeWorkerCrash):
                future.result(timeout=10.0)
        assert service.pool.alive == 0
        assert multiprocessing.active_children() == []

    def test_drain_spends_its_timeout_once(self, monkeypatch, valid_acc_source):
        """One deadline bounds the whole drain: the batcher's wait and
        the pool's close share it instead of each spending it anew."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=sleep:30")
        service = ValidationService(workers=1)
        future = service.submit(
            ValidateRequest(files=_request("a.c", valid_acc_source), options=OPTIONS)
        )
        time.sleep(0.5)  # the batch is in the worker, stalled
        t0 = time.monotonic()
        assert not service.drain(timeout=0.5)
        assert time.monotonic() - t0 < 0.5 + 0.4
        with pytest.raises(ComputeWorkerCrash):
            future.result(timeout=10.0)
        assert service.pool.alive == 0
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# crash tolerance
# ----------------------------------------------------------------------


class TestCrashTolerance:
    def test_kill_mid_batch_retries_on_a_reopened_pool(
        self, monkeypatch, valid_acc_source
    ):
        """The canonical failure: SIGKILL after the batch executed but
        before its result was sent.  The service must see the death,
        reopen the pool, resubmit once, and return verdicts identical
        to an undisturbed in-process run — counting one restart and one
        retry.  The lost attempt's lookups never reach the cache and the
        retry's count once, so ``/v1/stats`` pipeline and cache counts
        equal the undisturbed run's too."""
        from repro.cache.bundle import PipelineCache

        def serve(workers: int) -> tuple[list, dict, tuple]:
            service = ValidationService(
                cache=PipelineCache(), workers=workers, max_latency=0.005
            )
            try:
                first = _service_validate(service, {"a.c": valid_acc_source})
                assert _verdicts([first]) == [["valid"]]
                second = _service_validate(service, {"b.c": valid_acc_source})
                snap = service.stats_snapshot()
            finally:
                service.drain(timeout=30.0)
            return second["verdicts"], snap["service"]["workers"], _counts(snap)

        control = serve(0)
        # the worker's second batch dies at worker:pre-result; the
        # reopened pool's fresh hit counter lets the retry land
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result@2=kill")
        verdicts, snap, counts = serve(1)
        assert verdicts == control[0]
        assert snap["restarts"] == 1
        assert snap["retries"] == 1
        assert snap["alive"] == 1
        assert counts == control[2]

    def test_worker_killed_while_idle_is_replaced_without_retry(
        self, valid_acc_source
    ):
        service = ValidationService(workers=1, max_latency=0.005)
        try:
            (victim,) = multiprocessing.active_children()
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while service.pool.alive:
                assert time.monotonic() < deadline, "the killed worker never died"
                time.sleep(0.05)
            response = _service_validate(service, {"a.c": valid_acc_source})
            assert _verdicts([response]) == [["valid"]]
            snap = _workers(service)
        finally:
            service.drain(timeout=30.0)
        assert snap["restarts"] == 1
        assert snap["retries"] == 0  # no batch was lost, so no retry
        assert snap["alive"] == 1

    def test_worker_side_exception_fails_fast_without_retry(
        self, monkeypatch, valid_acc_source
    ):
        """A deterministic in-worker exception would just repeat on a
        retry: it must reach the request as raised, leave the worker
        alive, and count no restart."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=raise")
        service = ValidationService(workers=1, max_latency=0.005)
        try:
            with pytest.raises(faultinject.FaultError, match="worker:pre-result"):
                _service_validate(service, {"a.c": valid_acc_source})
            snap = _workers(service)
            assert snap["restarts"] == 0
            assert snap["retries"] == 0
            assert snap["batch_errors"] == 1
            assert snap["alive"] == 1
            # the fault disarmed after one shot: the worker still serves
            response = _service_validate(service, {"b.c": valid_acc_source})
            assert _verdicts([response]) == [["valid"]]
        finally:
            service.drain(timeout=30.0)

    def test_second_crash_on_same_batch_fails_it(self, monkeypatch, valid_acc_source):
        """Retry is once, not forever: a batch that kills its worker
        every time must fail the request with a typed error, not
        crash-loop the pool."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=kill")
        service = ValidationService(workers=1, max_latency=0.005)
        try:
            with pytest.raises(ComputeWorkerCrash, match="batch 'a.c'"):
                _service_validate(service, {"a.c": valid_acc_source})
            snap = _workers(service)
        finally:
            service.drain(timeout=30.0)
        assert snap["retries"] == 1
        assert snap["restarts"] == 2  # after the first crash and the retry's
        assert snap["alive"] == 1

    def test_one_breakage_seen_by_two_dispatchers_reopens_the_pool_once(
        self, monkeypatch, valid_acc_source
    ):
        """Two batches in flight when one worker dies: the broken pool
        fails both, the first dispatcher to see it reopens it, and both
        batches are resubmitted to that one new pool."""
        monkeypatch.setenv(faultinject.ENV_VAR, "service:worker-compute=sleep:1.5")
        service = ValidationService(workers=2, max_batch_size=1, max_latency=0.0)
        try:
            futures = [
                service.submit(
                    ValidateRequest(files=_request(name, valid_acc_source), options=OPTIONS)
                )
                for name in ("a.c", "b.c")
            ]
            time.sleep(0.5)  # both batches sit in their workers
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
            responses = [future.result(timeout=60) for future in futures]
            snap = _workers(service)
        finally:
            service.drain(timeout=30.0)
        assert _verdicts(responses) == [["valid"], ["valid"]]
        assert snap["restarts"] == 1
        assert snap["retries"] == 2
        assert snap["alive"] == 2


# ----------------------------------------------------------------------
# the service over the pool: stats merge + byte identity
# ----------------------------------------------------------------------


class TestServiceOverPool:
    def test_stats_merge_from_workers(self, valid_acc_source, tmp_path):
        """Worker-side stage and cache counts must reach the parent's
        ``/v1/stats`` through the metrics delta, same as in-process."""
        from repro.cache.bundle import PipelineCache

        cache = PipelineCache(cache_dir=tmp_path / "cache")
        service = ValidationService(cache=cache, workers=1, max_latency=0.005)
        try:
            _service_validate(service, {"a.c": valid_acc_source})
            _service_validate(service, {"a.c": valid_acc_source})
            snap = service.stats_snapshot()
        finally:
            service.drain(timeout=30.0)
        assert snap["service"]["workers"]["configured"] == 1
        assert snap["service"]["workers"]["batches_dispatched"] == 2
        assert snap["pipeline"]["stages"]["compile"]["processed"] == 2
        # the repeat was served from the service's cache: the first
        # batch's replay stored what the worker computed, and the
        # second's lookups all hit
        assert snap["cache"]["hits"] == 3
        assert snap["cache"]["misses"] == 3
        assert cache.judge.snapshot()["entries"] == 1
        # the drain saved the service's cache into its dir
        flushed = PipelineCache(cache_dir=tmp_path / "cache")
        flushed.load()
        assert flushed.judge.snapshot()["entries"] == 1

    def test_pooled_counts_equal_in_process_counts(self, valid_acc_source):
        """The merge path neither drops nor double-counts: the same
        request sequence gives the same ``/v1/stats`` pipeline and cache
        counts in-process (``workers=0``) and over a 2-worker pool.

        Each batch is submitted whole (four requests, the batch size),
        so it runs on one worker; a batch repeats its own requests, and
        the third batch repeats the first's, on whichever worker it
        lands.
        """
        from repro.cache.bundle import PipelineCache

        bad = valid_acc_source.replace("{", "{ int x = ;", 1)

        def request(**files):
            return ValidateRequest(files=tuple(files.items()), options=OPTIONS)

        batches = []
        for tag in ("a", "b"):
            first = request(**{
                f"{tag}good.c": valid_acc_source, f"{tag}bad.c": bad,
            })
            second = request(**{
                f"{tag}other.c": valid_acc_source.replace("3.0", "3.5"),
            })
            batches.append([first, second, first, second])
        batches.append(batches[0])

        def counts(workers: int) -> tuple[dict, dict]:
            service = ValidationService(
                cache=PipelineCache(), workers=workers,
                max_batch_size=4, max_latency=5.0,
            )
            try:
                for batch in batches:
                    futures = [service.submit(r) for r in batch]
                    for future in futures:
                        future.result(timeout=120)
                snap = service.stats_snapshot()
            finally:
                service.drain(timeout=30.0)
            assert snap["service"]["batching"]["batches"] == len(batches)
            assert snap["service"]["batching"]["largest_batch"] == 4
            return _counts(snap)

        in_process = counts(0)
        assert in_process[0]["files_total"] == 18
        assert in_process[0]["judge"]["skipped"] == 6
        assert in_process[1]["total"][0] > 0  # the repeats hit
        assert counts(2) == in_process

    def test_pooled_counts_over_a_cache_loaded_from_disk(
        self, valid_acc_source, tmp_path
    ):
        """A cache dir written before the compile namespace persisted
        (or whose ``compile.json`` was purged) holds executions and
        judgments but no compiles.  Over it, a pooled service answers
        and counts as the in-process one does, and its own cache keeps
        the compiles its workers made."""
        from repro.cache.bundle import PipelineCache, purge_dir

        sources = {
            "good.c": valid_acc_source,
            "bad.c": valid_acc_source.replace("{", "{ int x = ;", 1),
        }
        filled = PipelineCache(cache_dir=tmp_path)
        TestsuiteValidator(flavor="acc", cache=filled).validate_sources(sources)
        filled.save()

        def serve(workers: int) -> tuple:
            # the drain saves compiles too: purge them before each load
            assert purge_dir(tmp_path, "compile") == ["compile"]
            cache = PipelineCache(cache_dir=tmp_path)
            assert cache.load() > 0 and len(cache.compile) == 0
            service = ValidationService(cache=cache, workers=workers)
            try:
                response = _service_validate(service, sources)
                snap = service.stats_snapshot()
            finally:
                service.drain(timeout=30.0)
            return response["verdicts"], _counts(snap)

        in_process = serve(0)
        assert in_process[1][1]["compile"] == (0, 2, 2)
        assert in_process[1][1]["judge"][:2] == (1, 0)
        assert serve(2) == in_process

    @pytest.mark.parametrize("workers", [0, 2])
    def test_a_restarted_service_computes_nothing_it_served_before(
        self, workers, acc_probed, tmp_path, monkeypatch
    ):
        """A service restarted on the cache dir its predecessor's drain
        saved serves the same corpus again from that cache alone: no
        compile, no run, no judgment, no cache miss."""
        from repro.cache.bundle import PipelineCache
        from repro.compiler.driver import Compiler
        from repro.judge.llmj import AgentLLMJ
        from repro.runtime.executor import Executor

        files = list(acc_probed)[:12]
        groups = [files[i : i + 3] for i in range(0, len(files), 3)]
        # forked workers inherit the patches below
        monkeypatch.setattr(pool, "default_start_method", lambda: "fork")

        def serve() -> tuple[str, tuple[int, int]]:
            cache = PipelineCache(cache_dir=tmp_path)
            cache.load()
            service = ValidationService(cache=cache, workers=workers, max_latency=0.005)
            try:
                verdicts = [
                    _service_validate(service, {t.name: t.source for t in group})["verdicts"]
                    for group in groups
                ]
                snap = service.stats_snapshot()
            finally:
                assert service.drain(timeout=60.0)
            return json.dumps(verdicts, sort_keys=True), _counts(snap)[1]["total"]

        served, (hits, misses) = serve()
        assert misses > 0
        verdicts = {v["verdict"] for group in json.loads(served) for v in group}
        stages = {v["stage"] for group in json.loads(served) for v in group}
        assert verdicts == {"valid", "invalid"} and "compile" in stages

        def refuse(*args, **kwargs):
            raise AssertionError("a restarted service computed a stage again")

        monkeypatch.setattr(Compiler, "compile", refuse)
        monkeypatch.setattr(Executor, "run", refuse)
        monkeypatch.setattr(AgentLLMJ, "judge", refuse)
        assert serve() == (served, (hits + misses, 0))

    def test_workers_zero_snapshot_shape(self):
        service = ValidationService(workers=0)
        try:
            snap = service.stats_snapshot()["service"]["workers"]
        finally:
            service.drain(timeout=10.0)
        assert snap == {
            "configured": 0,
            "alive": 0,
            "restarts": 0,
            "retries": 0,
            "batches_dispatched": 0,
            "batch_errors": 0,
        }

    def test_byte_identity_workers4_vs_workers0_over_corpus(self, acc_corpus):
        """The acceptance gate in miniature: the same corpus through a
        4-worker service and the in-process spec must produce
        byte-identical verdict payloads."""
        sources = {test.name: test.source for test in acc_corpus[:12]}
        names = sorted(sources)
        groups = [names[i : i + 3] for i in range(0, len(names), 3)]

        def run(workers: int) -> str:
            service = ValidationService(workers=workers, max_latency=0.005)
            try:
                verdicts = []
                for group in groups:
                    response = _service_validate(
                        service, {name: sources[name] for name in group}
                    )
                    verdicts.append(response["verdicts"])
                return json.dumps(verdicts, sort_keys=True)
            finally:
                service.drain(timeout=60.0)

        assert run(4) == run(0)

    def test_concurrent_clients_over_the_pool_all_answer(self, valid_acc_source):
        """Dispatchers share the pool: concurrent requests over two
        workers all answer, each with the in-process verdict."""
        service = ValidationService(workers=2, max_batch_size=2, max_latency=0.005)
        results: list = []
        try:
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(
                        _service_validate(service, {f"c{i}.c": valid_acc_source})
                    )
                )
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            service.drain(timeout=30.0)
        assert _verdicts(results) == [["valid"]] * 6
