"""The pre-forked validation worker pool: lifecycle, pickling, crashes.

Everything here drives :class:`~repro.service.workers.WorkerPool` (and
the service wired on top of it) with *real* worker processes — fork and
spawn both — because the failure modes under test (a SIGKILLed worker
mid-batch, a wedged worker at close, inherited fault-injection state)
only exist across a process boundary.  Worker-side faults are armed
through ``REPRO_FAULT_POINTS`` in the environment: the parent's
programmatic ``install()`` state never reaches a worker, which re-reads
the environment via ``faultinject.reset()`` on boot.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time

import pytest

from repro.core import TestsuiteValidator
from repro.obs.metrics import get_metrics
from repro.pipeline.stats import PipelineStats
from repro.service.protocol import ValidateOptions, ValidateRequest
from repro.service.server import ValidationService
from repro.service.workers import (
    BatchResult,
    WorkerBatchError,
    WorkerConfig,
    WorkerPool,
    execute_batch,
)
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


def _verdicts(result: BatchResult) -> list[list[str]]:
    return [[v["verdict"] for v in r["verdicts"]] for r in result.responses]


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class TestPoolLifecycle:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_boot_run_close(self, start_method, valid_acc_source):
        if start_method not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        pool = WorkerPool(2, WorkerConfig(), start_method=start_method)
        try:
            snap = pool.snapshot()
            assert snap["configured"] == 2
            assert snap["alive"] == 2
            assert snap["start_method"] == start_method
            result = pool.run_batch(OPTIONS, [_request("good.c", valid_acc_source)])
            assert _verdicts(result) == [["valid"]]
            assert pool.snapshot()["batches_dispatched"] == 1
        finally:
            assert pool.close()
        assert pool.snapshot()["alive"] == 0
        with pytest.raises(RuntimeError, match="closed"):
            pool.run_batch(OPTIONS, [_request("late.c", valid_acc_source)])

    def test_pool_size_validated(self):
        with pytest.raises(ValueError, match="pool size"):
            WorkerPool(0, WorkerConfig())

    def test_close_terminates_a_wedged_worker(self, monkeypatch):
        """A worker that never reaches its recv loop (wedged at boot)
        cannot honour the polite stop; close() must escalate to
        terminate instead of hanging for the sleep's duration."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:post-fork=sleep:30")
        pool = WorkerPool(1, WorkerConfig())
        t0 = time.monotonic()
        assert pool.close(timeout=0.5)
        assert time.monotonic() - t0 < 10.0
        assert pool.snapshot()["alive"] == 0


# ----------------------------------------------------------------------
# the batch payload crosses the pipe by pickle
# ----------------------------------------------------------------------


class TestBatchRoundTrip:
    def test_batch_result_pickles_faithfully(self, valid_acc_source):
        """The exact object workers ship back must survive pickling:
        responses and the metrics delta, the only count it carries."""
        baseline = get_metrics().export_state()
        result = execute_batch(
            _validator_factory(),
            OPTIONS,
            [
                _request("good.c", valid_acc_source),
                _request("variant.c", valid_acc_source.replace("3.0", "3.5")),
            ],
        )
        result.metrics_delta = get_metrics().diff(baseline)[0]
        clone = pickle.loads(pickle.dumps(result))
        assert clone.responses == result.responses
        assert clone.metrics_delta == result.metrics_delta
        assert PipelineStats(clone.metrics_delta).files_total == 2

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_matches_in_process_execution(
        self, start_method, valid_acc_source
    ):
        if start_method not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        requests = [
            _request("good.c", valid_acc_source),
            _request("bad.c", valid_acc_source + "\nint broken( {\n"),
        ]
        control = execute_batch(_validator_factory(), OPTIONS, requests)
        pool = WorkerPool(1, WorkerConfig(), start_method=start_method)
        try:
            pooled = pool.run_batch(OPTIONS, requests)
        finally:
            pool.close()
        assert [r["verdicts"] for r in pooled.responses] == [
            r["verdicts"] for r in control.responses
        ]
        assert [r["summary"] for r in pooled.responses] == [
            r["summary"] for r in control.responses
        ]

    def test_name_collisions_split_into_chunks(self, valid_acc_source):
        """Two requests reusing a file name cannot share a pipeline run;
        the batch splits and each request still gets its own verdict."""
        requests = [
            _request("same.c", valid_acc_source),
            _request("same.c", valid_acc_source + "\nint broken( {\n"),
        ]
        result = execute_batch(_validator_factory(), OPTIONS, requests)
        assert _verdicts(result) == [["valid"], ["invalid"]]
        assert [r["batch"]["chunk"] for r in result.responses] == [1, 1]


# ----------------------------------------------------------------------
# crash tolerance
# ----------------------------------------------------------------------


class TestCrashTolerance:
    def test_kill_mid_batch_retries_on_respawned_worker(
        self, monkeypatch, valid_acc_source
    ):
        """The canonical failure: SIGKILL after the batch executed but
        before its result was sent.  The parent must detect the death,
        respawn the slot, retry once, and return verdicts identical to
        an undisturbed run — counting one restart and one retry."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result@2=kill")
        control = execute_batch(
            _validator_factory(), OPTIONS, [_request("b.c", valid_acc_source)]
        )
        pool = WorkerPool(1, WorkerConfig())
        try:
            first = pool.run_batch(OPTIONS, [_request("a.c", valid_acc_source)])
            assert _verdicts(first) == [["valid"]]
            # the worker's second batch dies at worker:pre-result; the
            # respawned worker's fresh hit counter lets the retry land
            second = pool.run_batch(OPTIONS, [_request("b.c", valid_acc_source)])
            snap = pool.snapshot()
        finally:
            pool.close()
        assert [r["verdicts"] for r in second.responses] == [
            r["verdicts"] for r in control.responses
        ]
        assert snap["restarts"] == 1
        assert snap["retries"] == 1
        assert snap["alive"] == 1

    def test_worker_killed_while_idle_is_replaced(self, valid_acc_source):
        pool = WorkerPool(1, WorkerConfig())
        try:
            victim = pool._workers[0].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10.0)
            result = pool.run_batch(OPTIONS, [_request("a.c", valid_acc_source)])
            assert _verdicts(result) == [["valid"]]
            snap = pool.snapshot()
        finally:
            pool.close()
        assert snap["restarts"] == 1
        assert snap["retries"] == 0  # no batch was lost, so no retry

    def test_worker_side_exception_fails_fast_without_retry(
        self, monkeypatch, valid_acc_source
    ):
        """A deterministic in-worker exception would just repeat on a
        retry: it must surface as WorkerBatchError with the traceback,
        leave the worker alive, and count no restart."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=raise")
        pool = WorkerPool(1, WorkerConfig())
        try:
            with pytest.raises(WorkerBatchError, match="FaultError"):
                pool.run_batch(OPTIONS, [_request("a.c", valid_acc_source)])
            snap = pool.snapshot()
            assert snap["restarts"] == 0
            assert snap["batch_errors"] == 1
            assert snap["alive"] == 1
            # the fault disarmed after one shot: the worker still serves
            result = pool.run_batch(OPTIONS, [_request("b.c", valid_acc_source)])
            assert _verdicts(result) == [["valid"]]
        finally:
            pool.close()

    def test_second_crash_on_same_batch_propagates(self, monkeypatch, valid_acc_source):
        """Retry is once, not forever: a batch that kills its worker
        every time must fail the request, not crash-loop the pool."""
        monkeypatch.setenv(faultinject.ENV_VAR, "worker:pre-result=kill")
        pool = WorkerPool(1, WorkerConfig())
        try:
            from repro.service.workers import WorkerCrash

            with pytest.raises(WorkerCrash):
                pool.run_batch(OPTIONS, [_request("a.c", valid_acc_source)])
            snap = pool.snapshot()
        finally:
            pool.close()
        assert snap["retries"] == 1
        assert snap["restarts"] == 2  # original + the retry's replacement


# ----------------------------------------------------------------------
# the service over the pool: stats merge + byte identity
# ----------------------------------------------------------------------


def _service_validate(service: ValidationService, sources: dict[str, str]) -> dict:
    request = ValidateRequest(files=tuple(sources.items()), options=OPTIONS)
    return service.submit(request).result(timeout=120)


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
        # the repeat was served from the worker's cache; its lookups
        # reach the parent's summary through the delta
        assert snap["cache"]["hits"] >= 1
        # drain closed the pool politely: workers flushed to the shared dir
        assert (tmp_path / "cache").exists()

    def test_pooled_counts_equal_in_process_counts(self, valid_acc_source):
        """The merge path neither drops nor double-counts: the same
        request sequence gives the same ``/v1/stats`` pipeline and cache
        counts in-process (``workers=0``) and over a 2-worker pool.

        Each batch is submitted whole (four requests, the batch size),
        so it runs on one worker; a batch repeats its own requests, and
        file names never recur across batches, so every repeat is a
        cache hit whichever worker a batch lands on.
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
            pipeline = {
                name: {k: stage[k] for k in ("processed", "passed", "failed", "skipped")}
                for name, stage in snap["pipeline"]["stages"].items()
            }
            pipeline["files_total"] = snap["pipeline"]["files_total"]
            cache = {
                name: (ns["hits"], ns["misses"])
                for name, ns in snap["cache"]["namespaces"].items()
            }
            cache["total"] = (snap["cache"]["hits"], snap["cache"]["misses"])
            return pipeline, cache

        in_process = counts(0)
        assert in_process[0]["files_total"] == 12
        assert in_process[0]["judge"]["skipped"] == 4
        assert in_process[1]["total"][0] > 0  # the repeats hit
        assert counts(2) == in_process

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
            "batches_dispatched": 0,
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
