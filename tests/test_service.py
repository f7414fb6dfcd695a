"""The serving layer: protocol, batching, backpressure, drain, identity.

Batching mechanics are driven through :class:`MicroBatcher` with toy
runners (no HTTP); the HTTP contract is exercised against a real
``ThreadingHTTPServer`` on an ephemeral port via the stdlib client.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import TestsuiteValidator
from repro.service.batching import BatcherClosed, BatchQueueFull, MicroBatcher
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.protocol import (
    JudgeRequest,
    ProtocolError,
    ValidateOptions,
    ValidateRequest,
    decode_verdict,
    encode_verdict,
)
from repro.service import server as server_module
from repro.service.server import make_server


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------


class TestProtocol:
    def test_validate_request_roundtrip(self):
        request = ValidateRequest(
            files=(("a.c", "int main(){return 0;}"), ("b.c", "x")),
            options=ValidateOptions(flavor="omp", judge="indirect", early_exit=False),
        )
        assert ValidateRequest.from_dict(request.to_dict()) == request

    def test_single_file_shorthand(self):
        request = ValidateRequest.from_dict({"name": "a.c", "source": "s"})
        assert request.files == (("a.c", "s"),)
        assert request.options == ValidateOptions()

    def test_files_list_form(self):
        request = ValidateRequest.from_dict(
            {"files": [{"name": "a.c", "source": "s"}]}
        )
        assert request.files == (("a.c", "s"),)

    def test_judge_request_roundtrip(self):
        request = JudgeRequest(
            name="a.c", source="s", flavor="omp", judge="indirect",
            report={"compile_rc": 0, "run_rc": 1},
        )
        assert JudgeRequest.from_dict(request.to_dict()) == request

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {},
            {"files": {}},
            {"files": "nope"},
            {"files": {"a.c": 42}},
            {"files": {"": "s"}},
            {"name": "a.c"},  # shorthand missing source
            {"files": {"a.c": "s"}, "options": {"flavor": "rust"}},
            {"files": {"a.c": "s"}, "options": {"early_exit": "yes"}},
            {"files": [{"name": "a.c"}]},
        ],
    )
    def test_malformed_validate_requests_rejected(self, body):
        with pytest.raises(ProtocolError):
            ValidateRequest.from_dict(body)

    @pytest.mark.parametrize(
        "report",
        [
            {"compile_rc": "0"},
            {"compile_rc": 0, "run_rc": "1"},
            {"compile_rc": 0, "diagnostic_codes": "E123"},  # would char-split
            {"compile_rc": 0, "diagnostic_codes": [1, 2]},
            {"compile_rc": 0, "compile_stderr": 7},
        ],
    )
    def test_malformed_judge_reports_rejected(self, report):
        with pytest.raises(ProtocolError):
            JudgeRequest.from_dict({"name": "a.c", "source": "s", "report": report})

    def test_per_request_file_cap(self):
        files = {f"t{i}.c": "s" for i in range(17)}
        with pytest.raises(ProtocolError, match="at most 16"):
            ValidateRequest.from_dict({"files": files})

    def test_duplicate_names_within_request_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            ValidateRequest.from_dict(
                {"files": [{"name": "a.c", "source": "1"}, {"name": "a.c", "source": "2"}]}
            )

    def test_verdict_roundtrip(self, valid_acc_source):
        report = TestsuiteValidator(flavor="acc").validate_sources(
            {"good.c": valid_acc_source}
        )
        judged = report.files[0]
        assert decode_verdict(encode_verdict(judged)) == judged


# ----------------------------------------------------------------------
# micro-batching (toy runners, no HTTP)
# ----------------------------------------------------------------------


def collecting_runner(batches):
    def run(key, payloads):
        batches.append((key, list(payloads)))
        return [(key, payload) for payload in payloads]
    return run


class TestMicroBatcher:
    def test_size_cutoff_dispatches_full_batch(self):
        batches = []
        # the 10s latency window means only the size cutoff can fire
        batcher = MicroBatcher(
            collecting_runner(batches), max_batch_size=3, max_latency=10.0, capacity=8
        )
        futures = [batcher.submit("k", i) for i in range(3)]
        assert [f.result(10.0) for f in futures] == [("k", 0), ("k", 1), ("k", 2)]
        assert batches == [("k", [0, 1, 2])]
        snapshot = batcher.snapshot()
        assert snapshot["size_cutoffs"] == 1
        assert snapshot["latency_cutoffs"] == 0
        assert snapshot["largest_batch"] == 3
        batcher.close()

    def test_latency_cutoff_flushes_partial_batch(self):
        batches = []
        batcher = MicroBatcher(
            collecting_runner(batches), max_batch_size=8, max_latency=0.05, capacity=8
        )
        future = batcher.submit("k", "lonely")
        assert future.result(10.0) == ("k", "lonely")
        snapshot = batcher.snapshot()
        assert snapshot["latency_cutoffs"] >= 1
        assert snapshot["largest_batch"] == 1
        batcher.close()

    def test_incompatible_keys_never_share_a_batch(self):
        batches = []
        # a long window would happily batch a+a, but b sits between them
        batcher = MicroBatcher(
            collecting_runner(batches), max_batch_size=8, max_latency=2.0, capacity=8
        )
        futures = [batcher.submit("a", 1), batcher.submit("b", 2), batcher.submit("a", 3)]
        for future in futures:
            future.result(10.0)
        # the "b" item cut both neighbouring "a" batches short
        assert batches == [("a", [1]), ("b", [2]), ("a", [3])]
        assert batcher.snapshot()["key_cutoffs"] >= 2
        batcher.close()

    def test_backpressure_raises_queue_full(self):
        gate = threading.Event()

        def gated(key, payloads):
            gate.wait(10.0)
            return list(payloads)

        batcher = MicroBatcher(gated, max_batch_size=1, max_latency=0.0, capacity=2)
        inflight = batcher.submit("k", "a")  # popped by the collector, blocks
        time.sleep(0.1)
        queued = [batcher.submit("k", "b"), batcher.submit("k", "c")]
        with pytest.raises(BatchQueueFull) as excinfo:
            batcher.submit("k", "overflow")
        assert excinfo.value.capacity == 2
        assert excinfo.value.retry_after > 0
        assert batcher.snapshot()["rejected"] == 1
        gate.set()
        for future in [inflight, *queued]:
            assert future.result(10.0) in ("a", "b", "c")
        batcher.close()

    def test_runner_exception_fails_the_whole_batch(self):
        def explode(key, payloads):
            raise RuntimeError("boom")

        batcher = MicroBatcher(explode, max_batch_size=4, max_latency=0.01, capacity=8)
        future = batcher.submit("k", "x")
        with pytest.raises(RuntimeError, match="boom"):
            future.result(10.0)
        assert batcher.snapshot()["failed"] == 1
        batcher.close()

    def test_result_miscount_is_an_error_not_a_hang(self):
        batcher = MicroBatcher(
            lambda key, payloads: [], max_batch_size=2, max_latency=0.01, capacity=8
        )
        future = batcher.submit("k", "x")
        with pytest.raises(RuntimeError, match="0 results"):
            future.result(10.0)
        batcher.close()

    def test_close_drains_queued_work(self):
        gate = threading.Event()
        done = []

        def gated(key, payloads):
            gate.wait(10.0)
            done.extend(payloads)
            return list(payloads)

        batcher = MicroBatcher(gated, max_batch_size=1, max_latency=0.0, capacity=8)
        futures = [batcher.submit("k", i) for i in range(4)]
        gate.set()
        assert batcher.close(drain=True, timeout=10.0)
        assert sorted(f.result(0.1) for f in futures) == [0, 1, 2, 3]
        assert sorted(done) == [0, 1, 2, 3]
        with pytest.raises(BatcherClosed):
            batcher.submit("k", "late")

    def test_close_without_drain_fails_queued_futures(self):
        gate = threading.Event()

        def gated(key, payloads):
            gate.wait(10.0)
            return list(payloads)

        batcher = MicroBatcher(gated, max_batch_size=1, max_latency=0.0, capacity=8)
        inflight = batcher.submit("k", "a")
        time.sleep(0.1)
        queued = batcher.submit("k", "b")
        closer = threading.Thread(target=lambda: batcher.close(drain=False, timeout=10.0))
        closer.start()
        time.sleep(0.1)
        gate.set()
        closer.join(10.0)
        assert inflight.result(10.0) == "a"  # already dispatched: completes
        with pytest.raises(BatcherClosed):
            queued.result(10.0)


class TestConcurrencyStress:
    """32 simultaneous clients — well beyond what the rest of the suite
    drives — against the dispatcher-threaded batcher: every future must
    resolve exactly once with its own payload's result, and 429s may
    appear only when the admission queue is genuinely at capacity."""

    def test_32_clients_no_lost_or_duplicated_futures(self):
        def runner(key, payloads):
            time.sleep(0.001)  # enough to overlap dispatchers
            return [("done", payload) for payload in payloads]

        batcher = MicroBatcher(
            runner,
            max_batch_size=4,
            max_latency=0.002,
            capacity=512,
            dispatch_workers=4,
        )
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def client(cid: int) -> None:
            try:
                futures = [batcher.submit("k", (cid, n)) for n in range(8)]
                results[cid] = [future.result(60.0) for future in futures]
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(cid,)) for cid in range(32)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        # exactly-once, in submission order, tied to the right client
        for cid in range(32):
            assert results[cid] == [("done", (cid, n)) for n in range(8)]
        snapshot = batcher.snapshot()
        assert snapshot["submitted"] == 256
        assert snapshot["completed"] == 256
        assert snapshot["rejected"] == 0
        assert snapshot["failed"] == 0
        assert batcher.close()
        assert batcher.snapshot()["queue_depth"] == 0

    def test_429_only_when_genuinely_full(self):
        gate = threading.Event()

        def gated(key, payloads):
            gate.wait(30.0)
            return list(payloads)

        batcher = MicroBatcher(
            gated, max_batch_size=1, max_latency=0.0, capacity=2, dispatch_workers=2
        )
        admitted = []
        try:
            with pytest.raises(BatchQueueFull) as excinfo:
                # the dispatch pipeline absorbs a few batches before the
                # admission queue can back up, so keep submitting until
                # the bound actually bites
                for n in range(64):
                    admitted.append(batcher.submit("k", n))
                    time.sleep(0.005)
            # rejection happened at genuine capacity, not before
            assert excinfo.value.depth == excinfo.value.capacity == 2
            assert len(admitted) >= 2
        finally:
            gate.set()
        assert sorted(future.result(30.0) for future in admitted) == sorted(
            range(len(admitted))
        )
        # pressure released: the queue admits again
        assert batcher.submit("k", "after").result(30.0) == "after"
        snapshot = batcher.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["failed"] == 0
        batcher.close()


# ----------------------------------------------------------------------
# HTTP service
# ----------------------------------------------------------------------


@pytest.fixture()
def service_server():
    """A live daemon on an ephemeral port, torn down after the test."""
    server = make_server(port=0, max_latency=0.01)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.service.drain(timeout=10.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def client_for(server, **kwargs) -> ServiceClient:
    host, port = server.server_address[:2]
    return ServiceClient(host=host, port=port, **kwargs)


class TestHTTPService:
    def test_healthz(self, service_server):
        health = client_for(service_server).healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_validate_roundtrip_and_stats(self, service_server, valid_acc_source):
        client = client_for(service_server)
        response = client.validate({"good.c": valid_acc_source})
        assert response["summary"] == {"total": 1, "valid": 1, "invalid": 0}
        assert response["verdicts"][0]["verdict"] == "valid"
        assert response["verdicts"][0]["stage"] == "judge"
        assert set(response["timings"]) == {"queued_ms", "wall_ms", "stages"}
        assert response["timings"]["stages"]["compile"]["processed"] == 1

        stats = client.stats()
        assert stats["service"]["validate_requests"] == 1
        assert stats["service"]["batching"]["completed"] == 1
        assert stats["pipeline"]["files_total"] == 1
        assert stats["pipeline"]["stages"]["judge"]["processed"] == 1

    def test_stats_count_only_what_the_daemon_did(self, valid_acc_source):
        """/v1/stats reads the registry's growth since the daemon
        started: work the process did before it does not show."""
        TestsuiteValidator(flavor="acc").validate_sources({"before.c": valid_acc_source})
        server = make_server(port=0, max_latency=0.01)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = client_for(server)
            assert client.stats()["pipeline"]["files_total"] == 0
            client.validate({"after.c": valid_acc_source})
            pipeline = client.stats()["pipeline"]
            assert pipeline["files_total"] == 1
            assert pipeline["stages"]["compile"]["processed"] == 1
        finally:
            server.service.drain(timeout=10.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)

    def test_lifetime_stats_walls_sum_across_batches(
        self, service_server, valid_acc_source
    ):
        """Sequential batches sum their walls, so lifetime throughput is
        files over the whole serving period — not over the slowest batch."""
        client = client_for(service_server)
        client.validate({"one.c": valid_acc_source})
        wall_after_one = client.stats()["pipeline"]["wall_seconds"]
        client.validate({"two.c": valid_acc_source})
        wall_after_two = client.stats()["pipeline"]["wall_seconds"]
        assert wall_after_two > wall_after_one

    def test_judge_endpoint(self, service_server, valid_acc_source):
        client = client_for(service_server)
        response = client.judge("good.c", valid_acc_source)
        assert response["says_valid"] is True
        assert response["result"]["prompt_mode"] == "agent-direct"
        stats = client.stats()
        assert stats["service"]["judge_requests"] == 1

    def test_judge_with_supplied_report(self, service_server, valid_acc_source):
        client = client_for(service_server)
        response = client.judge(
            "good.c", valid_acc_source,
            report={"compile_rc": 1, "compile_stderr": "error: nope"},
        )
        assert response["result"]["tool_report"]["compile_rc"] == 1

    def test_malformed_body_is_400(self, service_server):
        client = client_for(service_server)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/validate", {"files": "nope"})
        assert excinfo.value.status == 400

    def test_non_integer_content_length_is_400(self, service_server):
        host, port = service_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                "POST", "/v1/validate", body=b"{}",
                headers={"Content-Length": "abc", "Content-Type": "application/json"},
            )
            response = conn.getresponse()
            status, body = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_content_length_is_413_before_reading(self, service_server):
        """A body claiming 1 GB is refused from its header alone: the
        daemon answers 413 at once instead of waiting for the bytes."""
        host, port = service_server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            t0 = time.monotonic()
            conn.request(
                "POST", "/v1/validate", body=b"{}",
                headers={
                    "Content-Length": str(1024 ** 3),
                    "Content-Type": "application/json",
                },
            )
            response = conn.getresponse()
            status, body = response.status, json.loads(response.read())
            elapsed = time.monotonic() - t0
        finally:
            conn.close()
        assert status == 413
        assert "limit" in body["error"]
        assert elapsed < 5.0
        assert client_for(service_server).healthz()["status"] == "ok"

    def test_unknown_path_is_404(self, service_server):
        client = client_for(service_server)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/nope")
        assert excinfo.value.status == 404

    def test_concurrent_clients_get_byte_identical_verdicts(
        self, service_server, valid_acc_source
    ):
        """The serving contract: batching must not change any verdict."""
        client = client_for(service_server)
        broken = valid_acc_source.replace("{", "", 1)
        sources = {
            f"case{i}.c": valid_acc_source.replace("3.0", f"{i + 2}.0")
            for i in range(6)
        }
        sources["broken.c"] = broken

        responses: dict[str, dict] = {}
        errors: list[Exception] = []

        def hit(name: str, source: str) -> None:
            try:
                responses[name] = client.validate({name: source})
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hit, args=(name, source))
            for name, source in sources.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors

        direct = TestsuiteValidator(flavor="acc").validate_sources(sources)
        for name in sources:
            expected = [encode_verdict(direct.verdict_for(name))]
            assert responses[name]["verdicts"] == expected, name

        # concurrency actually exercised the batcher
        snapshot = service_server.service.batcher.snapshot()
        assert snapshot["completed"] == len(sources)

    def test_same_name_different_content_stays_correct(
        self, service_server, valid_acc_source
    ):
        """Colliding names split into chunks, never cross-contaminate."""
        client = client_for(service_server)
        variant = valid_acc_source.replace("{", "", 1)  # invalid variant

        results: dict[str, dict] = {}

        def hit(tag: str, source: str) -> None:
            results[tag] = client.validate({"same.c": source})

        threads = [
            threading.Thread(target=hit, args=("good", valid_acc_source)),
            threading.Thread(target=hit, args=("bad", variant)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)

        assert results["good"]["verdicts"][0]["verdict"] == "valid"
        assert results["bad"]["verdicts"][0]["verdict"] == "invalid"
        assert results["bad"]["verdicts"][0]["stage"] == "compile"

    def test_429_backpressure_and_retry_after(self, valid_acc_source):
        server = make_server(port=0, queue_capacity=1, max_batch_size=1, max_latency=0.0)
        service = server.service
        gate = threading.Event()
        inner = service.batcher.runner

        def gated(key, payloads):
            gate.wait(20.0)
            return inner(key, payloads)

        service.batcher.runner = gated
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            fast_fail = ServiceClient(host=host, port=port, max_retries=0)
            background: list = []

            def occupy():
                background.append(fast_fail.validate({"a.c": valid_acc_source}))

            holders = [threading.Thread(target=occupy) for _ in range(2)]
            # sequence the holders so the first is in-flight (popped by
            # the collector) before the second takes the only queue slot
            holders[0].start()
            deadline = time.monotonic() + 5.0
            while service.batcher.snapshot()["batches"] < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            holders[1].start()
            while service.batcher.depth < 1 and time.monotonic() < deadline:
                time.sleep(0.01)

            with pytest.raises(ServiceUnavailable) as excinfo:
                fast_fail.validate({"b.c": valid_acc_source})
            assert excinfo.value.status == 429
            assert float(excinfo.value.body["retry_after"]) > 0

            # a retrying client rides out the pressure once the gate opens
            retrying = ServiceClient(host=host, port=port, max_retries=5)
            threading.Timer(0.2, gate.set).start()
            response = retrying.validate({"c.c": valid_acc_source})
            assert response["summary"]["valid"] == 1
            for holder in holders:
                holder.join(20.0)
            assert len(background) == 2
        finally:
            gate.set()
            service.drain(timeout=10.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)

    def test_clean_drain_completes_queued_work_and_flushes_cache(
        self, tmp_path, valid_acc_source
    ):
        from repro.cache.bundle import PipelineCache

        cache = PipelineCache(cache_dir=tmp_path / "cache")
        server = make_server(port=0, cache=cache, max_latency=0.01)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(host=host, port=port)
        response = client.validate({"good.c": valid_acc_source})
        assert response["summary"]["valid"] == 1

        server.drain_and_shutdown(timeout=10.0)
        server.server_close()
        thread.join(10.0)

        # drain flushed the persistent namespaces to disk
        assert (tmp_path / "cache" / "execute.json").is_file()
        assert (tmp_path / "cache" / "judge.json").is_file()
        # and the daemon no longer admits work
        health = server.service.health()
        assert health["status"] == "draining"

    def test_post_validate_during_drain_is_503(self, valid_acc_source):
        server = make_server(port=0, max_latency=0.01)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = ServiceClient(host=host, port=port)
            server.service.drain(timeout=10.0)
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.validate({"a.c": valid_acc_source})
            assert excinfo.value.status == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(10.0)

    def test_serve_cli_sigterm_drains_and_flushes(self, tmp_path, valid_acc_source):
        """The daemon as a real process: ``llm4vv serve`` + SIGTERM.

        TERM must map onto the graceful path — drain the batcher, flush
        the cache to disk, exit 0 — not kill the process mid-write.
        """
        repo_root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(repo_root / "src")}
        cache_dir = tmp_path / "cache"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--cache-dir", str(cache_dir), "--max-latency-ms", "5",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[^:]+:(\d+)", banner)
            assert match, f"no address in serve banner: {banner!r}"
            client = ServiceClient(port=int(match.group(1)), timeout=30)
            response = client.validate({"good.c": valid_acc_source})
            assert response["summary"]["valid"] == 1

            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            # the drain flushed warm results for the next process
            assert (cache_dir / "execute.json").is_file()
            assert (cache_dir / "judge.json").is_file()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=10)

    def test_warm_cache_hits_show_in_stats(self, valid_acc_source):
        from repro.cache.bundle import PipelineCache

        server = make_server(port=0, cache=PipelineCache(), max_latency=0.01)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = client_for(server)
            client.validate({"good.c": valid_acc_source})
            cold = client.stats()["cache"]
            client.validate({"good.c": valid_acc_source})
            warm = client.stats()["cache"]
            assert warm["hits"] > cold["hits"]
        finally:
            server.service.drain(timeout=10.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)


class TestStalledClient:
    def test_a_stalled_body_cannot_hold_the_drain_open(self):
        """A client that sends its headers and part of its body, then
        goes silent, gets a 408 (or a closed connection) once the read
        timeout passes, and the drain and close finish meanwhile."""
        server = make_server(port=0, max_latency=0.01)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        stalled = socket.create_connection((host, port), timeout=60)
        try:
            stalled.sendall(
                b"POST /v1/validate HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                b'{"files":'
            )
            time.sleep(0.2)  # the handler is now blocked on the body

            def drain_and_close() -> None:
                server.drain_and_shutdown(timeout=5)
                server.server_close()

            closer = threading.Thread(target=drain_and_close, daemon=True)
            closer.start()
            closer.join(server_module.READ_TIMEOUT_S + 5)
            assert not closer.is_alive(), "a stalled client held the drain open"
            reply = b""
            while chunk := stalled.recv(65536):
                reply += chunk
        finally:
            stalled.close()
            thread.join(10.0)
        if reply:
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.split()[1] == b"408", head
            assert "stalled" in json.loads(body)["error"]


class TestHTTPServiceUnderPool:
    """The full HTTP stack over a 2-process worker pool, hammered by 32
    concurrent clients — the serving path CI's service-smoke job boots."""

    def test_32_concurrent_clients_against_pooled_daemon(self, valid_acc_source):
        server = make_server(
            port=0, max_latency=0.005, workers=2, queue_capacity=128
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        responses: dict[int, dict] = {}
        errors: list[BaseException] = []

        def hit(cid: int) -> None:
            try:
                client = client_for(server, timeout=120.0)
                responses[cid] = client.validate({f"client{cid}.c": valid_acc_source})
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        try:
            clients = [
                threading.Thread(target=hit, args=(cid,)) for cid in range(32)
            ]
            for worker in clients:
                worker.start()
            for worker in clients:
                worker.join(120.0)
            assert not errors
            for cid in range(32):
                assert responses[cid]["summary"] == {
                    "total": 1, "valid": 1, "invalid": 0,
                }
            stats = client_for(server).stats()
        finally:
            server.service.drain(timeout=30.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)
        service = stats["service"]
        assert service["validate_requests"] == 32
        assert service["batching"]["submitted"] == 32
        assert service["batching"]["completed"] == 32
        assert service["batching"]["failed"] == 0
        assert service["workers"]["configured"] == 2
        assert service["workers"]["alive"] == 2
        assert service["workers"]["batches_dispatched"] >= 1
        # every file validated exactly once, across however many batches
        assert stats["pipeline"]["stages"]["compile"]["processed"] == 32


class TestClientRetry:
    """The retry loop itself, with ``_roundtrip`` stubbed out — no
    sockets, so each case pins down exactly how many attempts and
    sleeps a failure mode costs."""

    @staticmethod
    def _patched(monkeypatch, client, outcomes):
        """Feed ``outcomes`` (exception instances or (status, headers,
        payload) tuples) to successive attempts; record sleeps."""
        attempts = []
        sleeps = []

        def roundtrip(method, path, body):
            attempts.append(path)
            outcome = outcomes[min(len(attempts), len(outcomes)) - 1]
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_roundtrip", roundtrip)
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: sleeps.append(s)
        )
        return attempts, sleeps

    def test_connection_errors_backoff_then_reraise(self, monkeypatch):
        client = ServiceClient(max_retries=3, backoff_base=0.01)
        attempts, sleeps = self._patched(
            monkeypatch, client, [ConnectionRefusedError("daemon down")]
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(attempts) == 4  # initial try + max_retries
        assert len(sleeps) == 3
        assert all(s > 0 for s in sleeps)

    def test_503_retries_until_the_daemon_returns(self, monkeypatch):
        client = ServiceClient(max_retries=3, backoff_base=0.01)
        attempts, sleeps = self._patched(
            monkeypatch, client,
            [
                (503, {}, {"error": "draining"}),
                ConnectionResetError("restarting"),
                (200, {}, {"status": "ok"}),
            ],
        )
        assert client.healthz() == {"status": "ok"}
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_429_sleeps_for_the_server_hint(self, monkeypatch):
        client = ServiceClient(max_retries=2)
        attempts, sleeps = self._patched(
            monkeypatch, client,
            [(429, {"Retry-After": "0.07"}, {}), (200, {}, {})],
        )
        client.healthz()
        assert sleeps == [0.07]

    def test_max_elapsed_caps_the_retry_budget(self, monkeypatch):
        client = ServiceClient(max_retries=50, max_elapsed=0.0)
        attempts, _ = self._patched(
            monkeypatch, client, [ConnectionRefusedError("down")]
        )
        with pytest.raises(ConnectionRefusedError):
            client.healthz()
        assert len(attempts) == 1  # budget exhausted before any retry

    def test_backoff_is_jittered_and_capped(self):
        client = ServiceClient(backoff_base=0.05)
        first = [client._backoff(1) for _ in range(50)]
        assert all(0.025 <= s < 0.05 for s in first)
        assert len(set(first)) > 1, "no jitter"
        assert all(client._backoff(20) <= 2.0 for _ in range(10))

    def test_backoff_seed_makes_retry_timing_deterministic(self):
        schedule = [
            ServiceClient(backoff_seed=7)._backoff(attempt) for attempt in (1, 2, 3, 4)
        ]
        assert schedule == [
            ServiceClient(backoff_seed=7)._backoff(attempt) for attempt in (1, 2, 3, 4)
        ]
        assert schedule != [
            ServiceClient(backoff_seed=8)._backoff(attempt) for attempt in (1, 2, 3, 4)
        ]

    def test_backoff_never_touches_the_global_rng(self):
        """Client jitter must come from a private Random: retrying mid-
        experiment cannot perturb application-level seeding, and two
        unseeded clients still jitter independently."""
        import random as global_random

        global_random.seed(1234)
        expected = [global_random.random() for _ in range(3)]
        global_random.seed(1234)
        client = ServiceClient()
        for attempt in (1, 2, 3, 4, 5):
            client._backoff(attempt)
        assert [global_random.random() for _ in range(3)] == expected
        assert ServiceClient()._backoff(1) != ServiceClient()._backoff(1)


class TestGetErrorHandling:
    def test_stats_failure_answers_500_not_dropped_socket(self, service_server, monkeypatch):
        """do_GET must mirror do_POST's catch-all: an exception inside a
        stats provider becomes an HTTP 500, not an empty reply."""
        def boom():
            raise RuntimeError("stats provider broke")

        monkeypatch.setattr(service_server.service, "stats_snapshot", boom)
        client = client_for(service_server)
        with pytest.raises(ServiceError) as excinfo:
            client.stats()
        assert excinfo.value.status == 500
        assert "internal error" in str(excinfo.value)

    def test_fuzz_stats_endpoint_is_gone(self, service_server):
        """Campaign totals live on /v1/metrics; the old JSON route 404s."""
        with pytest.raises(ServiceError) as excinfo:
            client_for(service_server)._request("GET", "/v1/fuzz/stats")
        assert excinfo.value.status == 404


class TestServeBindErrors:
    def test_port_in_use_exits_2_with_message(self, capsys):
        from repro.cli import main as cli_main

        blocker = make_server(port=0)
        try:
            host, port = blocker.server_address[:2]
            rc = cli_main(["serve", "--port", str(port), "--no-cache"])
            assert rc == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            blocker.service.drain(timeout=10.0)
            blocker.server_close()
