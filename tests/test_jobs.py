"""The durable job queue: journal, recovery, HTTP API, SIGTERM drain.

Three layers:

* :class:`JobSpec` — submission-time validation (bad specs are HTTP
  400, never a queued job that fails later);
* :class:`JobManager` driven directly — journal writes, the state
  machine, restart recovery from a hand-built journal;
* the daemon as a real subprocess — SIGTERM runs "checkpoint then
  drain" (the job journals as ``checkpointed`` with a resumable work
  dir), a restart finishes the job to the same digest an uninterrupted
  run produces, and ``kill -9`` mid-drain loses nothing either.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailable
from repro.service.jobs import JobManager
from repro.service.protocol import JobSpec, ProtocolError
from repro.service.server import make_server
from repro.testing import faultinject

REPO_ROOT = Path(__file__).resolve().parents[1]

#: the campaign every job test runs: small, deterministic, judge-free
TINY_CAMPAIGN = CampaignConfig(
    seed=5, rounds=1, batch_size=4, seed_count=3,
    workers=1, triage="off",
)

#: a longer variant for the SIGTERM tests (must span several rounds so
#: the signal provably lands mid-run)
SLOW_CAMPAIGN = CampaignConfig(
    seed=5, rounds=4, batch_size=4, seed_count=3,
    workers=1, triage="off",
)


@pytest.fixture(autouse=True)
def _disarm_faults():
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture(scope="module")
def tiny_digest() -> str:
    return Campaign(TINY_CAMPAIGN).run().digest()


@pytest.fixture(scope="module")
def slow_digest() -> str:
    return Campaign(SLOW_CAMPAIGN).run().digest()


#: campaign ``workers`` a job must not get past submission: more
#: processes than the host has cores, none, and a string
BAD_WORKERS = [(os.cpu_count() or 1) + 1, 0, "2"]


@pytest.fixture()
def refuse_pools(monkeypatch):
    """Make a campaign's borrow of the shared compute pool fail the test
    instead of forking or reusing its workers."""

    def refused(workers):
        raise AssertionError(f"a compute pool of {workers} was opened")

    monkeypatch.setattr("repro.pipeline.pool.shared", refused)


def wait_until(predicate, timeout: float = 120.0, interval: float = 0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError("condition not reached")


# ----------------------------------------------------------------------
# JobSpec validation
# ----------------------------------------------------------------------


class TestJobSpec:
    def test_campaign_spec_roundtrip(self):
        spec = JobSpec.from_dict(
            {"kind": "campaign", "spec": TINY_CAMPAIGN.to_json()}
        )
        assert spec.kind == "campaign"
        assert CampaignConfig.from_json(spec.spec_dict()) == TINY_CAMPAIGN
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_experiment_spec_accepted(self):
        spec = JobSpec.from_dict(
            {"kind": "experiment",
             "spec": {"scale": "tiny", "artifacts": ["table3"]}}
        )
        assert spec.spec_dict()["artifacts"] == ["table3"]

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {},
            {"kind": "bake-bread"},
            {"kind": "campaign", "spec": "nope"},
            {"kind": "campaign", "spec": {"batch_size": 0}},
            {"kind": "campaign", "spec": {"triage": "sometimes"}},
            {"kind": "experiment", "spec": {"scale": "galactic"}},
            {"kind": "experiment", "spec": {"artifacts": ["table99"]}},
        ],
    )
    def test_bad_specs_rejected_at_submission(self, body):
        with pytest.raises(ProtocolError):
            JobSpec.from_dict(body)

    @pytest.mark.parametrize("workers", BAD_WORKERS)
    def test_bad_campaign_workers_rejected_at_submission(self, workers, refuse_pools):
        spec = dict(TINY_CAMPAIGN.to_json(), workers=workers)
        with pytest.raises(ProtocolError, match="workers"):
            JobSpec.from_dict({"kind": "campaign", "spec": spec})


# ----------------------------------------------------------------------
# JobManager directly
# ----------------------------------------------------------------------


class TestJobManager:
    def test_submit_run_journal_and_artifacts(self, tmp_path, tiny_digest):
        manager = JobManager(tmp_path)
        manager.start()
        try:
            record = manager.submit("campaign", TINY_CAMPAIGN.to_json())
            assert record.id == "job-0001"
            assert record.state == "queued"
            done = wait_until(
                lambda: manager.get(record.id).state in ("done", "failed")
                and manager.get(record.id)
            )
            assert done.state == "done", done.error
            assert done.history == ["queued", "running", "done"]
            assert done.result["digest"] == tiny_digest

            journal = json.loads(
                (tmp_path / "job-0001" / "job.json").read_text()
            )
            assert journal["state"] == "done"
            assert journal["result"]["digest"] == tiny_digest

            artifacts = manager.artifacts(record.id)
            names = {entry["path"] for entry in artifacts["files"]}
            assert "campaign.json" in names
            assert "checkpoint.json" in names
        finally:
            assert manager.checkpoint_and_stop(timeout=30.0)

    def test_invalid_spec_becomes_failed_not_a_crash(self, tmp_path):
        manager = JobManager(tmp_path)
        manager.start()
        try:
            record = manager.submit("campaign", {"batch_size": 0})
            done = wait_until(
                lambda: manager.get(record.id).state in ("done", "failed")
                and manager.get(record.id)
            )
            assert done.state == "failed"
            assert "batch_size" in done.error
        finally:
            manager.checkpoint_and_stop(timeout=30.0)

    def test_get_unknown_job_raises(self, tmp_path):
        with pytest.raises(KeyError):
            JobManager(tmp_path).get("job-9999")

    def _write_journal(self, tmp_path, job_id: str, state: str) -> None:
        job_dir = tmp_path / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        (job_dir / "job.json").write_text(json.dumps({
            "id": job_id,
            "kind": "campaign",
            "spec": TINY_CAMPAIGN.to_json(),
            "state": state,
            "history": ["queued", state] if state != "queued" else ["queued"],
        }))

    def test_recovery_running_without_work_requeues(self, tmp_path, tiny_digest):
        self._write_journal(tmp_path, "job-0001", "running")
        manager = JobManager(tmp_path)
        record = manager.get("job-0001")
        assert record.state == "queued"
        assert record.history[-2:] == ["running", "queued"]
        manager.start()
        try:
            done = wait_until(
                lambda: manager.get("job-0001").state in ("done", "failed")
                and manager.get("job-0001")
            )
            assert done.state == "done", done.error
            assert done.result["digest"] == tiny_digest
        finally:
            manager.checkpoint_and_stop(timeout=30.0)

    def test_recovery_running_with_checkpoint_resumes(self, tmp_path, tiny_digest):
        """A journaled ``running`` job whose work dir holds a real
        checkpoint comes back as ``checkpointed`` and completes to the
        uninterrupted digest."""
        self._write_journal(tmp_path, "job-0001", "running")
        work = tmp_path / "job-0001" / "work"
        stop = threading.Event()
        stop.set()  # checkpoint straight after seeding
        partial = Campaign(TINY_CAMPAIGN).run(checkpoint_dir=str(work), stop=stop)
        assert partial.interrupted

        manager = JobManager(tmp_path)
        assert manager.get("job-0001").state == "checkpointed"
        manager.start()
        try:
            done = wait_until(
                lambda: manager.get("job-0001").state in ("done", "failed")
                and manager.get("job-0001")
            )
            assert done.state == "done", done.error
            assert done.result["digest"] == tiny_digest
        finally:
            manager.checkpoint_and_stop(timeout=30.0)

    def test_recovery_preserves_terminal_states_and_id_sequence(self, tmp_path):
        self._write_journal(tmp_path, "job-0001", "done")
        self._write_journal(tmp_path, "job-0002", "failed")
        manager = JobManager(tmp_path)
        assert [r.state for r in manager.list()] == ["done", "failed"]
        record = manager.submit("campaign", TINY_CAMPAIGN.to_json())
        assert record.id == "job-0003"
        snapshot = manager.snapshot()
        assert snapshot["total"] == 3
        assert snapshot["by_state"]["queued"] == 1


# ----------------------------------------------------------------------
# the HTTP face of jobs
# ----------------------------------------------------------------------


@pytest.fixture()
def jobs_server(tmp_path):
    server = make_server(
        port=0, max_latency=0.01, jobs_dir=str(tmp_path / "jobs")
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.service.drain(timeout=30.0)
        server.shutdown()
        server.server_close()
        thread.join(10.0)


def client_for(server, **kwargs) -> ServiceClient:
    host, port = server.server_address[:2]
    return ServiceClient(host=host, port=port, **kwargs)


class TestJobsHTTP:
    def test_submit_poll_artifacts_roundtrip(self, jobs_server, tiny_digest):
        client = client_for(jobs_server)
        record = client.submit_job("campaign", TINY_CAMPAIGN.to_json())
        assert record["state"] == "queued"

        finished = client.wait_for_job(record["id"], timeout=180.0)
        assert finished["state"] == "done", finished.get("error")
        assert finished["result"]["digest"] == tiny_digest

        listed = client.jobs()
        assert [job["id"] for job in listed] == [record["id"]]

        artifacts = client.job_artifacts(record["id"])
        names = {entry["path"] for entry in artifacts["files"]}
        assert "campaign.json" in names

        health = client.healthz()
        assert health["jobs"]["by_state"]["done"] == 1

    def test_pooled_campaign_job_gets_the_in_process_digest(
        self, jobs_server, tiny_digest
    ):
        client = client_for(jobs_server)
        spec = replace(TINY_CAMPAIGN, workers=2).to_json()
        record = client.submit_job("campaign", spec)
        finished = client.wait_for_job(record["id"], timeout=180.0)
        assert finished["state"] == "done", finished.get("error")
        assert finished["result"]["digest"] == tiny_digest

    def test_drain_after_a_pooled_campaign_job_leaves_no_worker(self, tmp_path):
        """The job's campaign borrows the process's shared pool, which
        outlives the job; the daemon's drain closes it."""
        from repro.pipeline import pool

        server = make_server(port=0, max_latency=0.01, jobs_dir=str(tmp_path / "jobs"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = client_for(server)
            spec = replace(TINY_CAMPAIGN, workers=2).to_json()
            record = client.submit_job("campaign", spec)
            finished = client.wait_for_job(record["id"], timeout=180.0)
            assert finished["state"] == "done", finished.get("error")
            workers = {p.pid for p in pool._shared._processes}
            assert len(workers) == 2
            assert {p.pid for p in multiprocessing.active_children()} == workers
        finally:
            server.service.drain(timeout=30.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)
        assert multiprocessing.active_children() == []

    def test_bad_spec_is_http_400(self, jobs_server):
        client = client_for(jobs_server)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job("campaign", {"batch_size": 0})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("workers", BAD_WORKERS)
    def test_bad_campaign_workers_is_http_400(self, jobs_server, workers, refuse_pools):
        client = client_for(jobs_server)
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job("campaign", dict(TINY_CAMPAIGN.to_json(), workers=workers))
        assert excinfo.value.status == 400
        assert client.jobs() == []

    def test_unknown_job_is_http_404(self, jobs_server):
        client = client_for(jobs_server)
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-9999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.job_artifacts("job-9999")
        assert excinfo.value.status == 404

    def test_jobs_disabled_is_http_503(self):
        server = make_server(port=0, max_latency=0.01)  # no jobs_dir
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = client_for(server, max_retries=0)
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.jobs()
            assert excinfo.value.status == 503
            assert "jobs API disabled" in str(excinfo.value)
        finally:
            server.service.drain(timeout=10.0)
            server.shutdown()
            server.server_close()
            thread.join(10.0)


# ----------------------------------------------------------------------
# the daemon as a process: checkpoint-then-drain, kill -9 mid-drain
# ----------------------------------------------------------------------


def _spawn_daemon(
    jobs_dir: Path, fault: str | None = None, extra: tuple[str, ...] = ()
) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop(faultinject.ENV_VAR, None)
    if fault is not None:
        env[faultinject.ENV_VAR] = fault
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--jobs-dir", str(jobs_dir), "--max-latency-ms", "5", "--no-cache",
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    assert match, f"no address in serve banner: {banner!r}"
    return proc, int(match.group(1))


def _finish(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate(timeout=10)


@pytest.mark.parametrize(
    "drain_fault,expected_rc",
    [
        # clean SIGTERM: checkpoint, drain, exit 0
        (None, 0),
        # kill -9 right after the checkpoint, mid-drain: the journal and
        # work dir must already hold everything a restart needs
        ("drain:mid=kill", -9),
    ],
    ids=["sigterm-drain", "kill-mid-drain"],
)
def test_sigterm_checkpoints_then_restart_completes(
    tmp_path, slow_digest, drain_fault, expected_rc
):
    jobs_dir = tmp_path / "jobs"
    # slow each round down so SIGTERM provably lands mid-campaign
    fault = "campaign:post-round=sleep:0.6"
    if drain_fault:
        fault += "," + drain_fault
    proc, port = _spawn_daemon(jobs_dir, fault=fault)
    try:
        client = ServiceClient(port=port, timeout=30)
        record = client.submit_job("campaign", SLOW_CAMPAIGN.to_json())
        job_id = record["id"]
        journal = jobs_dir / job_id / "job.json"
        checkpoint = jobs_dir / job_id / "work" / "checkpoint.json"

        wait_until(
            lambda: checkpoint.exists()
            and json.loads(journal.read_text())["state"] == "running",
            timeout=60.0,
        )
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == expected_rc

        # the journal records the interruption, not a torn mid-state
        journaled = json.loads(journal.read_text())
        assert journaled["state"] == "checkpointed"
        assert json.loads(checkpoint.read_text())["config"]["rounds"] == 4
    finally:
        _finish(proc)

    # a fresh daemon on the same journal resumes and finishes the job
    proc2, port2 = _spawn_daemon(jobs_dir)
    try:
        client = ServiceClient(port=port2, timeout=30)
        finished = client.wait_for_job(job_id, timeout=180.0)
        assert finished["state"] == "done", finished.get("error")
        assert finished["result"]["digest"] == slow_digest
        assert "checkpointed" in finished["history"]
        proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=60) == 0
    finally:
        _finish(proc2)


# ----------------------------------------------------------------------
# worker-pool faults against a real daemon
# ----------------------------------------------------------------------


def test_worker_killed_mid_batch_client_gets_control_verdicts(
    tmp_path, valid_acc_source
):
    """The acceptance scenario end to end: a pre-forked worker is
    SIGKILLed between executing a batch and reporting it.  The client
    must still get a 200 whose verdicts match the in-process executable
    spec (``workers=0``), and ``/v1/stats`` must count the restart."""
    from repro.service.protocol import ValidateRequest
    from repro.service.server import ValidationService

    # control digest from the single-process spec, no HTTP involved
    control_service = ValidationService(workers=0)
    try:
        control = []
        for name in ("a.c", "b.c"):
            response = control_service.submit(
                ValidateRequest(files=((name, valid_acc_source),))
            ).result(timeout=60.0)
            control.append(response["verdicts"])
    finally:
        control_service.drain(timeout=30.0)

    proc, port = _spawn_daemon(
        tmp_path / "jobs",
        fault="worker:pre-result@2=kill",
        extra=("--workers", "1"),
    )
    try:
        client = ServiceClient(port=port, timeout=60)
        served = []
        for name in ("a.c", "b.c"):
            # the second batch dies mid-flight and is retried on the
            # respawned worker; the client just sees a normal 200
            served.append(client.validate({name: valid_acc_source})["verdicts"])
        workers = client.stats()["service"]["workers"]
        assert served == control
        assert workers["restarts"] == 1
        assert workers["batches_dispatched"] == 2
        assert workers["alive"] == 1
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        _finish(proc)


def test_sigkill_daemon_with_workers_still_recovers_jobs(tmp_path, slow_digest):
    """kill -9 on a pooled daemon (no drain, orphaned workers) must
    lose at most one round: a restart on the same journal resumes the
    job to the uninterrupted digest, pool and all."""
    jobs_dir = tmp_path / "jobs"
    proc, port = _spawn_daemon(
        jobs_dir,
        fault="campaign:post-round=sleep:0.6",
        extra=("--workers", "1"),
    )
    try:
        client = ServiceClient(port=port, timeout=30)
        job_id = client.submit_job("campaign", SLOW_CAMPAIGN.to_json())["id"]
        checkpoint = jobs_dir / job_id / "work" / "checkpoint.json"
        wait_until(checkpoint.exists, timeout=60.0)
        proc.kill()  # SIGKILL: no checkpoint_and_stop, no pool close
        proc.wait(timeout=30)
    finally:
        _finish(proc)

    proc2, port2 = _spawn_daemon(jobs_dir, extra=("--workers", "1"))
    try:
        client = ServiceClient(port=port2, timeout=30)
        finished = client.wait_for_job(job_id, timeout=180.0)
        assert finished["state"] == "done", finished.get("error")
        assert finished["result"]["digest"] == slow_digest
        proc2.send_signal(signal.SIGTERM)
        assert proc2.wait(timeout=60) == 0
    finally:
        _finish(proc2)
