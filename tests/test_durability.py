"""Durability: fault injection, atomic writes, checkpoint/resume.

The crash-recovery contract this file proves:

* :mod:`repro.testing.faultinject` arms named points (env or
  programmatic) and the actions behave as documented;
* :mod:`repro.core.atomicio` never leaves a torn file — a fault fired
  *between* tmp write and rename leaves the previous content intact;
* a fuzz campaign interrupted at any instrumented point (round
  boundary, mid-checkpoint-write — via real ``SIGKILL`` in a
  subprocess) resumes with ``--resume`` to a **digest-identical**
  manifest;
* an experiment run killed after a cell checkpoint resumes to the same
  artifact bytes and digest, reusing the checkpointed cell.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.atomicio import atomic_write_json, atomic_write_text
from repro.experiments.rundir import (
    ExperimentRunSpec,
    load_run_spec,
    run_artifacts,
)
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.checkpoint import CheckpointError, load_checkpoint
from repro.pipeline.pool import ComputeWorkerCrash
from repro.testing import faultinject
from repro.testing.faultinject import FaultError, fault_point, install

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _disarm_faults():
    """No fault armed by one test may leak into the next."""
    faultinject.clear()
    yield
    faultinject.clear()


def small_config(**overrides) -> CampaignConfig:
    base = dict(seed=5, rounds=2, batch_size=6, seed_count=4, workers=2,
                triage="divergent")
    base.update(overrides)
    return CampaignConfig(**base)


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------


class TestFaultInject:
    def test_spec_grammar(self):
        points = faultinject._parse_spec(
            "a, b@3, c=raise, d@2=sleep:0.5, e=exit:7"
        )
        assert points["a"].remaining == 1 and points["a"].action == "kill"
        assert points["b"].remaining == 3 and points["b"].action == "kill"
        assert points["c"].action == "raise"
        assert points["d"].remaining == 2 and points["d"].action == "sleep:0.5"
        assert points["e"].action == "exit:7"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            faultinject._parse_spec("p@zero")
        with pytest.raises(ValueError):
            faultinject._parse_spec("p@0")

    def test_unarmed_point_is_a_noop(self):
        fault_point("nothing:armed:here")

    def test_hit_countdown_then_disarm(self):
        install("p", action="raise", hits=3)
        fault_point("p")
        fault_point("p")
        with pytest.raises(FaultError):
            fault_point("p")
        # one-shot actions disarm after firing
        fault_point("p")

    def test_sleep_action_refires(self):
        install("slow", action="sleep:0.0")
        fault_point("slow")
        fault_point("slow")  # still armed: sleeps widen windows repeatedly

    def test_callable_action_receives_point_name(self):
        seen = []
        install("probe", action=seen.append)
        fault_point("probe")
        assert seen == ["probe"]

    def test_unknown_action_rejected(self):
        install("p", action="explode")
        with pytest.raises(ValueError):
            fault_point("p")

    def test_env_spec_is_parsed_lazily(self, monkeypatch):
        monkeypatch.setenv(faultinject.ENV_VAR, "env:point=raise")
        monkeypatch.setattr(faultinject, "_points", None)
        with pytest.raises(FaultError):
            fault_point("env:point")


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------


class TestAtomicIO:
    def test_json_roundtrip_with_trailing_newline(self, tmp_path):
        path = tmp_path / "deep" / "artifact.json"
        atomic_write_json(path, {"b": 2, "a": 1}, indent=2, sort_keys=True)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_fault_between_write_and_rename_keeps_old_file(self, tmp_path):
        """The torn-write window: a crash after the tmp write but before
        the rename must leave the previous complete file untouched."""
        path = tmp_path / "state.json"
        atomic_write_text(path, "generation-1", fault_tag="unit")
        install("atomic-write:unit", action="raise")
        with pytest.raises(FaultError):
            atomic_write_text(path, "generation-2", fault_tag="unit")
        assert path.read_text() == "generation-1"
        assert not list(tmp_path.glob("*.tmp")), "tmp file leaked"

    def test_concurrent_writers_never_collide(self, tmp_path):
        path = tmp_path / "shared.json"
        errors = []

        def writer(value: int) -> None:
            try:
                for _ in range(20):
                    atomic_write_text(path, f"value-{value}" * 50)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # whoever won, the file is one complete payload, never interleaved
        content = path.read_text()
        assert any(content == f"value-{i}" * 50 for i in range(4))


# ----------------------------------------------------------------------
# campaign checkpoint/resume (in-process)
# ----------------------------------------------------------------------


class TestCampaignCheckpointResume:
    def test_stop_then_resume_is_digest_identical(self, tmp_path):
        config = small_config()
        control = Campaign(config).run(checkpoint_dir=str(tmp_path / "ctrl"))

        work = tmp_path / "work"
        stop = threading.Event()

        def halt_after_round_one(message: str) -> None:
            if message.startswith("round 1:"):
                stop.set()

        partial = Campaign(config).run(
            checkpoint_dir=str(work), progress=halt_after_round_one, stop=stop
        )
        assert partial.interrupted
        assert partial.stats.rounds == 1

        checkpoint = load_checkpoint(work)
        assert checkpoint is not None
        assert checkpoint.next_round == 2
        resumed = Campaign(config).run(
            checkpoint_dir=str(work), resume=checkpoint
        )
        assert not resumed.interrupted
        assert resumed.stats.rounds == config.rounds
        assert resumed.digest() == control.digest()
        # the observable payloads match entry by entry, not just the hash
        assert [e.test.source for e in resumed.corpus] == [
            e.test.source for e in control.corpus
        ]

    def test_resume_from_completed_checkpoint_replays_nothing(self, tmp_path):
        config = small_config()
        control = Campaign(config).run(checkpoint_dir=str(tmp_path))
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint.next_round == config.rounds + 1
        resumed = Campaign(config).run(resume=checkpoint)
        assert resumed.digest() == control.digest()

    def test_interrupted_before_any_round_resumes_from_seed(self, tmp_path):
        config = small_config()
        control = Campaign(config).run()
        stop = threading.Event()
        stop.set()  # stops at the round-1 boundary, straight after seeding
        partial = Campaign(config).run(checkpoint_dir=str(tmp_path), stop=stop)
        assert partial.interrupted and partial.stats.rounds == 0
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint.next_round == 1
        resumed = Campaign(config).run(resume=checkpoint)
        assert resumed.digest() == control.digest()

    def test_resume_rejects_mismatched_config(self, tmp_path):
        config = small_config()
        Campaign(config).run(checkpoint_dir=str(tmp_path))
        checkpoint = load_checkpoint(tmp_path)
        other = small_config(seed=6)
        with pytest.raises(ValueError, match="does not match"):
            Campaign(other).run(resume=checkpoint)

    def test_load_checkpoint_absent_and_malformed(self, tmp_path):
        assert load_checkpoint(tmp_path) is None
        (tmp_path / "checkpoint.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"version": 999})
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path)

    def test_checkpoint_every_skips_intermediate_rounds(self, tmp_path):
        config = small_config(rounds=3)
        Campaign(config).run(checkpoint_dir=str(tmp_path), checkpoint_every=5)
        # only the seed checkpoint and the forced final-round one land
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint.next_round == config.rounds + 1


class TestDifferentialWorkerKill:
    """A pool worker SIGKILLed mid-candidate stops the campaign with a
    typed error, leaves no child behind, and the checkpoint resumes."""

    def test_killed_worker_raises_typed_error_then_resume_matches(
        self, tmp_path, monkeypatch
    ):
        config = small_config(rounds=3)
        control = Campaign(replace(config, workers=1)).run()

        # hit N > seed_count in one worker is past the seed checkpoint;
        # the run computes enough candidates that some worker reaches it
        kill_at = config.seed_count + 1
        monkeypatch.setenv(
            faultinject.ENV_VAR, f"fuzz:worker-compute@{kill_at}=kill"
        )
        raised = []

        def crashing_run() -> None:
            try:
                Campaign(config).run(checkpoint_dir=str(tmp_path))
            except Exception as exc:  # noqa: BLE001 - asserted below
                raised.append(exc)

        runner = threading.Thread(target=crashing_run, daemon=True)
        started = time.monotonic()
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "the campaign hung on a dead worker"
        assert time.monotonic() - started < 30
        assert len(raised) == 1 and isinstance(raised[0], ComputeWorkerCrash)
        assert "candidate '" in str(raised[0])
        assert multiprocessing.active_children() == []

        monkeypatch.delenv(faultinject.ENV_VAR)
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint is not None
        resumed = Campaign(config).run(
            checkpoint_dir=str(tmp_path), resume=checkpoint
        )
        assert resumed.digest() == control.digest()


# ----------------------------------------------------------------------
# kill -9 + --resume through the real CLI
# ----------------------------------------------------------------------


def _fuzz_cli(out: Path, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro.cli", "fuzz", "run",
        "--seed", "5", "--rounds", "2", "--batch", "4",
        "--corpus-seeds", "3", "--workers", "1",
        "--triage", "off", "--no-cache", "--out", str(out), *extra,
    ]


def _run_cli(cmd: list[str], fault: str | None = None) -> subprocess.CompletedProcess:
    import os

    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop(faultinject.ENV_VAR, None)
    if fault is not None:
        env[faultinject.ENV_VAR] = fault
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


def _live_processes_mentioning(marker: str, grace: float = 5.0) -> list[int]:
    """Pids whose command line names ``marker``, once ``grace`` seconds
    have passed for orphans to notice their parent is gone."""
    proc = Path("/proc")
    if not proc.is_dir():
        pytest.skip("needs /proc to find orphaned workers")
    deadline = time.monotonic() + grace
    while True:
        pids = []
        for entry in proc.iterdir():
            if not entry.name.isdigit():
                continue
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if marker.encode() in cmdline:
                pids.append(int(entry.name))
        if not pids or time.monotonic() > deadline:
            return pids
        time.sleep(0.2)


def _campaign_digest(out: Path) -> str:
    return json.loads((out / "campaign.json").read_text())["digest"]


@pytest.fixture(scope="module")
def control_campaign(tmp_path_factory) -> str:
    """One uninterrupted CLI campaign; its digest is the ground truth."""
    out = tmp_path_factory.mktemp("fuzz-control") / "ctrl"
    proc = _run_cli(_fuzz_cli(out))
    assert proc.returncode == 0, proc.stderr
    return _campaign_digest(out)


class TestKillResumeCLI:
    @pytest.mark.parametrize(
        "fault",
        [
            # killed right after round 1's checkpoint landed
            "campaign:post-round@1=kill",
            # killed *mid-write* of round 1's checkpoint (hit 1 is the
            # seed-phase checkpoint): the seed checkpoint must survive
            # intact and the resume replays both rounds
            "atomic-write:checkpoint@2=kill",
        ],
    )
    def test_sigkill_then_resume_matches_control(
        self, tmp_path, control_campaign, fault
    ):
        out = tmp_path / "crashed"
        crashed = _run_cli(_fuzz_cli(out), fault=fault)
        assert crashed.returncode == -9, (
            f"expected SIGKILL, got rc={crashed.returncode}\n{crashed.stderr}"
        )
        assert "faultinject: SIGKILL" in crashed.stderr
        assert not (out / "campaign.json").exists()
        assert (out / "checkpoint.json").exists()

        resumed = _run_cli(
            [
                sys.executable, "-m", "repro.cli", "fuzz", "run",
                "--resume", str(out), "--no-cache",
            ]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming campaign" in resumed.stdout
        assert _campaign_digest(out) == control_campaign

    def test_killed_fuzz_worker_exits_nonzero_then_resume_matches(
        self, tmp_path, control_campaign
    ):
        out = tmp_path / "crashed"
        # hit 4 in one worker lands past the 3-seed checkpoint
        crashed = _run_cli(
            _fuzz_cli(out, "--workers", "2"), fault="fuzz:worker-compute@4=kill"
        )
        assert crashed.returncode == 3, crashed.stderr
        assert "differential worker process died" in crashed.stderr
        assert not _live_processes_mentioning(str(out))
        assert (out / "checkpoint.json").exists()

        resumed = _run_cli(
            [
                sys.executable, "-m", "repro.cli", "fuzz", "run",
                "--resume", str(out), "--no-cache",
            ]
        )
        assert resumed.returncode == 0, resumed.stderr
        assert _campaign_digest(out) == control_campaign

    def test_sigkilled_pooled_campaign_leaves_no_worker(self, tmp_path):
        out = tmp_path / "killed"
        crashed = _run_cli(
            _fuzz_cli(out, "--workers", "2"), fault="campaign:post-round@1=kill"
        )
        assert crashed.returncode == -9, crashed.stderr
        assert not _live_processes_mentioning(str(out))

    def test_resume_without_checkpoint_is_a_clean_error(self, tmp_path):
        proc = _run_cli(
            [
                sys.executable, "-m", "repro.cli", "fuzz", "run",
                "--resume", str(tmp_path / "nowhere"), "--no-cache",
            ]
        )
        assert proc.returncode == 2
        assert "no checkpoint" in proc.stderr


# ----------------------------------------------------------------------
# experiment run directories
# ----------------------------------------------------------------------


def _table3_spec() -> ExperimentRunSpec:
    return ExperimentRunSpec(
        scale="tiny", artifacts=("table3",), backend="closure", jobs=1
    )


class TestExperimentResume:
    def test_fault_after_first_cell_then_resume(self, tmp_path):
        control = run_artifacts(_table3_spec(), tmp_path / "ctrl")

        work = tmp_path / "work"
        install("experiment:post-cell", action="raise")
        with pytest.raises(FaultError):
            run_artifacts(_table3_spec(), work)
        faultinject.clear()
        # exactly one of table3's two cells landed before the fault
        assert len(list((work / "cells").glob("*.pkl"))) == 1
        assert load_run_spec(work) == _table3_spec()

        resumed = run_artifacts(_table3_spec(), work)
        assert resumed.reused_cells == 1
        assert resumed.computed_cells == 1
        assert resumed.digest == control.digest
        assert resumed.texts == control.texts
        assert (work / "artifacts.md").read_bytes() == (
            tmp_path / "ctrl" / "artifacts.md"
        ).read_bytes()

    def test_stop_between_cells_checkpoints_progress(self, tmp_path):
        stop = threading.Event()

        def stop_after_first(name: str) -> None:
            stop.set()

        install("experiment:post-cell", action=stop_after_first)
        with pytest.raises(InterruptedError):
            run_artifacts(_table3_spec(), tmp_path, stop=stop)
        assert len(list((tmp_path / "cells").glob("*.pkl"))) == 1

    def test_cli_kill_then_resume_matches_control(self, tmp_path):
        control = run_artifacts(_table3_spec(), tmp_path / "ctrl")

        work = tmp_path / "work"
        base = [
            sys.executable, "-m", "repro.cli", "experiment",
            "--scale", "tiny", "--no-cache",
        ]
        crashed = _run_cli(
            base + ["table3", "--run-dir", str(work)],
            fault="experiment:post-cell@1=kill",
        )
        assert crashed.returncode == -9, crashed.stderr
        assert len(list((work / "cells").glob("*.pkl"))) == 1

        resumed = _run_cli(base + ["--resume", str(work)])
        assert resumed.returncode == 0, resumed.stderr
        progress = json.loads((work / "progress.json").read_text())
        assert progress["state"] == "done"
        assert progress["digest"] == control.digest
        assert (work / "artifacts.md").read_bytes() == (
            tmp_path / "ctrl" / "artifacts.md"
        ).read_bytes()

    def test_cli_resume_without_run_is_a_clean_error(self, tmp_path):
        proc = _run_cli(
            [
                sys.executable, "-m", "repro.cli", "experiment",
                "--resume", str(tmp_path / "nowhere"), "--no-cache",
            ]
        )
        assert proc.returncode == 2
        assert "no run to resume" in proc.stderr
