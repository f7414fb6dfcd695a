"""The fuzzing subsystem: operators, differential oracle, campaigns.

Covers the ISSUE-5 acceptance criteria directly:

* seeded campaigns are byte-reproducible (same seed twice, replay from
  a manifest, and invariance under worker-count changes);
* the differential oracle flags any observable walk/closure divergence
  as a :class:`Discrepancy`;
* the minimizer preserves the coverage frontier;
* the ``fuzz`` cache namespace persists/loads through the bundle;
* the CLI (``fuzz run|replay|minimize|report``, ``coverage``) and the
  campaign totals on the service's ``GET /v1/metrics`` surface the
  engine.
"""

from __future__ import annotations

import os
import random
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro.cache.bundle import NAMESPACE_NAMES, PipelineCache
from repro.cli import main as cli_main
from repro.corpus.generator import CorpusGenerator, TestFile
from repro.fuzz.campaign import Campaign, CampaignConfig
from repro.fuzz.differential import (
    DifferentialOutcome,
    DifferentialRunner,
    Discrepancy,
    divergent_fields,
)
from repro.obs.metrics import get_metrics, reset_metrics, series
from repro.pipeline.engine import cached
from repro.obs.trace import Tracer, installed
from repro.runtime.interpreter import EXECUTION_BACKENDS
from repro.fuzz.manifest import (
    CampaignManifest,
    ReplayError,
    load_campaign_dir,
    replay_manifest,
    save_campaign,
)
from repro.fuzz.minimize import minimize_corpus
from repro.fuzz.operators import default_operators, operators_by_name
from repro.fuzz.stages import STAGES
from repro.fuzz.signature import (
    behavior_signature,
    coverage_keys,
    steps_bucket,
    stdout_class,
)
from repro.probing.mutators import MutationError
from repro.runtime.executor import ExecutionResult


@pytest.fixture(scope="module")
def fuzz_seeds() -> list[TestFile]:
    return CorpusGenerator(seed=31, validate=False).generate(
        "acc", 8, languages=("c", "cpp")
    )


def small_config(**overrides) -> CampaignConfig:
    base = dict(seed=5, rounds=2, batch_size=8, seed_count=4, workers=2,
                triage="divergent")
    base.update(overrides)
    return CampaignConfig(**base)


# ----------------------------------------------------------------------
# operators
# ----------------------------------------------------------------------


class TestOperators:
    def test_default_suite_names(self):
        names = [op.name for op in default_operators()]
        assert names == [
            "issue0", "issue1", "issue2", "issue3", "issue4",
            "clause-shuffle", "bound-perturb", "nesting-splice", "dead-store",
        ]
        assert len(set(names)) == len(names)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown operators"):
            operators_by_name(("no-such-op",))

    def test_each_operator_mutates_or_typed_skips(self, fuzz_seeds):
        """Every operator either changes the source or raises the typed
        MutationError — never any other exception."""
        for op in default_operators():
            changed = 0
            for seed_no, test in enumerate(fuzz_seeds):
                rng = random.Random(900 + seed_no)
                try:
                    out = op.apply(test, rng)
                except MutationError:
                    continue
                assert isinstance(out, TestFile)
                assert out.source  # never empty
                if out.source != test.source:
                    changed += 1
            assert changed > 0, f"{op.name} never produced a variant"

    def test_operators_deterministic_under_explicit_rng(self, fuzz_seeds):
        test = fuzz_seeds[0]
        for op in default_operators():
            try:
                a = op.apply(test, random.Random(77)).source
            except MutationError:
                continue
            b = op.apply(test, random.Random(77)).source
            assert a == b, f"{op.name} not deterministic under a seeded rng"

    def test_operators_independent_of_global_random(self, fuzz_seeds):
        """Satellite: mutation must depend only on the explicit rng, so
        campaigns are reproducible without global seeding."""
        test = fuzz_seeds[1]
        outputs = []
        for global_seed in (1, 999):
            random.seed(global_seed)
            row = []
            for op in default_operators():
                try:
                    row.append(op.apply(test, random.Random(13)).source)
                except MutationError:
                    row.append(None)
            outputs.append(row)
        assert outputs[0] == outputs[1]

    def test_clause_shuffle_preserves_tokens(self, fuzz_seeds):
        op = operators_by_name(("clause-shuffle",))[0]
        for seed_no, test in enumerate(fuzz_seeds):
            rng = random.Random(seed_no)
            try:
                out = op.apply(test, rng)
            except MutationError:
                continue
            # same multiset of non-whitespace characters per file: only
            # clause order moved
            assert sorted(out.source.split()) == sorted(test.source.split())
            assert out.source != test.source
            return
        pytest.skip("no shufflable seed in fixture")

    def test_bound_perturb_keeps_test_green(self):
        source = """#include <stdio.h>
#define N 64

int main() {
    int a[N];
    int sum = 0;
    int expected = 0;
    for (int i = 0; i < N; i++) {
        a[i] = i;
        expected = expected + i;
    }
    for (int i = 0; i < N; i++) {
        sum = sum + a[i];
    }
    if (sum != expected) {
        printf("FAILED\\n");
        return 1;
    }
    printf("PASSED\\n");
    return 0;
}
"""
        test = TestFile(name="bp.c", language="c", model="acc", source=source,
                        template="t", features=())
        op = operators_by_name(("bound-perturb",))[0]
        out = op.apply(test, random.Random(3))
        assert "#define N 64" not in out.source
        runner = DifferentialRunner(model="acc", step_limit=100_000)
        outcome = runner.run(out)
        assert outcome.compiled and not outcome.divergent
        assert outcome.closure.returncode == 0

    def test_dead_store_is_semantics_preserving(self, fuzz_seeds):
        op = operators_by_name(("dead-store",))[0]
        test = fuzz_seeds[0]
        out = op.apply(test, random.Random(5))
        assert "__fz_dead" in out.source
        runner = DifferentialRunner(model="acc", step_limit=400_000)
        base = runner.run(test)
        mutated = runner.run(out)
        assert base.compiled and mutated.compiled
        assert mutated.closure.returncode == base.closure.returncode
        assert mutated.closure.stdout == base.closure.stdout
        assert mutated.closure.steps > base.closure.steps

    def test_issue3_operator_clears_features(self, fuzz_seeds):
        op = operators_by_name(("issue3",))[0]
        out = op.apply(fuzz_seeds[0], random.Random(1))
        assert out.features == ()
        assert out.issue == 3

    def test_operators_skip_empty_and_f90_inputs(self):
        empty = TestFile(name="e.c", language="c", model="acc", source="",
                         template="t")
        fortran = TestFile(name="f.f90", language="f90", model="acc",
                           source="program p\nend program p\n", template="t")
        for op in operators_by_name(
            ("clause-shuffle", "bound-perturb", "nesting-splice", "dead-store")
        ):
            with pytest.raises(MutationError):
                op.apply(empty, random.Random(0))
            with pytest.raises(MutationError):
                op.apply(fortran, random.Random(0))


# ----------------------------------------------------------------------
# signatures
# ----------------------------------------------------------------------


class TestSignatures:
    def test_steps_bucket_log_scale(self):
        assert steps_bucket(0) == "s0"
        assert steps_bucket(7) == "s1e0"
        assert steps_bucket(99) == "s1e1"
        assert steps_bucket(1234) == "s1e3"
        assert steps_bucket(1234) == steps_bucket(9999)

    def test_stdout_classes(self):
        assert stdout_class("") == "empty"
        assert stdout_class("Test passed\n") == "pass"
        assert stdout_class("saxpy failed: 3 mismatches\n") == "fail"
        assert stdout_class("s=42\n") == "other"

    def test_compile_fail_signature_uses_codes_not_text(self):
        a = DifferentialOutcome(compile_rc=1, diagnostic_codes=("undeclared-identifier",),
                                compile_stderr="a.c:1: error: x")
        b = DifferentialOutcome(compile_rc=1, diagnostic_codes=("undeclared-identifier",),
                                compile_stderr="completely different text")
        assert behavior_signature(a) == behavior_signature(b)
        assert behavior_signature(a).startswith("compile-fail:")

    def test_divergent_signature_is_marked(self):
        ok = ExecutionResult(returncode=0, stdout="x", stderr="", steps=10)
        bad = ExecutionResult(returncode=1, stdout="x", stderr="", steps=10)
        outcome = DifferentialOutcome(
            compile_rc=0, results={"walk": ok, "closure": bad},
            divergent_fields=divergent_fields(ok, bad),
        )
        assert behavior_signature(outcome) == "DIVERGENT"

    def test_coverage_keys_cross_features_with_signature(self):
        test = TestFile(name="t.c", language="c", model="acc", source="x",
                        template="t", features=("acc.atomic",))
        keys = coverage_keys(test, "rc0:clean:s1e3:pass")
        assert "feat:acc.atomic" in keys
        assert "sig:rc0:clean:s1e3:pass" in keys
        assert "cell:acc.atomic|rc0:clean:s1e3:pass" in keys


# ----------------------------------------------------------------------
# differential oracle
# ----------------------------------------------------------------------


class TestDifferential:
    def test_valid_seed_has_no_divergence(self, fuzz_seeds):
        runner = DifferentialRunner(model="acc", step_limit=400_000)
        outcome = runner.run(fuzz_seeds[0])
        assert outcome.compiled
        assert not outcome.divergent
        assert outcome.executions == len(EXECUTION_BACKENDS)
        assert set(outcome.results) == set(EXECUTION_BACKENDS)
        reference = outcome.walk
        for arm, run in outcome.results.items():
            assert run == reference, f"arm {arm} diverged from walk"

    def test_compile_failure_runs_nothing(self):
        test = TestFile(name="bad.c", language="c", model="acc",
                        source="int main() { return x; }", template="t")
        outcome = DifferentialRunner(model="acc").run(test)
        assert not outcome.compiled
        assert outcome.executions == 0
        assert outcome.walk is None and outcome.closure is None

    def test_outcome_json_round_trip(self, fuzz_seeds):
        outcome = DifferentialRunner(model="acc", step_limit=400_000).run(fuzz_seeds[1])
        back = DifferentialOutcome.from_json(outcome.to_json())
        assert back == outcome

    def test_cache_hit_skips_recompute(self, fuzz_seeds):
        cache = PipelineCache()
        runner = DifferentialRunner(model="acc", step_limit=400_000)
        first = runner.run(fuzz_seeds[2], cached(cache))
        assert cache.fuzz.misses == 1
        second = runner.run(fuzz_seeds[2], cached(cache))
        assert cache.fuzz.hits == 1
        assert second == first

    def test_divergence_becomes_discrepancy(self, fuzz_seeds, monkeypatch):
        """Force the walk backend to lie; the oracle must notice."""
        runner = DifferentialRunner(model="acc", step_limit=400_000)
        real_run = runner.walk.run

        def lying_run(compiled):
            result = real_run(compiled)
            return replace(result, returncode=result.returncode + 40)

        monkeypatch.setattr(runner.walk, "run", lying_run)
        outcome = runner.run(fuzz_seeds[0])
        assert outcome.divergent
        assert outcome.divergent_fields == ("returncode",)
        assert behavior_signature(outcome) == "DIVERGENT"

    def test_discrepancy_json_round_trip(self):
        finding = Discrepancy(
            name="fz.c", operator="dead-store", source="int main(){}",
            fields=("steps",),
            results={"walk": {"steps": 10}, "closure": {"steps": 11}},
        )
        assert Discrepancy.from_json(finding.to_json()) == finding
        assert "dead-store" in finding.render()


# ----------------------------------------------------------------------
# campaign engine
# ----------------------------------------------------------------------


class TestCampaign:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(triage="sometimes")
        with pytest.raises(ValueError):
            CampaignConfig(batch_size=0)

    def test_config_json_round_trip(self):
        config = small_config(operators=("issue0", "dead-store"))
        assert CampaignConfig.from_json(config.to_json()) == config

    def test_campaign_discovers_coverage(self):
        result = Campaign(small_config()).run()
        assert result.stats.accepted >= 1
        assert len(result.corpus) > result.config.seed_count
        assert result.stats.executions > 0
        # frontier growth is monotone and the curve has one point per
        # round plus the seeding round
        curve = result.stats.coverage_curve
        assert len(curve) == result.config.rounds + 1
        assert curve == sorted(curve)
        assert curve[-1] > curve[0]

    def test_shipped_templates_have_zero_discrepancies(self):
        result = Campaign(small_config()).run()
        assert result.findings == []

    def test_same_seed_is_byte_reproducible(self):
        config = small_config()
        a = Campaign(config).run()
        b = Campaign(config).run()
        assert a.digest() == b.digest()
        assert [e.test.source for e in a.corpus] == [e.test.source for e in b.corpus]
        assert a.coverage.render() == b.coverage.render()

    @pytest.mark.parametrize("triage", ["divergent", "all", "off"])
    def test_worker_count_never_changes_the_outcome(self, triage):
        config = small_config(triage=triage)
        serial = Campaign(replace(config, workers=1)).run()
        parallel = Campaign(replace(config, workers=4)).run()
        assert serial.digest() == parallel.digest()
        assert serial.stats.judge_calls == parallel.stats.judge_calls
        assert (serial.stats.judge_calls > 0) == (triage == "all")

    def test_different_seeds_diverge(self):
        a = Campaign(small_config(seed=5)).run()
        b = Campaign(small_config(seed=6)).run()
        assert a.digest() != b.digest()

    def test_operator_weights_adapt(self):
        result = Campaign(small_config(rounds=3, batch_size=12)).run()
        states = result.operator_states
        assert any(s.accepted for s in states.values())
        rewarded = [s.weight for s in states.values() if s.accepted]
        assert max(rewarded) > 1.0

    def test_triage_all_judges_survivors(self):
        result = Campaign(small_config(triage="all")).run()
        assert result.stats.judge_calls > 0

    def test_triage_off_never_judges(self):
        result = Campaign(small_config(triage="off")).run()
        assert result.stats.judge_calls == 0

    def test_fuzz_cache_warm_start(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = PipelineCache(cache_dir=cache_dir)
        config = small_config()
        cold = Campaign(config, cache=cache).run()
        assert cache.fuzz.misses > 0
        cache.save()

        warm_cache = PipelineCache(cache_dir=cache_dir)
        assert warm_cache.load() > 0
        warm = Campaign(config, cache=warm_cache).run()
        assert warm_cache.fuzz.hits > 0
        assert warm_cache.fuzz.misses == 0
        assert warm.digest() == cold.digest()

    def test_fuzz_namespace_in_bundle(self, tmp_path):
        assert "fuzz" in NAMESPACE_NAMES
        cache = PipelineCache(cache_dir=tmp_path)
        cache.fuzz.put("k", {"compile_rc": 0})
        assert cache.save()
        assert (tmp_path / "fuzz.json").exists()

    def test_max_corpus_cap_is_counted_not_silent(self):
        capped = Campaign(small_config(rounds=3, batch_size=12, max_corpus=6)).run()
        # no divergences on the shipped templates, so the cap is exact
        assert len(capped.corpus) == 6
        assert capped.stats.cap_dropped > 0
        assert capped.stats.accepted == capped.stats.cap_dropped + (
            len(capped.corpus) - capped.config.seed_count
        )
        assert "dropped at the max_corpus cap" in capped.render_report()

    def test_repeat_divergent_witness_still_enters_corpus(self):
        """Every Discrepancy must have a runnable reproducer in the
        corpus, even when its frontier keys are already covered."""
        from repro.fuzz.campaign import CampaignStats, CoverageFrontier, OperatorState
        from repro.fuzz.stages import Candidate

        campaign = Campaign(small_config())
        frontier = CoverageFrontier()
        states = {"dead-store": OperatorState("dead-store")}
        stats = CampaignStats()
        ok = ExecutionResult(returncode=0, stdout="x", stderr="", steps=10)
        bad = ExecutionResult(returncode=1, stdout="x", stderr="", steps=10)

        def divergent_candidate(name: str) -> Candidate:
            test = TestFile(name=name, language="c", model="acc",
                            source=f"// {name}", template="t", features=())
            return Candidate(
                index=0, parent=test, operator="dead-store", seed=1, test=test,
                outcome=DifferentialOutcome(
                    compile_rc=0, results={"walk": ok, "closure": bad},
                    divergent_fields=divergent_fields(ok, bad),
                ),
            )

        findings, flags = [], []
        first = campaign._absorb(divergent_candidate("w1.c"), frontier, states,
                                 stats, findings, flags)
        second = campaign._absorb(divergent_candidate("w2.c"), frontier, states,
                                  stats, findings, flags)
        assert first is not None and first.signature == "DIVERGENT"
        assert second is not None, "repeat witness was dropped"
        assert len(findings) == 2

    def test_metrics_count_campaigns(self):
        baseline = get_metrics().export_state()
        result = Campaign(small_config()).run()
        grown = {
            key[1]: value for key, value in get_metrics().diff(baseline)[0].items()
            if key[1].startswith("fuzz_")
        }
        assert grown["fuzz_campaigns_total"] == 1
        assert grown["fuzz_executions_total"] == result.stats.executions
        assert grown["fuzz_accepted_total"] == result.stats.accepted
        assert grown.get("fuzz_discrepancies_total", 0) == len(result.findings)
        assert grown.get("fuzz_triage_flags_total", 0) == len(result.triage_flags)


def _fuzz_counts(delta: dict) -> dict:
    """The campaign's ``fuzz_*`` counters, its stage counts and its
    ``fuzz`` and ``judge`` cache lookups from a registry diff; the
    time-valued series (busy and simulated seconds, wall) are left out."""
    counts = {}
    for (kind, name, labels), value in delta.items():
        if kind == "counter" and name.startswith("fuzz_"):
            counts[name] = value
        elif dict(labels).get("stage") in STAGES:
            if name == "pipeline_stage_seconds":
                counts[(name, labels)] = value["count"]
            elif name != "pipeline_stage_simulated_seconds_total":
                counts[(name, labels)] = value
    for labels, value in series(delta, "cache_lookups_total"):
        if labels["namespace"] in ("fuzz", "judge"):
            counts[f"cache_lookups_total{{{labels['namespace']},{labels['result']}}}"] = value
    return counts


class TestDifferentialPool:
    """``workers >= 2`` runs the oracle in the process's shared compute
    pool; ``workers=1`` is the in-process spec it must match."""

    def test_spawned_pool_matches_the_in_process_digest(
        self, monkeypatch, only_shared_workers
    ):
        from repro.pipeline import pool as compute

        monkeypatch.setattr(compute, "default_start_method", lambda: "spawn")
        config = small_config(rounds=1)
        serial = Campaign(replace(config, workers=1)).run()
        pooled = Campaign(config).run()
        assert pooled.digest() == serial.digest()
        only_shared_workers()

    def test_traced_pool_parents_worker_spans_under_the_run_span(self):
        tracer = Tracer()
        with installed(tracer):
            result = Campaign(small_config(rounds=1)).run()
        spans = tracer.spans
        by_id = {s.span_id: s for s in spans}
        remote = [s for s in spans if s.name == "worker.differential"]
        # without a cache, every mutated candidate's chain ran in a worker
        assert len(remote) == result.stats.applied > 0
        for span in remote:
            run = by_id[span.parent_id]
            assert run.name == "scheduler.run" and run.pid == os.getpid()
            assert span.pid != os.getpid()
            held = [
                s for s in spans
                if s.parent_id == span.span_id and s.name == "stage.differential"
            ]
            assert len(held) == 1 and held[0].attrs["file"] == span.attrs["file"]
        assert not any(
            s.name == "stage.differential" and s.pid == os.getpid() for s in spans
        )

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "fresh-cache"])
    @pytest.mark.parametrize("triage", ["divergent", "all", "off"])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_counts_equal_in_process_counts(
        self, start_method, triage, cached, monkeypatch, only_shared_workers
    ):
        from repro.pipeline import pool as compute

        monkeypatch.setattr(compute, "default_start_method", lambda: start_method)
        config = small_config(rounds=1, triage=triage)
        runs = []
        for workers in (1, 2):
            baseline = get_metrics().export_state()
            result = Campaign(
                replace(config, workers=workers), cache=PipelineCache() if cached else None
            ).run()
            runs.append((result.digest(), _fuzz_counts(get_metrics().diff(baseline)[0])))
        counts = runs[0][1]
        assert counts["fuzz_campaigns_total"] == 1
        assert ("cache_lookups_total{fuzz,miss}" in counts) == cached
        assert ("cache_lookups_total{judge,miss}" in counts) == (cached and triage == "all")
        assert runs[1] == runs[0]
        only_shared_workers()

    def test_a_cache_loaded_from_disk_computes_nothing_in_a_worker(
        self, tmp_path, monkeypatch
    ):
        """A pooled ``triage="all"`` campaign over a cache saved by the
        same campaign holds every chain whole: no candidate's
        differential or judgment is computed again."""
        from repro.pipeline import pool as compute
        from repro.fuzz import differential
        from repro.judge.llmj import AgentLLMJ

        config = small_config(rounds=1, triage="all")
        first = PipelineCache(cache_dir=tmp_path)
        expected = Campaign(config, cache=first).run()
        first.save()
        warm = PipelineCache(cache_dir=tmp_path)
        assert warm.load() > 0

        def refuse(*args, **kwargs):
            raise AssertionError("a cached chain was computed again")

        # forked workers inherit the patches
        monkeypatch.setattr(compute, "default_start_method", lambda: "fork")
        monkeypatch.setattr(AgentLLMJ, "judge", refuse)
        monkeypatch.setattr(differential, "compile_and_run", refuse)
        baseline = get_metrics().export_state()
        campaign = Campaign(config, cache=warm)
        served = campaign.run()
        counts = _fuzz_counts(get_metrics().diff(baseline)[0])
        assert served.digest() == expected.digest()
        assert counts["cache_lookups_total{fuzz,hit}"] > 0
        assert counts["cache_lookups_total{judge,hit}"] == expected.stats.judge_calls > 0
        assert not any(key.endswith(",miss}") for key in counts if isinstance(key, str))
        assert campaign.model_sim.stats.calls == 0

    def test_an_in_process_campaign_starts_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"thread {self.name!r} started")

        config = small_config(rounds=1, workers=1, triage="all")
        expected = Campaign(config).run().digest()
        monkeypatch.setattr(threading.Thread, "start", refuse)
        cache = PipelineCache()
        for _ in range(2):  # cold, then warm
            assert Campaign(config, cache=cache).run().digest() == expected


# ----------------------------------------------------------------------
# manifest + replay
# ----------------------------------------------------------------------


class TestManifestReplay:
    @pytest.fixture(scope="class")
    def campaign_result(self):
        return Campaign(small_config(rounds=2, batch_size=10)).run()

    def test_manifest_json_round_trip(self, campaign_result):
        manifest = CampaignManifest.from_result(campaign_result)
        back = CampaignManifest.from_json(manifest.to_json())
        assert back.digest == manifest.digest
        assert back.schedule == manifest.schedule
        assert back.config == manifest.config

    def test_replay_is_byte_identical(self, campaign_result):
        manifest = CampaignManifest.from_result(campaign_result)
        replayed, identical = replay_manifest(manifest)
        assert identical
        assert [e.test.source for e in replayed.corpus] == [
            e.test.source for e in campaign_result.corpus
        ]
        assert replayed.coverage.render() == campaign_result.coverage.render()
        assert [f.to_json() for f in replayed.findings] == [
            f.to_json() for f in campaign_result.findings
        ]

    def test_replay_ignores_warm_differential_cache(self, campaign_result, tmp_path):
        """A warm fuzz namespace must not feed replay: drift detection
        requires genuine re-execution, not a cache round-trip."""
        cache = PipelineCache(cache_dir=tmp_path)
        # warm the namespace with the original outcomes
        warm_run = Campaign(campaign_result.config, cache=cache).run()
        assert cache.fuzz.misses > 0
        fuzz_reads_before = cache.fuzz.hits + cache.fuzz.misses

        manifest = CampaignManifest.from_result(warm_run)
        replayed, identical = replay_manifest(manifest, cache=cache)
        assert identical
        # the fuzz namespace saw no further lookups at all
        assert cache.fuzz.hits + cache.fuzz.misses == fuzz_reads_before

    def test_replay_detects_drift(self, campaign_result):
        manifest = CampaignManifest.from_result(campaign_result)
        drifted = CampaignManifest.from_json(
            {**manifest.to_json(), "digest": "0" * 64}
        )
        _, identical = replay_manifest(drifted)
        assert not identical

    def test_replay_with_unknown_parent_reports_drift_not_crash(self, campaign_result):
        """Substrate drift that changes acceptance must surface as a
        digest MISMATCH, never an unhandled exception."""
        manifest = CampaignManifest.from_result(campaign_result)
        raw = manifest.to_json()
        assert raw["schedule"], "fixture campaign recorded no schedule"
        raw["schedule"][-1][0]["parent"] = "never_generated.c"
        broken = CampaignManifest.from_json(raw)
        messages = []
        replayed, identical = replay_manifest(broken, progress=messages.append)
        assert not identical
        assert any("replay drift" in msg for msg in messages)
        # rounds before the drifted one replayed faithfully
        assert replayed.stats.rounds < campaign_result.stats.rounds or (
            len(raw["schedule"]) == 1
        )

    def test_unsupported_version_rejected(self):
        with pytest.raises(ReplayError, match="version"):
            CampaignManifest.from_json({"version": 99})

    def test_save_and_load_campaign_dir(self, campaign_result, tmp_path):
        root = save_campaign(campaign_result, tmp_path / "camp")
        manifest, suite = load_campaign_dir(root)
        assert manifest.digest == campaign_result.digest()
        assert len(suite) == len(campaign_result.corpus)
        assert (root / "report.txt").read_text().startswith("Fuzzing campaign")


# ----------------------------------------------------------------------
# minimizer
# ----------------------------------------------------------------------


def _mk(name: str, source: str) -> TestFile:
    return TestFile(name=name, language="c", model="acc", source=source,
                    template="t")


class TestMinimize:
    def test_greedy_cover_preserves_frontier(self):
        entries = [
            (_mk("a.c", "x" * 10), ("feat:1", "sig:A")),
            (_mk("b.c", "x" * 20), ("feat:1", "feat:2", "sig:A", "sig:B")),
            (_mk("c.c", "x" * 5), ("sig:A",)),
        ]
        result = minimize_corpus(entries)
        kept_keys = set()
        for test, keys in entries:
            if test.name in result.kept:
                kept_keys |= set(keys)
        assert kept_keys == {"feat:1", "feat:2", "sig:A", "sig:B"}
        assert result.kept == ("b.c",)
        assert set(result.dropped) == {"a.c", "c.c"}

    def test_divergent_witnesses_always_kept(self):
        entries = [
            (_mk("big.c", "y" * 50), ("sig:DIVERGENT", "feat:1")),
            (_mk("small.c", "y"), ("feat:1",)),
        ]
        result = minimize_corpus(entries)
        assert "big.c" in result.kept

    def test_minimize_is_deterministic(self):
        entries = [
            (_mk(f"t{i}.c", "z" * (i + 1)), (f"feat:{i % 3}", f"sig:{i % 4}"))
            for i in range(12)
        ]
        assert minimize_corpus(entries) == minimize_corpus(list(entries))

    def test_campaign_corpus_minimizes_without_coverage_loss(self):
        result = Campaign(small_config(rounds=3, batch_size=12)).run()
        entries = [(e.test, e.keys) for e in result.corpus]
        minimized = minimize_corpus(entries)
        full = set()
        for _, keys in entries:
            full |= set(keys)
        assert minimized.covered_keys == len(full)
        assert len(minimized.kept) <= len(entries)


# ----------------------------------------------------------------------
# CLI + service surface
# ----------------------------------------------------------------------


FUZZ_RUN_ARGS = [
    "fuzz", "run", "--seed", "9", "--rounds", "1", "--batch", "6",
    "--corpus-seeds", "4", "--workers", "1",
]


class TestCliSurface:
    def test_fuzz_run_replay_round_trip(self, tmp_path, capsys):
        out = tmp_path / "camp"
        rc = cli_main(FUZZ_RUN_ARGS + ["--out", str(out), "--no-cache"])
        assert rc == 0  # zero discrepancies on shipped templates
        assert (out / "campaign.json").exists()
        assert (out / "corpus" / "manifest.json").exists()
        captured = capsys.readouterr().out
        assert "wrote campaign" in captured

        rc = cli_main(["fuzz", "replay", str(out), "--no-cache"])
        assert rc == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_fuzz_minimize_and_report(self, tmp_path, capsys):
        out = tmp_path / "camp"
        cli_main(FUZZ_RUN_ARGS + ["--out", str(out), "--no-cache"])
        capsys.readouterr()

        rc = cli_main(["fuzz", "minimize", str(out), "--out", str(tmp_path / "min")])
        assert rc == 0
        minimized = capsys.readouterr().out
        assert "minimized" in minimized
        assert (tmp_path / "min" / "manifest.json").exists()

        rc = cli_main(["fuzz", "report", str(out)])
        assert rc == 0
        assert "Fuzzing campaign" in capsys.readouterr().out

    def test_fuzz_run_rejects_unknown_languages(self, tmp_path, capsys):
        rc = cli_main(["fuzz", "run", "--languages", "fortran",
                       "--out", str(tmp_path / "x"), "--no-cache"])
        assert rc == 2
        assert "unknown languages" in capsys.readouterr().err

    def test_fuzz_report_missing_dir_exits_2(self, tmp_path, capsys):
        rc = cli_main(["fuzz", "report", str(tmp_path / "nope")])
        assert rc == 2
        assert "cannot load campaign" in capsys.readouterr().err

    def test_coverage_subcommand_on_generated_suite(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        cli_main(["generate", "--flavor", "acc", "--count", "6",
                  "--seed", "17", "--out", str(suite_dir)])
        capsys.readouterr()
        rc = cli_main(["coverage", str(suite_dir), "--uncovered"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Feature coverage (acc)" in out
        assert "uncovered" in out

    def test_coverage_subcommand_on_campaign_dir(self, tmp_path, capsys):
        out = tmp_path / "camp"
        cli_main(FUZZ_RUN_ARGS + ["--out", str(out), "--no-cache"])
        capsys.readouterr()
        rc = cli_main(["coverage", str(out)])
        assert rc == 0
        assert "Feature coverage (acc)" in capsys.readouterr().out

    def test_coverage_missing_suite_exits_2(self, tmp_path, capsys):
        rc = cli_main(["coverage", str(tmp_path / "missing")])
        assert rc == 2
        assert "cannot load suite" in capsys.readouterr().err

    def test_fuzz_run_persists_fuzz_namespace(self, tmp_path, capsys):
        out = tmp_path / "camp"
        cache_dir = tmp_path / "cache"
        rc = cli_main(FUZZ_RUN_ARGS + ["--out", str(out), "--cache-dir", str(cache_dir)])
        assert rc == 0
        assert (cache_dir / "fuzz.json").exists()
        capsys.readouterr()
        rc = cli_main(["cache", "stats", "--cache-dir", str(cache_dir)])
        assert rc == 0
        assert "fuzz:" in capsys.readouterr().out


class TestServiceFuzzMetrics:
    def test_campaign_totals_reach_the_metrics_endpoint(self):
        from repro.service.server import make_server

        reset_metrics()
        server = make_server(port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            result = Campaign(small_config(rounds=1, batch_size=4, seed_count=3)).run()
            with urllib.request.urlopen(
                f"http://{host}:{port}/v1/metrics", timeout=10
            ) as resp:
                lines = resp.read().decode("utf-8").splitlines()
            assert "fuzz_campaigns_total 1" in lines
            assert f"fuzz_executions_total {result.stats.executions}" in lines
        finally:
            server.drain_and_shutdown()
            server.server_close()
