"""Unit tests for the generic stage scheduler."""

import threading

import pytest

from repro.pipeline.scheduler import Stage, StageOutcome, StageScheduler
from repro.obs.metrics import get_metrics, series
from repro.pipeline.stats import PipelineStats


class DoublingStage(Stage):
    name = "double"

    def __init__(self, workers: int = 2):
        self.workers = workers

    def process(self, payload, state):
        return StageOutcome(payload * 2, ok=True, done=True)


class PassStage(Stage):
    def __init__(self, name: str, workers: int = 1):
        self.name = name
        self.workers = workers

    def process(self, payload, state):
        return StageOutcome(payload + [self.name], ok=True)


class FilterStage(Stage):
    """Finishes odd numbers early, marking downstream stats skipped."""

    name = "filter"

    def __init__(self, downstream: tuple[str, ...]):
        self.downstream = downstream

    def process(self, payload, state):
        if payload % 2:
            return StageOutcome(payload, ok=False, done=True, skip_stats=self.downstream)
        return StageOutcome(payload, ok=True)


class ExplodingStage(Stage):
    name = "explode"

    def process(self, payload, state):
        if payload == "boom":
            raise RuntimeError("stage blew up")
        return StageOutcome(payload, ok=True, done=True)


class TestSchedulerBasics:
    def test_single_stage_processes_everything(self):
        result = StageScheduler([DoublingStage()]).run([1, 2, 3, 4])
        assert sorted(result.finished) == [2, 4, 6, 8]
        assert result.ok
        assert result.stats["double"].processed == 4
        assert result.stats["double"].passed == 4

    def test_chain_runs_stages_in_order(self):
        chain = [PassStage("a"), PassStage("b", workers=3), DoublingListStage()]
        result = StageScheduler(chain).run([[], []])
        assert result.ok
        for finished in result.finished:
            assert finished == ["a", "b", "a", "b"]

    def test_items_flow_through_last_stage_to_finished(self):
        # a non-terminal outcome at the last stage finishes the item
        result = StageScheduler([PassStage("only")]).run([[]])
        assert result.finished == [["only"]]

    def test_empty_input(self):
        result = StageScheduler([DoublingStage()]).run([])
        assert result.finished == []
        assert result.stats["double"].processed == 0

    def test_run_counts_reach_the_process_registry_once(self):
        baseline = get_metrics().export_state()
        result = StageScheduler([DoublingStage()]).run([1, 2])
        applied = PipelineStats(get_metrics().diff(baseline)[0], ["double"])
        assert applied.snapshot() == result.stats.snapshot()
        assert applied["double"].processed == 2 and applied.files_total == 2

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError):
            StageScheduler([PassStage("same"), PassStage("same")])

    def test_no_stages_rejected(self):
        with pytest.raises(ValueError):
            StageScheduler([])

    def test_back_pressure_small_queue(self):
        result = StageScheduler([DoublingStage(workers=1)], queue_capacity=1).run(
            list(range(50))
        )
        assert len(result.finished) == 50


class DoublingListStage(Stage):
    name = "repeat"

    def process(self, payload, state):
        return StageOutcome(payload + payload, ok=True, done=True)


class TestRoutingAndSkips:
    def test_early_finish_records_downstream_skips(self):
        chain = [FilterStage(downstream=("sink",)), SinkStage()]
        result = StageScheduler(chain).run([1, 2, 3, 4, 5])
        assert result.ok
        assert result.stats["filter"].failed == 3
        assert result.stats["sink"].processed == 2
        assert result.stats["sink"].skipped == 3

    def test_jump_routing_skips_a_stage(self):
        class Jumper(Stage):
            name = "jump"

            def process(self, payload, state):
                return StageOutcome(payload, ok=True, next_stage="sink")

        chain = [Jumper(), PassStage("never"), SinkStage()]
        result = StageScheduler(chain).run([10, 20])
        assert result.ok
        assert result.stats["never"].processed == 0
        assert result.stats["sink"].processed == 2

    def test_backward_routing_is_contained_as_error(self):
        class BadRouter(Stage):
            name = "bad"

            def process(self, payload, state):
                return StageOutcome(payload, ok=True, next_stage="bad")

        result = StageScheduler([BadRouter(), SinkStage()]).run([1])
        assert not result.ok
        assert result.errors[0].stage == "bad"

    def test_unknown_stage_routing_is_contained_as_error(self):
        class LostRouter(Stage):
            name = "lost"

            def process(self, payload, state):
                return StageOutcome(payload, ok=True, next_stage="nowhere")

        result = StageScheduler([LostRouter(), SinkStage()]).run([1])
        assert not result.ok
        assert "nowhere" in str(result.errors[0].error)


class SinkStage(Stage):
    name = "sink"

    def process(self, payload, state):
        return StageOutcome(payload, ok=True, done=True)


class TestErrorContainment:
    def test_raising_stage_does_not_hang_shutdown(self):
        """A stage exception must drain the run, not deadlock join()."""
        result = StageScheduler([ExplodingStage()]).run(["ok1", "boom", "ok2"])
        assert len(result.finished) == 3  # the failed item still drains
        assert len(result.errors) == 1
        assert result.errors[0].stage == "explode"
        assert result.errors[0].payload == "boom"
        assert isinstance(result.errors[0].error, RuntimeError)
        assert result.stats["explode"].failed == 1
        assert result.stats["explode"].passed == 2

    def test_all_worker_threads_join(self):
        before = threading.active_count()
        StageScheduler([ExplodingStage()]).run(["boom"] * 8)
        assert threading.active_count() == before


class TestAbort:
    def test_abort_drains_without_processing_backlog(self):
        """abort() parks the run via the sentinel path, skipping the queue."""
        processed = []
        lock = threading.Lock()

        class SlowStage(Stage):
            name = "slow"
            workers = 1

            def __init__(self):
                self.scheduler = None

            def process(self, payload, state):
                with lock:
                    processed.append(payload)
                if payload == 0:
                    self.scheduler.abort()
                return StageOutcome(payload, ok=True, done=True)

        stage = SlowStage()
        scheduler = StageScheduler([stage], queue_capacity=4)
        stage.scheduler = scheduler
        result = scheduler.run(list(range(64)))
        assert result.aborted
        # the first item triggered the abort; the long tail never ran
        assert len(processed) < 64
        assert len(result.finished) == len(processed)

    def test_abort_joins_all_worker_threads(self):
        before = threading.active_count()

        class AbortingStage(Stage):
            name = "aborting"
            workers = 3

            def __init__(self):
                self.scheduler = None

            def process(self, payload, state):
                self.scheduler.abort()
                return StageOutcome(payload, ok=True, done=True)

        stage = AbortingStage()
        scheduler = StageScheduler([stage], queue_capacity=2)
        stage.scheduler = scheduler
        scheduler.run(list(range(32)))
        assert threading.active_count() == before

    def test_run_clears_previous_abort(self):
        scheduler = StageScheduler([DoublingStage()])
        scheduler.abort()
        result = scheduler.run([1, 2])
        assert not result.aborted
        assert sorted(result.finished) == [2, 4]


class TestRunCounters:
    """What one run counts into its registry, read back from the
    growth it leaves in the process registry."""

    def _applied(self, baseline, name, **labels):
        delta = get_metrics().diff(baseline)[0]
        return [
            value for got, value in series(delta, name)
            if all(got.get(k) == v for k, v in labels.items())
        ]

    def test_errored_items_are_failed_timed_and_counted_as_errors(self):
        baseline = get_metrics().export_state()
        result = StageScheduler([ExplodingStage()]).run(["ok1", "boom", "ok2"])
        assert self._applied(baseline, "pipeline_stage_errors_total", stage="explode") == [1.0]
        assert self._applied(baseline, "pipeline_stage_items_total", stage="explode") == [2.0]
        [seconds] = self._applied(baseline, "pipeline_stage_seconds", stage="explode")
        assert seconds["count"] == 3  # the errored item's busy time too
        assert result.stats["explode"].busy_seconds == pytest.approx(seconds["sum"])

    def test_outcome_simulated_seconds_replace_busy_time(self):
        class CostedStage(Stage):
            name = "costed"

            def process(self, payload, state):
                if payload == "route":
                    return StageOutcome(payload, done=True)  # ok=None
                return StageOutcome(payload, ok=True, done=True, simulated_seconds=2.5)

        result = StageScheduler([CostedStage()]).run(["a", "b", "route"])
        costed = result.stats["costed"]
        assert costed.processed == 2  # ok=None records no pass/fail
        assert costed.simulated_seconds == 5.0
        assert result.stats.files_total == 3

    def test_aborted_run_still_applies_its_counts(self):
        class AbortFirst(Stage):
            name = "abort_first"
            workers = 1

            def __init__(self):
                self.scheduler = None

            def process(self, payload, state):
                if payload == 0:
                    self.scheduler.abort()
                return StageOutcome(payload, ok=True, done=True)

        stage = AbortFirst()
        scheduler = StageScheduler([stage], queue_capacity=4)
        stage.scheduler = scheduler
        baseline = get_metrics().export_state()
        result = scheduler.run(list(range(64)))
        assert result.aborted
        applied = PipelineStats(get_metrics().diff(baseline)[0], ["abort_first"])
        assert applied.files_total == 64
        assert applied.wall_seconds > 0
        assert applied["abort_first"].passed == len(result.finished)
        assert applied.snapshot() == result.stats.snapshot()


class TestWorkerState:
    def test_state_built_once_per_worker(self):
        built = []
        lock = threading.Lock()

        class StatefulStage(Stage):
            name = "stateful"
            workers = 3

            def make_worker_state(self):
                with lock:
                    built.append(threading.get_ident())
                return object()

            def process(self, payload, state):
                assert state is not None
                return StageOutcome(payload, ok=True, done=True)

        result = StageScheduler([StatefulStage()]).run(list(range(12)))
        assert result.ok
        assert len(built) == 3
        assert len(set(built)) == 3  # one state per distinct thread
