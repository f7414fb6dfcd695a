"""The validation pipeline (paper §III-C, Figure 2).

Files flow through three stages — **compile → execute → LLM-judge** —
with bounded queues between stages and a worker pool per stage.  A file
failing an early stage has demonstrated invalidity, so in early-exit
mode it skips the expensive judge stage; record-all mode (used by the
paper's Part Two experiments) pushes every file through every stage so
both the pipeline verdict and the judge-only verdict can be computed
retroactively.
"""

from repro.pipeline.engine import (
    PipelineConfig,
    PipelineRecord,
    PipelineResult,
    ValidationPipeline,
)
from repro.pipeline.scheduler import (
    SchedulerResult,
    StageError,
    StageScheduler,
    run_stage,
)
from repro.pipeline.stages import (
    BatchJudgeStage,
    CompileStage,
    ExecuteStage,
    JudgeStage,
    JudgeTask,
    PipelineItem,
    Stage,
    StageOutcome,
)
from repro.pipeline.stats import PipelineStats, StageCounts

__all__ = [
    "PipelineConfig",
    "PipelineRecord",
    "PipelineResult",
    "ValidationPipeline",
    "PipelineStats",
    "StageCounts",
    "Stage",
    "StageOutcome",
    "StageScheduler",
    "SchedulerResult",
    "StageError",
    "run_stage",
    "CompileStage",
    "ExecuteStage",
    "JudgeStage",
    "BatchJudgeStage",
    "JudgeTask",
    "PipelineItem",
]
