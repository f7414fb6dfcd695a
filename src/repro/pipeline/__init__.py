"""The validation pipeline (paper §III-C, Figure 2).

Each file runs one chain — **compile → execute → LLM-judge** — in a
loop on the calling thread, or as one task in a process pool.  A file
failing an early stage has demonstrated invalidity, so in early-exit
mode it skips the expensive judge stage; record-all mode (used by the
paper's Part Two experiments) carries every file through every stage so
both the pipeline verdict and the judge-only verdict can be computed
retroactively.
"""

from repro.pipeline.engine import (
    PipelineConfig,
    PipelineRecord,
    PipelineResult,
    ValidationPipeline,
)
from repro.pipeline.stats import PipelineStats, StageCounts

__all__ = [
    "PipelineConfig",
    "PipelineRecord",
    "PipelineResult",
    "ValidationPipeline",
    "PipelineStats",
    "StageCounts",
]
