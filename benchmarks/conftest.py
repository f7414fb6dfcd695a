"""Shared benchmark fixtures.

A single tiny-scale :class:`Experiments` instance is shared by every
table/figure bench (building corpora and judging them once), and each
bench writes its regenerated artifact to ``benchmarks/output/`` so the
rows the paper reports can be inspected after a run.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
regenerated tables inline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.corpus.generator import CorpusGenerator
from repro.corpus.suite import TestSuite
from repro.experiments import ExperimentConfig, Experiments
from repro.pipeline import pool
from repro.probing.prober import NegativeProber

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(autouse=True)
def _close_shared_pool():
    """Close the process's shared compute pool after each bench: workers
    forked for one bench would not see the next bench's monkeypatches."""
    yield
    pool.close_shared()


@pytest.fixture(scope="session")
def exp() -> Experiments:
    """Small-scale experiment harness shared across all benches.

    "small" (280/64 Part-Two files) keeps per-issue cells populated
    enough for the shape assertions; "tiny" is too sparse (single-file
    cells flip whole percentages).
    """
    return Experiments(ExperimentConfig(scale="small", seed=20240822, model_seed=99))


@pytest.fixture(scope="session")
def bench_population():
    """A probed OpenACC population for pipeline/judge micro-benches."""
    files = CorpusGenerator(seed=55).generate("acc", 24, languages=("c", "cpp"))
    return list(NegativeProber(seed=56).probe(TestSuite("bench", "acc", files)))


def emit(name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


@pytest.fixture(scope="session")
def emit_artifact():
    return emit
