"""Process-level sharding of the experiment matrix.

The paper's artifact matrix (Tables I-IX, Figures 3-6) is derived from
four independent underlying computations — the *cells*:

* ``part1 × acc`` and ``part1 × omp`` — population generation plus the
  tool-less direct-judge sweep;
* ``part2 × acc`` and ``part2 × omp`` — population generation, the
  record-all validation pipeline, and the retroactive LLMJ-2 pass;

plus the optional ``fortran-ext`` cell (the future-work extension).
Every table and figure is pure composition over the reports those
cells produce, so the cells can run in separate worker processes and
the parent can render byte-identical artifacts from the merged
results.  This is one leg of the scale story: a fast evaluator inside
a worker (the closure backend), and processes across cells — the only
layer the GIL cannot flatten.

Protocol:

1. :func:`plan` maps requested artifact names to the deduplicated cell
   set, ordered costliest-first (longest-processing-time scheduling,
   so the big Part-Two cells start before the small Part-One ones).
2. :func:`run_cells` submits each cell as one task to a
   :class:`~repro.pipeline.pool.ComputePool`, costliest first.  The
   task (:func:`cell_task`, around :func:`run_cell`) rebuilds
   ``ExperimentConfig`` (with ``jobs=1`` — workers never recurse) and a
   per-task ``PipelineCache`` pointed at a *shared* on-disk cache
   directory, so shards warm-start from and publish to the same
   compile/execute/judge store (merge-on-save with per-namespace file locking,
   see :mod:`repro.cache.store`).  A worker killed mid-cell raises
   :class:`~repro.pipeline.pool.ComputeWorkerCrash` naming the cell.
3. :func:`prefill` installs the returned reports into an
   :class:`~repro.experiments.runner.Experiments` instance, merges the
   shared cache back into the parent's in-memory bundle, and reads the
   cells' stage counts as a :class:`~repro.pipeline.stats.PipelineStats`
   view (a pooled cell's counts arrive as its task's metrics delta).

Determinism: cells are seeded and self-contained (each worker builds
its own model/generator from the config seeds), so a sharded run
produces exactly the reports a sequential run would — byte-identical
tables and figures, asserted end-to-end by
``benchmarks/test_experiment_sharding.py``.
"""

from __future__ import annotations

import pickle
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.core.atomicio import atomic_write_bytes
from repro.experiments.config import ExperimentConfig
from repro.obs import trace
from repro.obs.metrics import get_metrics
from repro.pipeline import pool
from repro.pipeline.stats import PipelineStats
from repro.testing.faultinject import fault_point

#: subdirectory of a durable run dir holding per-cell result pickles
CELLS_DIRNAME = "cells"


@dataclass(frozen=True)
class Cell:
    """One independent unit of the experiment matrix."""

    kind: str  # 'part1' | 'part2'
    flavor: str  # 'acc' | 'omp'
    languages: tuple[str, ...] | None = None  # None = config default
    tag: str = "part2"  # part2 population tag; ignored for part1

    @property
    def name(self) -> str:
        if self.kind == "part1":
            return f"part1:{self.flavor}"
        if self.tag == "part2":
            return f"part2:{self.flavor}"
        return f"part2:{self.flavor}:{self.tag}"

    @property
    def key(self) -> str:
        """The runner's memo key this cell fills."""
        return self.flavor if self.kind == "part1" else f"{self.flavor}:{self.tag}"


PART1_ACC = Cell("part1", "acc")
PART1_OMP = Cell("part1", "omp")
PART2_ACC = Cell("part2", "acc")
PART2_OMP = Cell("part2", "omp")
FORTRAN_EXT = Cell("part2", "acc", languages=("f90",), tag="fortran-ext")

#: The cells behind the standard table/figure matrix (no extension).
STANDARD_CELLS = (PART1_ACC, PART1_OMP, PART2_ACC, PART2_OMP)

#: artifact name -> cells it composes over
ARTIFACT_CELLS: dict[str, tuple[Cell, ...]] = {
    "table1": (PART1_ACC,),
    "table2": (PART1_OMP,),
    "table3": (PART1_ACC, PART1_OMP),
    "table4": (PART2_ACC,),
    "table5": (PART2_OMP,),
    "table6": (PART2_ACC, PART2_OMP),
    "table7": (PART2_ACC,),
    "table8": (PART2_OMP,),
    "table9": (PART2_ACC, PART2_OMP),
    "fig3": (PART2_ACC,),
    "fig4": (PART2_OMP,),
    "fig5": (PART1_ACC, PART2_ACC),
    "fig6": (PART1_OMP, PART2_OMP),
    "fortran_extension": (FORTRAN_EXT,),
}


def estimated_cost(config: ExperimentConfig, cell: Cell) -> int:
    """Relative cost of a cell, in judge-call-weighted file units.

    Part-Two files cost ~3x a Part-One file: the validation pipeline
    run plus two agent-judge passes versus one direct-judge sweep.
    Only the ordering matters (longest-processing-time submission).
    """
    if cell.kind == "part1":
        return config.part1_acc_count if cell.flavor == "acc" else config.part1_omp_count
    return 3 * config.part2_count(cell.flavor, cell.tag)


def plan(artifacts: list[str] | None = None) -> list[Cell]:
    """The deduplicated cells needed for ``artifacts``.

    ``None`` means the full standard matrix (every table and figure).
    Unknown artifact names are skipped — the runner reports them when
    it fails to resolve the method, with better context than we have.
    The result is in *declaration* order; callers that care about load
    balance should submit via :func:`run_cells`, which re-orders
    costliest-first.
    """
    if artifacts is None:
        return list(STANDARD_CELLS)
    cells: list[Cell] = []
    for artifact in artifacts:
        for cell in ARTIFACT_CELLS.get(artifact, ()):
            if cell not in cells:
                cells.append(cell)
    return cells


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


@dataclass
class CellResult:
    """What one worker sends back: the cell's reports plus bookkeeping.

    Everything here crosses a process boundary by pickle; ``run`` is
    the runner's ``_Part2Run`` (reports, population, pipeline result —
    all plain data).  The cell's counts travel beside it, as its task's
    metrics delta.
    """

    cell: Cell
    report: object = None  # MetricsReport (part1 cells)
    run: object = None  # _Part2Run (part2 cells)
    seconds: float = 0.0


#: how the experiment shards name their pool tasks
SHARD = pool.ComputeSpec("shard", "cell", "experiment:worker-compute")


def run_cell(
    config: ExperimentConfig, cell: Cell, cache_dir: str | None = None
) -> CellResult:
    """Compute one cell in *this* process (the spawn-safe entrypoint).

    Rebuilds the experiment harness from the picklable ``config``:
    ``jobs`` is forced to 1 (workers never shard recursively) and the
    cache is repointed at ``cache_dir``, the run's shared on-disk
    store, so sibling shards exchange compile/execute/judge hits through the
    lock-protected merge-on-save path instead of clobbering each
    other.
    """
    from repro.experiments.runner import Experiments

    worker_config = replace(
        config,
        jobs=1,
        cache_dir=cache_dir if cache_dir is not None else config.cache_dir,
    )
    exp = Experiments(worker_config)
    t0 = time.perf_counter()
    if cell.kind == "part1":
        report = exp.part1_report(cell.flavor)
        run = None
    else:
        run = exp.part2_run(cell.flavor, languages=cell.languages, tag=cell.tag)
        report = None
    return CellResult(
        cell=cell,
        report=report,
        run=run,
        seconds=time.perf_counter() - t0,
    )


def cell_task(
    config: ExperimentConfig, cell: Cell, cache_dir: str | None, trace_ctx
) -> tuple:
    """One cell as a compute pool task (module-level: spawn-safe):
    ``(CellResult, spans, metrics_delta)``."""
    return pool.run_task(
        SHARD, cell.name, trace_ctx, lambda: run_cell(config, cell, cache_dir)
    )


# ----------------------------------------------------------------------
# per-cell checkpoints (durable experiment runs)
# ----------------------------------------------------------------------


def _cell_checkpoint_path(run_dir: str | Path, cell_name: str) -> Path:
    return Path(run_dir) / CELLS_DIRNAME / (cell_name.replace(":", "_") + ".pkl")


def save_cell_result(run_dir: str | Path, result: CellResult) -> Path:
    """Persist one finished cell into a run directory (atomic pickle).

    The pickle is the same payload that crosses the process boundary in
    a sharded run — PR 3's byte-identity gate already proves a report
    that round-trips through pickle renders the same artifact bytes, so
    resuming from these checkpoints cannot change the output.
    """
    path = _cell_checkpoint_path(run_dir, result.cell.name)
    atomic_write_bytes(path, pickle.dumps(result), fault_tag="experiment-cell")
    fault_point("experiment:post-cell")
    return path


def load_cell_results(run_dir: str | Path) -> dict[str, CellResult]:
    """Completed cells previously checkpointed under ``run_dir``.

    Unreadable pickles are skipped, not fatal: the atomic write keeps
    torn files from existing, but a checkpoint that is damaged by other
    means just means its cell is recomputed.
    """
    directory = Path(run_dir) / CELLS_DIRNAME
    results: dict[str, CellResult] = {}
    if not directory.is_dir():
        return results
    for path in sorted(directory.glob("*.pkl")):
        try:
            result = pickle.loads(path.read_bytes())
        except Exception:
            continue
        if isinstance(result, CellResult):
            results[result.cell.name] = result
    return results


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------


def run_cells(
    config: ExperimentConfig,
    cells: list[Cell],
    jobs: int | None = None,
    cache_dir: str | None = None,
    checkpoint_dir: str | Path | None = None,
    stop=None,
) -> list[CellResult]:
    """Run ``cells`` on ``jobs`` worker processes; returns results in
    the order of ``cells``.

    ``jobs`` defaults to ``config.jobs``.  With one job (or one cell)
    everything runs in-process — no pool, no pickling, identical
    semantics.  Otherwise each cell is one task of a
    :class:`~repro.pipeline.pool.ComputePool`, submitted costliest
    first; its spans and metrics delta are absorbed on arrival, and a
    worker's death raises
    :class:`~repro.pipeline.pool.ComputeWorkerCrash` naming the cell.

    ``checkpoint_dir`` persists each finished cell immediately (see
    :func:`save_cell_result`), so a killed run resumes without redoing
    completed cells.  ``stop`` (an event) is honoured between cells on
    the serial path: a set event raises :class:`InterruptedError`, and
    everything checkpointed so far stays on disk — the daemon's
    checkpoint-then-drain boundary for experiment jobs.
    """
    jobs = config.jobs if jobs is None else jobs
    if jobs <= 1 or len(cells) <= 1:
        results = []
        for cell in cells:
            if stop is not None and stop.is_set():
                raise InterruptedError(
                    f"stopped before cell {cell.name}; "
                    f"{len(results)}/{len(cells)} cells checkpointed"
                )
            result = run_cell(config, cell, cache_dir)
            if checkpoint_dir is not None:
                save_cell_result(checkpoint_dir, result)
            results.append(result)
        return results

    # longest-processing-time submission: big cells first, so the pool
    # never ends with a lone Part-Two shard running while others idle
    order = sorted(
        range(len(cells)), key=lambda i: estimated_cost(config, cells[i]), reverse=True
    )
    collected: dict[int, CellResult] = {}
    with pool.ComputePool(min(jobs, len(cells))) as workers:
        ctx = trace.current()
        futures = {
            i: workers.submit(cell_task, config, cells[i], cache_dir, ctx)
            for i in order
        }
        # collect in submission (roughly completion) order so each
        # result is checkpointed as soon as it is available, not after
        # the slowest cell lands
        for i in order:
            result = workers.result(futures[i], SHARD, cells[i].name)
            if checkpoint_dir is not None:
                save_cell_result(checkpoint_dir, result)
            collected[i] = result
    return [collected[i] for i in range(len(cells))]


def prefill(
    experiments, artifacts: list[str] | None = None, jobs: int | None = None,
    checkpoint_dir: str | Path | None = None, stop=None,
) -> PipelineStats | None:
    """Compute the cells ``artifacts`` need and install them into
    ``experiments``, so subsequent ``tableN()``/``figN()`` calls are
    pure composition over already-present reports.

    Cells the instance has already computed (or prefetched) are not
    re-run.  When the config has no ``cache_dir`` but caching is on, a
    temporary directory is provisioned for the duration of the fan-out
    so shards still share results; the parent merges the shared store
    into its in-memory bundle either way, warm-starting any later
    work.  Returns the cells' stage counts as a
    :class:`~repro.pipeline.stats.PipelineStats` view (also left on
    ``experiments.shard_stats``), or None if nothing needed to run.
    """
    config = experiments.config
    jobs = config.jobs if jobs is None else jobs
    cells = [
        cell
        for cell in plan(artifacts)
        if not _already_filled(experiments, cell)
    ]
    if not cells:
        return None

    cache_dir = config.cache_dir
    tmp: tempfile.TemporaryDirectory | None = None
    if cache_dir is None and experiments.cache is not None and jobs > 1:
        tmp = tempfile.TemporaryDirectory(prefix="repro-shard-cache-")
        cache_dir = tmp.name
    try:
        if experiments.cache is not None and cache_dir is not None:
            # flush the parent's in-memory entries first, so workers
            # warm-start from results this instance already holds
            for namespace in experiments.cache.namespaces:
                namespace.save_to(cache_dir)
        baseline = get_metrics().export_state()
        results = run_cells(
            config, cells, jobs=jobs, cache_dir=cache_dir,
            checkpoint_dir=checkpoint_dir, stop=stop,
        )
        aggregate = PipelineStats(get_metrics().diff(baseline)[0])
        for result in results:
            _install(experiments, result)
        if experiments.cache is not None and cache_dir is not None:
            for namespace in experiments.cache.namespaces:
                namespace.load_from(cache_dir)
    finally:
        if tmp is not None:
            tmp.cleanup()
    experiments.shard_stats = aggregate
    experiments.shard_cells = [
        (result.cell.name, result.seconds) for result in results
    ]
    return aggregate


def _already_filled(experiments, cell: Cell) -> bool:
    if cell.kind == "part1":
        return cell.key in experiments._part1_reports
    return cell.key in experiments._part2_runs


def _install(experiments, result: CellResult) -> None:
    cell = result.cell
    if cell.kind == "part1":
        experiments._part1_reports[cell.key] = result.report
    else:
        experiments._part2_runs[cell.key] = result.run
